"""Unit and edge-case tests for the fused multi-point sweep engine.

The distributional conformance of the fused engine is asserted by the
``tests/test_engine_conformance.py`` matrix; this module covers the
fusion *machinery*: grouping and block scheduling, per-row budgets,
early retirement, fallbacks, validation, and the ``sweep_fused`` /
``MonteCarloRunner.batch`` wiring.
"""

import numpy as np
import pytest

from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.algorithms.leader_tree import make_leader_tree_system
from repro.analysis.sweep import sweep_fused
from repro.errors import MarkovError, ModelError
from repro.graphs.generators import path
from repro.markov import montecarlo
from repro.markov.batch import BatchEngine, EnabledCountLegitimacy
from repro.markov.sweep_engine import (
    SWEEP_ENGINES,
    SweepPointSpec,
    SweepRunner,
)
from repro.random_source import RandomSource
from repro.schedulers.samplers import (
    CentralRandomizedSampler,
    RoundRobinSampler,
    SynchronousSampler,
)

RING5 = make_token_ring_system(5)
RING6 = make_token_ring_system(6)
RING5_SPEC = TokenCirculationSpec()


def ring_point(system=RING5, seed=1, trials=40, max_steps=20_000, **kwargs):
    spec = TokenCirculationSpec()
    defaults = dict(
        system=system,
        sampler=CentralRandomizedSampler(),
        legitimate=lambda c, s=system, sp=spec: sp.legitimate(s, c),
        trials=trials,
        max_steps=max_steps,
        seed=seed,
        batch_legitimate=EnabledCountLegitimacy(1),
    )
    defaults.update(kwargs)
    return SweepPointSpec(**defaults)


class TestValidation:
    def test_empty_point_list_rejected(self):
        with pytest.raises(MarkovError, match="at least one sweep point"):
            SweepRunner().run([])

    def test_duplicate_point_rejected(self):
        point = ring_point(seed=7)
        with pytest.raises(MarkovError, match="duplicate sweep point"):
            SweepRunner().run([point, point])

    def test_value_equal_duplicate_rejected(self):
        legitimate = lambda c: RING5_SPEC.legitimate(RING5, c)
        batch_legitimate = EnabledCountLegitimacy(1)
        sampler = CentralRandomizedSampler()
        points = [
            ring_point(
                seed=3,
                sampler=sampler,
                legitimate=legitimate,
                batch_legitimate=batch_legitimate,
            )
            for _ in range(2)
        ]
        with pytest.raises(MarkovError, match="duplicate sweep point"):
            SweepRunner().run(points)

    def test_distinct_seeds_are_not_duplicates(self):
        results = SweepRunner().run(
            [ring_point(seed=1), ring_point(seed=2)]
        )
        assert len(results) == 2

    def test_zero_trials_rejected(self):
        with pytest.raises(MarkovError, match="at least one trial"):
            SweepRunner().run([ring_point(trials=0)])

    def test_negative_budget_rejected(self):
        with pytest.raises(MarkovError, match="max_steps"):
            SweepRunner().run([ring_point(max_steps=-1)])

    def test_empty_initials_rejected(self):
        with pytest.raises(
            MarkovError, match="at least one initial configuration"
        ):
            SweepRunner().run(
                [ring_point(initial_configurations=())]
            )

    def test_non_spec_rejected(self):
        with pytest.raises(MarkovError, match="expected SweepPointSpec"):
            SweepRunner().run([{"system": RING5}])

    def test_unknown_engine_rejected(self):
        with pytest.raises(MarkovError, match="unknown engine"):
            SweepRunner(engine="warp")
        assert SWEEP_ENGINES == ("auto", "fused", "batch", "scalar")


class TestGroupingAndPlan:
    def test_single_point_group_fuses(self):
        runner = SweepRunner(engine="fused")
        (result,) = runner.run([ring_point()])
        assert result.converged == result.trials
        (execution,) = runner.last_plan
        assert execution.engine == "fused"
        assert execution.fused_rows == 40

    def test_mixed_n_group_runs_block_scheduled_sub_batches(self):
        """Different-N rings share one (algorithm, topology) group but
        fuse per system: two sub-batches, both fully fused."""
        runner = SweepRunner(engine="fused")
        points = [
            ring_point(system=RING5, seed=1),
            ring_point(system=RING6, seed=2, trials=30),
            ring_point(system=RING5, seed=3),
        ]
        results = runner.run(points)
        assert [r.trials for r in results] == [40, 30, 40]
        assert all(r.censored == 0 for r in results)
        groups = {execution.group for execution in runner.last_plan}
        assert len(groups) == 1  # one (algorithm, topology) family
        # The two ring5 points fused into one 80-row matrix; ring6 ran
        # its own 30-row sub-batch over its own tables.
        assert runner.last_plan[0].fused_rows == 80
        assert runner.last_plan[2].fused_rows == 80
        assert runner.last_plan[1].fused_rows == 30

    def test_results_align_with_input_order(self):
        runner = SweepRunner(engine="fused")
        points = [
            ring_point(seed=1, trials=10),
            ring_point(system=RING6, seed=2, trials=20),
            ring_point(seed=3, trials=30),
        ]
        results = runner.run(points)
        assert [r.trials for r in results] == [10, 20, 30]
        assert [e.index for e in runner.last_plan] == [0, 1, 2]

    def test_runner_caches_tables_across_runs(self):
        runner = SweepRunner(engine="fused")
        runner.run([ring_point(seed=1)])
        engine_first = runner._entry_for(RING5).engine
        runner.run([ring_point(seed=2)])
        assert runner._entry_for(RING5).engine is engine_first


class TestSeeding:
    """Where each engine draws a point's initial configurations from
    ``RandomSource(seed)``."""

    def _lockstep_starts(self, engine, monkeypatch):
        starts = []
        lockstep = BatchEngine.lockstep

        def recording(self, codes, *args, **kwargs):
            starts.append(codes.copy())
            return lockstep(self, codes, *args, **kwargs)

        monkeypatch.setattr(BatchEngine, "lockstep", recording)
        SweepRunner(engine=engine).run([ring_point(seed=7, trials=20)])
        monkeypatch.undo()
        (codes,) = starts
        return codes

    def test_fused_and_batch_draw_identical_starts(self, monkeypatch):
        fused = self._lockstep_starts("fused", monkeypatch)
        batch = self._lockstep_starts("batch", monkeypatch)
        assert fused.shape == (20, RING5.num_processes)
        np.testing.assert_array_equal(fused, batch)

    def test_scalar_loop_agrees_only_on_the_first_start(self, monkeypatch):
        """The scalar loop draws each trial's start lazily, after the
        previous trial's step draws, so only trial 0 starts alike."""
        fused = self._lockstep_starts("fused", monkeypatch)
        starts = []
        cursor = montecarlo.Cursor

        def recording(system, initial):
            starts.append(initial)
            return cursor(system, initial)

        monkeypatch.setattr(montecarlo, "Cursor", recording)
        SweepRunner(engine="scalar").run([ring_point(seed=7, trials=20)])
        scalar = BatchEngine(RING5).encoding.encode_batch(starts)
        assert scalar.shape == fused.shape
        np.testing.assert_array_equal(scalar[0], fused[0])
        assert not np.array_equal(scalar[1:], fused[1:])


class TestPerRowBudgetsAndRetirement:
    def test_early_convergence_does_not_stop_siblings(self):
        """A point starting legitimate retires at time 0 while its fused
        sibling keeps stepping to convergence."""
        legitimate_start = next(
            c
            for c in RING5.all_configurations()
            if RING5_SPEC.legitimate(RING5, c)
        )
        runner = SweepRunner(engine="fused")
        instant, running = runner.run(
            [
                ring_point(
                    seed=1,
                    trials=10,
                    initial_configurations=(legitimate_start,),
                ),
                ring_point(seed=2, trials=50),
            ]
        )
        assert instant.converged == 10
        assert instant.stats.mean == 0.0
        assert running.converged == 50
        assert running.stats.mean > 0.0

    def test_per_row_budget_censors_only_its_point(self):
        """A tiny budget censors its own rows; the generous sibling in
        the same matrix still converges fully."""
        tight, generous = SweepRunner(engine="fused").run(
            [
                ring_point(seed=5, trials=60, max_steps=1),
                ring_point(seed=6, trials=60, max_steps=20_000),
            ]
        )
        assert tight.censored > 0
        assert tight.converged + tight.censored == 60
        # Converged-within-1-step trials all report times <= 1.
        assert all(t <= 1.0 for t in tight.samples)
        assert generous.censored == 0

    def test_budget_censoring_matches_scalar_counts(self):
        """Identical explicit starts + deterministic-free comparison:
        the fused per-row budget censors the same trial count the
        scalar oracle censors for the same budget."""
        starts = tuple(
            c for c in RING5.all_configurations()
        )[:10]
        for engine in ("fused", "scalar"):
            point = ring_point(
                seed=11,
                trials=10,
                max_steps=0,
                initial_configurations=starts,
            )
            (result,) = SweepRunner(engine=engine).run([point])
            legit = sum(
                1 for c in starts if RING5_SPEC.legitimate(RING5, c)
            )
            assert result.converged == legit
            assert result.censored == 10 - legit

    def test_zero_step_budget_tests_time_zero_legitimacy(self):
        legitimate_start = next(
            c
            for c in RING5.all_configurations()
            if RING5_SPEC.legitimate(RING5, c)
        )
        (result,) = SweepRunner(engine="fused").run(
            [
                ring_point(
                    seed=1,
                    trials=5,
                    max_steps=0,
                    initial_configurations=(legitimate_start,),
                )
            ]
        )
        assert result.converged == 5
        assert result.stats.mean == 0.0


class TestFallbacks:
    def test_over_budget_tables_fall_back_to_scalar_on_auto(self):
        runner = SweepRunner(engine="auto", table_budget=1)
        (result,) = runner.run([ring_point(trials=10)])
        assert runner.last_plan[0].engine == "scalar"
        assert result.converged == 10

    def test_over_budget_tables_raise_on_fused(self):
        runner = SweepRunner(engine="fused", table_budget=1)
        with pytest.raises(Exception, match="budget"):
            runner.run([ring_point(trials=10)])

    def test_over_budget_tables_raise_on_per_point_batch(self):
        """The per-point lockstep engine compiles under the runner's
        ``table_budget`` too, not the default one: the ring-5 tables
        have 40 class entries, so a budget of 1 refuses them."""
        runner = SweepRunner(engine="batch", table_budget=1)
        with pytest.raises(ModelError, match="budget"):
            runner.run([ring_point(trials=20)])

    def test_stateful_sampler_falls_back_to_scalar_on_auto(self):
        runner = SweepRunner(engine="auto")
        point = ring_point(
            sampler=RoundRobinSampler(), batch_legitimate=None, trials=10
        )
        (result,) = runner.run([point])
        assert runner.last_plan[0].engine == "scalar"
        assert result.converged == 10

    def test_stateful_sampler_raises_on_fused(self):
        runner = SweepRunner(engine="fused")
        point = ring_point(
            sampler=RoundRobinSampler(), batch_legitimate=None, trials=10
        )
        with pytest.raises(MarkovError, match="no vectorized strategy"):
            runner.run([point])

    def test_mixed_plan_fuses_what_it_can(self):
        runner = SweepRunner(engine="auto")
        results = runner.run(
            [
                ring_point(seed=1, trials=10),
                ring_point(
                    seed=2,
                    trials=10,
                    sampler=RoundRobinSampler(),
                    batch_legitimate=None,
                ),
            ]
        )
        assert [e.engine for e in runner.last_plan] == ["fused", "scalar"]
        assert all(r.converged == 10 for r in results)

    def test_scalar_engine_matches_per_point_oracle(self):
        """SweepRunner(engine='scalar') is exactly the seeded per-point
        oracle: same streams as a direct scalar estimate."""
        from repro.markov.montecarlo import MonteCarloRunner

        point = ring_point(seed=123, trials=15)
        (swept,) = SweepRunner(engine="scalar").run([point])
        direct = MonteCarloRunner(RING5).estimate(
            point.sampler,
            point.legitimate,
            trials=15,
            max_steps=point.max_steps,
            rng=RandomSource(123),
            engine="scalar",
        )
        assert swept == direct


class TestBatchEscapeHatches:
    def test_shared_rng_object_keeps_sequential_streams(self):
        """Cases sharing one rng object ran consecutively on its stream
        pre-fusion; batch() must keep that path instead of rewinding the
        rng to its seed for each case."""
        from repro.markov.montecarlo import MonteCarloRunner

        spec = TokenCirculationSpec()
        legitimate = lambda c: spec.legitimate(RING5, c)
        shared = RandomSource(42)
        cases = [
            dict(
                sampler=CentralRandomizedSampler(),
                legitimate=legitimate,
                trials=10,
                max_steps=5_000,
                rng=shared,
            ),
            dict(
                sampler=CentralRandomizedSampler(),
                legitimate=legitimate,
                trials=10,
                max_steps=5_000,
                rng=shared,
            ),
        ]
        batched = MonteCarloRunner(RING5).batch(cases)
        reference_rng = RandomSource(42)
        reference = [
            MonteCarloRunner(RING5).estimate(
                **dict(case, rng=reference_rng)
            )
            for case in cases
        ]
        assert batched == reference

    def test_non_integer_seed_fuses_via_stream_drawn_subseed(self):
        """RandomSource accepts any hashable seed; the fused path draws
        an integer sub-seed from the stream, so exotic seeds work."""
        from repro.markov.montecarlo import MonteCarloRunner

        spec = TokenCirculationSpec()
        (result,) = MonteCarloRunner(RING5).batch(
            [
                dict(
                    sampler=CentralRandomizedSampler(),
                    legitimate=lambda c: spec.legitimate(RING5, c),
                    trials=8,
                    max_steps=5_000,
                    rng=RandomSource("exp-a"),
                )
            ]
        )
        assert result.converged == 8

    def test_repeated_batch_calls_advance_the_rng(self):
        """The fused path draws its sub-seed from the rng stream, so
        re-running batch() with the same rng object gives a fresh
        replication, exactly like the pre-fusion sequential path —
        never a bit-identical replay."""
        from repro.markov.montecarlo import MonteCarloRunner

        spec = TokenCirculationSpec()
        rng = RandomSource(99)
        runner = MonteCarloRunner(RING5)
        case = dict(
            sampler=CentralRandomizedSampler(),
            legitimate=lambda c: spec.legitimate(RING5, c),
            trials=25,
            max_steps=5_000,
            rng=rng,
        )
        (first,) = runner.batch([dict(case)])
        (second,) = runner.batch([dict(case)])
        assert first.samples != second.samples

    def test_value_equal_cases_fuse_as_distinct_points(self):
        """Two value-equal cases (shared sampler/predicate, equal-seed
        but distinct rng objects) were legal pre-fusion and must not
        trip the duplicate-point check."""
        from repro.markov.montecarlo import MonteCarloRunner

        spec = TokenCirculationSpec()
        sampler = CentralRandomizedSampler()
        legitimate = lambda c: spec.legitimate(RING5, c)
        case = dict(
            sampler=sampler,
            legitimate=legitimate,
            trials=8,
            max_steps=5_000,
        )
        results = MonteCarloRunner(RING5).batch(
            [
                dict(case, rng=RandomSource(7)),
                dict(case, rng=RandomSource(7)),
            ]
        )
        assert len(results) == 2
        assert all(result.converged == 8 for result in results)

    def test_compile_failure_shared_with_sweep_runner(self):
        """batch() hands its cached compilation failure to the sweep
        runner, which then falls back without recompiling."""
        from repro.errors import ModelError
        from repro.markov.montecarlo import MonteCarloRunner

        runner = MonteCarloRunner(RING5)
        error = ModelError("synthetic over-budget tables")
        runner._batch_compile_error = error
        spec = TokenCirculationSpec()
        results = runner.batch(
            [
                dict(
                    sampler=CentralRandomizedSampler(),
                    legitimate=lambda c: spec.legitimate(RING5, c),
                    trials=5,
                    max_steps=5_000,
                    rng=RandomSource(7),
                )
            ]
        )
        assert results[0].converged == 5


class TestSweepFusedEntryPoint:
    def test_sweep_fused_empty_values_matches_sweep(self):
        assert sweep_fused("N", [], lambda n: ring_point(seed=n)) == []

    def test_sweep_fused_rows_and_parameters(self):
        points = sweep_fused(
            "N",
            [5, 6],
            lambda n: ring_point(
                system=RING5 if n == 5 else RING6, seed=n, trials=20
            ),
        )
        assert [p.parameters["N"] for p in points] == [5, 6]
        for point in points:
            assert point.row["trials"] == 20
            assert point.row["converged"] == 20
            assert "mean" in point.row

    def test_sweep_fused_reuses_supplied_runner(self):
        runner = SweepRunner(engine="fused")
        sweep_fused("seed", [1], lambda s: ring_point(seed=s), runner=runner)
        cached = runner._entry_for(RING5).engine
        sweep_fused("seed", [2], lambda s: ring_point(seed=s), runner=runner)
        assert runner._entry_for(RING5).engine is cached


class TestSamplesField:
    def test_samples_consistent_with_stats(self):
        (result,) = SweepRunner(engine="fused").run([ring_point(trials=30)])
        assert len(result.samples) == result.converged
        assert result.stats.mean == pytest.approx(
            float(np.mean(result.samples))
        )

    def test_legitimacy_dispatch_groups_share_predicates(self):
        """Points with equal EnabledCountLegitimacy share one dispatch
        group; a point with a decoding predicate gets its own — and both
        produce full convergence in one fused matrix."""
        leader = make_leader_tree_system(path(4))
        runner = SweepRunner(engine="fused")
        ring_a, ring_b = runner.run(
            [ring_point(seed=1, trials=20), ring_point(seed=2, trials=20)]
        )
        assert ring_a.censored == ring_b.censored == 0
        (decoded,) = runner.run(
            [
                SweepPointSpec(
                    system=leader,
                    sampler=CentralRandomizedSampler(),
                    legitimate=leader.is_terminal,
                    trials=20,
                    max_steps=20_000,
                    seed=3,
                )
            ]
        )
        assert decoded.censored == 0


class TestSignatureKeyedCache:
    """The per-system cache is keyed by content signature, never id.

    The old ``id(system)``-keyed dicts could hand a value-different
    system a stale engine once the interpreter recycled a collected
    system's id — routine in a long-lived serving process with LRU
    eviction.  These tests pin the replacement contract: recycled ids
    recompile, evicted entries recompile, and value-equal systems built
    independently share one compilation.
    """

    def test_recycled_id_gets_fresh_compilation(self):
        """Build a system, prime the cache, let the system be collected,
        then build a *value-different* system whose instance reuses the
        freed id — it must get a fresh engine, not the stale entry."""
        import copy

        template = make_token_ring_system(6)
        oracle = SweepRunner().run(
            [ring_point(system=copy.copy(template), seed=9, trials=10)]
        )
        runner = SweepRunner(cache_size=1)
        decoy = make_token_ring_system(4)
        for _ in range(50):
            stale = make_token_ring_system(5)
            runner.run([ring_point(system=stale, seed=3, trials=5)])
            stale_key = runner._cache_key(stale)
            # Evict the entry so its strong reference (the id-reuse
            # shield) is dropped and ``stale`` really can be collected.
            runner.run([ring_point(system=decoy, seed=4, trials=5)])
            assert stale_key not in runner._systems
            old_id = id(stale)
            del stale
            # CPython hands the freed slot to the next same-layout
            # allocation; copy.copy allocates the instance first.
            fresh = copy.copy(template)
            if id(fresh) != old_id:
                del fresh
                continue
            assert runner._cache_key(fresh) != stale_key
            results = runner.run(
                [ring_point(system=fresh, seed=9, trials=10)]
            )
            entry = runner._entry_for(fresh)
            assert entry.system is fresh
            assert entry.engine is not None
            assert results[0].samples == oracle[0].samples
            return
        pytest.skip("allocator never recycled the system id in 50 tries")

    def test_lru_eviction_recompiles_correctly(self):
        runner = SweepRunner(cache_size=2)
        points = {
            n: ring_point(
                system=make_token_ring_system(n), seed=n, trials=10
            )
            for n in (4, 5, 6)
        }
        first = runner.run([points[4]])
        runner.run([points[5]])
        runner.run([points[6]])
        assert runner.cached_systems == 2
        assert runner.evictions == 1
        assert runner._cache_key(points[4].system) not in runner._systems
        # The evicted system recompiles into a fresh entry and still
        # reproduces its seeded stream exactly.
        again = runner.run([points[4]])
        assert again[0].samples == first[0].samples
        assert runner.evictions == 2  # size-2 cache dropped another
        assert runner.cache_info() == {
            "systems": 2,
            "cache_size": 2,
            "evictions": 2,
        }

    def test_cache_size_validation(self):
        with pytest.raises(MarkovError, match="cache_size"):
            SweepRunner(cache_size=0)
        unbounded = SweepRunner(cache_size=None)
        for n in (4, 5, 6):
            unbounded.run(
                [
                    ring_point(
                        system=make_token_ring_system(n), seed=n, trials=5
                    )
                ]
            )
        assert unbounded.cached_systems == 3
        assert unbounded.evictions == 0

    def test_value_equal_systems_share_entry_and_fuse(self):
        """Independently built equal systems (different tenants) map to
        one cache entry and fuse into one code matrix."""
        ring_a = make_token_ring_system(5)
        ring_b = make_token_ring_system(5)
        assert ring_a is not ring_b
        runner = SweepRunner(engine="fused")
        results = runner.run(
            [
                ring_point(system=ring_a, seed=1, trials=15),
                ring_point(system=ring_b, seed=2, trials=15),
            ]
        )
        assert runner.cached_systems == 1
        plan_a, plan_b = runner.last_plan
        assert plan_a.group == plan_b.group
        assert plan_a.fused_rows == plan_b.fused_rows == 30
        # Bit-identical to the same sweep on one shared system object.
        oracle = SweepRunner(engine="fused").run(
            [
                ring_point(system=ring_a, seed=1, trials=15),
                ring_point(system=ring_a, seed=2, trials=15),
            ]
        )
        assert [r.samples for r in results] == [
            r.samples for r in oracle
        ]
