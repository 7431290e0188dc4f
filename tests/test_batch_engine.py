"""Scalar-vs-batch equivalence and unit tests for the lockstep engine.

The batch engine reproduces the scalar path's sampling *distributions*
(not its random streams), so equivalence is asserted statistically:
seeded runs of both engines on the same sweep point must produce
stabilization-time samples whose empirical distributions agree under a
two-sample Kolmogorov–Smirnov bound, plus matching structural outcomes
(censoring counts, terminal retirement) that are seed-independent.
"""

import copy
import re
from functools import partial

import numpy as np
import pytest

from conformance_registry import (
    CONFORMANCE_SYSTEMS,
    conformance_system,
    make_two_action_system,
)
from repro.algorithms.herman_ring import (
    HermanSingleTokenSpec,
    make_herman_system,
)
from repro.algorithms.leader_tree import make_leader_tree_system
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.algorithms.two_process import BothTrueSpec, make_two_process_system
from repro.core.encoding import TABLE_CACHE, compile_tables
from repro.core.simulate import run_until
from repro.errors import MarkovError, ModelError
from repro.graphs.generators import path
from repro.markov.batch import (
    BatchEngine,
    DecodingLegitimacy,
    EnabledCountLegitimacy,
    batch_strategy_for,
    compile_legitimacy,
)
from repro.markov.hitting import expected_hitting_times
from repro.markov.lumping import lumped_synchronous_transformed_chain
from repro.markov.montecarlo import (
    MonteCarloRunner,
    random_configuration,
    random_configurations,
)
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.random_source import RandomSource
from repro.schedulers.samplers import (
    BernoulliSampler,
    CentralRandomizedSampler,
    DistributedRandomizedSampler,
    RoundRobinSampler,
    SynchronousSampler,
)
from repro.stabilization.faults import FaultPlan
from repro.transformer.coin_toss import (
    TransformedSpec,
    make_transformed_system,
)


def _ks_statistic(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (sup CDF distance)."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def _ks_bound(n: int, m: int, confidence: float = 2.0) -> float:
    """KS acceptance threshold ``c · sqrt((n + m) / (n m))``.

    ``confidence=2.0`` corresponds to α ≈ 0.0007 — runs are seeded, so
    this is a deterministic regression bound, not a flaky gate.
    """
    return confidence * ((n + m) / (n * m)) ** 0.5


def _distribution_cases():
    ring5 = make_token_ring_system(5)
    ring5_spec = TokenCirculationSpec()
    ring6 = make_token_ring_system(6)
    tree5 = make_leader_tree_system(path(5))
    base2 = make_two_process_system()
    trans2 = make_transformed_system(base2)
    trans2_spec = TransformedSpec(BothTrueSpec(), base2)
    return [
        (
            "ring5-central",
            ring5,
            CentralRandomizedSampler(),
            lambda c, s=ring5, sp=ring5_spec: sp.legitimate(s, c),
            EnabledCountLegitimacy(1),
        ),
        (
            "ring6-distributed",
            ring6,
            DistributedRandomizedSampler(),
            lambda c, s=ring6: len(s.enabled_processes(c)) == 1,
            EnabledCountLegitimacy(1),
        ),
        (
            "leader-path5-bernoulli",
            tree5,
            BernoulliSampler(0.7),
            tree5.is_terminal,
            EnabledCountLegitimacy(0),
        ),
        (
            "trans-two-process-synchronous",
            trans2,
            SynchronousSampler(),
            lambda c, s=trans2, sp=trans2_spec: sp.legitimate(s, c),
            None,  # exercise the decoding fallback
        ),
    ]


@pytest.mark.parametrize(
    "name,system,sampler,legitimate,batch_legitimate",
    _distribution_cases(),
    ids=[case[0] for case in _distribution_cases()],
)
def test_stabilization_time_distribution_matches_scalar(
    name, system, sampler, legitimate, batch_legitimate
):
    """Seeded KS-style property: the batch engine's per-trial
    stabilization-time distribution matches the scalar oracle's."""
    scalar_times = _raw_times(system, sampler, legitimate, "scalar")
    batch_times = _raw_times(
        system, sampler, legitimate, "batch", batch_legitimate
    )
    statistic = _ks_statistic(scalar_times, batch_times)
    assert statistic < _ks_bound(len(scalar_times), len(batch_times)), (
        f"{name}: KS statistic {statistic:.4f} exceeds bound"
    )
    scalar_mean = float(np.mean(scalar_times))
    batch_mean = float(np.mean(batch_times))
    scalar_sem = float(np.std(scalar_times) / np.sqrt(len(scalar_times)))
    assert batch_mean == pytest.approx(
        scalar_mean, abs=max(5.0 * scalar_sem, 0.5)
    )


def _raw_times(system, sampler, legitimate, engine, batch_legitimate=None):
    """Raw per-trial stabilization times from one seeded estimate."""
    times = []
    if engine == "batch":
        strategy = batch_strategy_for(sampler)
        assert strategy is not None
        engine_obj = BatchEngine(system)
        rng = RandomSource(777)
        codes = engine_obj.encoding.encode_batch(
            random_configurations(system, rng, 600)
        )
        outcome = engine_obj.run(
            strategy,
            compile_legitimacy(
                batch_legitimate
                if batch_legitimate is not None
                else legitimate
            ),
            codes,
            20_000,
            rng.numpy_generator(),
        )
        assert outcome.converged.all()
        times = outcome.stabilization_times
    else:
        rng = RandomSource(888)
        for _ in range(600):
            initial = random_configuration(system, rng)
            result = run_until(
                system,
                sampler,
                initial,
                stop=legitimate,
                max_steps=20_000,
                rng=rng,
                record=False,
            )
            assert result.converged
            times.append(float(result.steps_taken))
    return times


class TestBatchSamplerStrategies:
    def _enabled_fixture(self):
        generator = np.random.default_rng(5)
        enabled = generator.random((200, 9)) < 0.5
        enabled[(~enabled).all(axis=1), 0] = True  # no empty rows
        return enabled, generator

    def test_synchronous_moves_all_enabled(self):
        enabled, generator = self._enabled_fixture()
        movers = batch_strategy_for(SynchronousSampler()).choose(
            enabled, generator
        )
        assert (movers == enabled).all()

    def test_central_moves_exactly_one_enabled(self):
        enabled, generator = self._enabled_fixture()
        movers = batch_strategy_for(CentralRandomizedSampler()).choose(
            enabled, generator
        )
        assert (movers.sum(axis=1) == 1).all()
        assert (movers & ~enabled).sum() == 0

    def test_distributed_moves_nonempty_enabled_subset(self):
        enabled, generator = self._enabled_fixture()
        movers = batch_strategy_for(DistributedRandomizedSampler()).choose(
            enabled, generator
        )
        assert (movers.sum(axis=1) >= 1).all()
        assert (movers & ~enabled).sum() == 0

    def test_bernoulli_respects_enabledness(self):
        enabled, generator = self._enabled_fixture()
        movers = batch_strategy_for(BernoulliSampler(0.2)).choose(
            enabled, generator
        )
        assert (movers.sum(axis=1) >= 1).all()
        assert (movers & ~enabled).sum() == 0

    @pytest.mark.parametrize(
        "sampler",
        [DistributedRandomizedSampler(), BernoulliSampler(0.2)],
        ids=["distributed", "bernoulli"],
    )
    def test_coins_drawn_only_at_enabled_cells(self, sampler):
        """Interleaving disabled columns changes neither the movers nor
        the generator's final state: no coin is drawn there."""
        enabled, generator = self._enabled_fixture()
        padded = np.zeros((enabled.shape[0], 2 * enabled.shape[1]), bool)
        padded[:, 1::2] = enabled
        twin = copy.deepcopy(generator)
        strategy = batch_strategy_for(sampler)
        movers = strategy.choose(enabled, generator)
        padded_movers = strategy.choose(padded, twin)
        assert not padded_movers[:, 0::2].any()
        np.testing.assert_array_equal(padded_movers[:, 1::2], movers)
        assert generator.bit_generator.state == twin.bit_generator.state

    def test_central_choice_is_uniform(self):
        """Each of k enabled processes is chosen ≈ 1/k of the time."""
        generator = np.random.default_rng(9)
        enabled = np.zeros((30_000, 6), dtype=bool)
        enabled[:, [1, 3, 4]] = True
        movers = batch_strategy_for(CentralRandomizedSampler()).choose(
            enabled, generator
        )
        frequencies = movers.mean(axis=0)
        assert frequencies[[0, 2, 5]].sum() == 0
        assert np.allclose(frequencies[[1, 3, 4]], 1 / 3, atol=0.01)

    def test_stateful_samplers_have_no_strategy(self):
        assert batch_strategy_for(RoundRobinSampler()) is None


@pytest.mark.parametrize("n", [4, 5])
def test_batch_mean_matches_exact_lumped_chain(n):
    """Trans(token ring) under the synchronous sampler: the batch
    engine's 99.9% normal confidence interval for the mean stabilization
    time covers the exact mean over every initial configuration, read
    off the lumped chain.  (Two cases at 95% would miss on about one
    seed in ten with nothing wrong.)"""
    base = make_token_ring_system(n)
    lumped = lumped_synchronous_transformed_chain(base)
    assert lumped.num_states == base.num_configurations()
    exact = float(
        expected_hitting_times(
            lumped, lumped.mark(EnabledCountLegitimacy(1))
        ).mean()
    )
    system = make_transformed_system(base)
    spec = TransformedSpec(TokenCirculationSpec(), base)
    result = MonteCarloRunner(system).estimate(
        SynchronousSampler(),
        lambda c: spec.legitimate(system, c),
        trials=2000,
        max_steps=100_000,
        rng=RandomSource(2030),
        engine="batch",
        batch_legitimate=EnabledCountLegitimacy(1),
    )
    assert result.censored == 0
    half_width = result.stats.ci95_half_width * (3.29 / 1.96)
    assert abs(result.stats.mean - exact) <= half_width, (
        result.stats.mean,
        exact,
        half_width,
    )


class TestEngineSelection:
    def test_batch_engine_refuses_rounds(self):
        system = make_token_ring_system(4)
        with pytest.raises(MarkovError):
            MonteCarloRunner(system).estimate(
                CentralRandomizedSampler(),
                system.is_terminal,
                trials=5,
                max_steps=100,
                rng=RandomSource(0),
                engine="batch",
                measure_rounds=True,
            )

    def test_batch_engine_refuses_stateful_sampler(self):
        system = make_token_ring_system(4)
        with pytest.raises(MarkovError):
            MonteCarloRunner(system).estimate(
                RoundRobinSampler(),
                system.is_terminal,
                trials=5,
                max_steps=100,
                rng=RandomSource(0),
                engine="batch",
            )

    def test_auto_falls_back_to_scalar_bitwise(self):
        """auto with a round-robin sampler must equal scalar exactly
        (same engine, same random stream)."""
        system = make_token_ring_system(5)
        spec = TokenCirculationSpec()
        kwargs = dict(
            legitimate=lambda c: spec.legitimate(system, c),
            trials=20,
            max_steps=5_000,
        )
        auto = MonteCarloRunner(system).estimate(
            RoundRobinSampler(), rng=RandomSource(6), engine="auto", **kwargs
        )
        scalar = MonteCarloRunner(system).estimate(
            RoundRobinSampler(), rng=RandomSource(6), engine="scalar", **kwargs
        )
        assert auto == scalar

    def test_unknown_engine_rejected(self):
        system = make_token_ring_system(4)
        with pytest.raises(TypeError, match="engine"):
            MonteCarloRunner(system, engine="batch")  # per call only
        with pytest.raises(MarkovError):
            MonteCarloRunner(system).estimate(
                CentralRandomizedSampler(),
                system.is_terminal,
                trials=1,
                max_steps=1,
                rng=RandomSource(0),
                engine="warp",
            )

    def test_measure_rounds_auto_uses_scalar(self):
        system = make_token_ring_system(4)
        spec = TokenCirculationSpec()
        result = MonteCarloRunner(system).estimate(
            CentralRandomizedSampler(),
            lambda c: spec.legitimate(system, c),
            trials=10,
            max_steps=5_000,
            rng=RandomSource(4),
            measure_rounds=True,
        )
        assert result.round_stats is not None
        row = result.row()
        assert "round_mean" in row
        assert row["round_mean"] == round(result.round_stats.mean, 4)


class TestBatchStructuralEquivalence:
    def test_censoring_matches_scalar(self):
        """From (False, False) the central scheduler can never reach the
        both-true set — every trial is censored on both engines."""
        system = make_two_process_system()
        spec = BothTrueSpec()
        kwargs = dict(
            legitimate=lambda c: spec.legitimate(system, c),
            trials=20,
            max_steps=50,
            initial_configurations=[((False,), (False,))],
        )
        runner = MonteCarloRunner(system)
        batch = runner.estimate(
            CentralRandomizedSampler(),
            rng=RandomSource(1),
            engine="batch",
            **kwargs,
        )
        scalar = runner.estimate(
            CentralRandomizedSampler(),
            rng=RandomSource(1),
            engine="scalar",
            **kwargs,
        )
        assert batch.censored == scalar.censored == 20
        assert batch.stats is None and scalar.stats is None

    def test_terminal_on_last_budgeted_step_is_not_a_timeout(self):
        """On the path of three, every central step from all zeros ends
        in a terminal configuration; with ``max_steps=1`` every engine
        counts such a trial as terminal, not as timed out."""
        system = make_leader_tree_system(path(3))
        kwargs = dict(
            legitimate=lambda c: False,
            trials=8,
            max_steps=1,
            initial_configurations=[((0,), (0,), (0,))],
        )
        runner = MonteCarloRunner(system)
        results = {
            engine: runner.estimate(
                CentralRandomizedSampler(),
                rng=RandomSource(1),
                engine=engine,
                **kwargs,
            )
            for engine in ("batch", "scalar")
        }
        for result in results.values():
            assert result.censored == 8
            assert result.timed_out == 0

    def test_initial_configurations_cycle(self):
        """Explicit initials tile over trials exactly as the scalar path:
        legitimate starts converge at time 0 on both engines."""
        system = make_token_ring_system(5)
        spec = TokenCirculationSpec()
        legitimate_start = next(
            c
            for c in system.all_configurations()
            if spec.legitimate(system, c)
        )
        runner = MonteCarloRunner(system)
        for engine in ("batch", "scalar"):
            result = runner.estimate(
                CentralRandomizedSampler(),
                lambda c: spec.legitimate(system, c),
                trials=7,
                max_steps=10,
                rng=RandomSource(2),
                initial_configurations=[legitimate_start],
                engine=engine,
                batch_legitimate=EnabledCountLegitimacy(1),
            )
            assert result.converged == 7
            assert result.stats.mean == 0.0

    def test_decoding_legitimacy_memoizes(self):
        system = make_token_ring_system(4)
        spec = TokenCirculationSpec()
        calls = []

        def predicate(configuration):
            calls.append(configuration)
            return spec.legitimate(system, configuration)

        engine = BatchEngine(system)
        legitimacy = DecodingLegitimacy(predicate)
        codes = engine.encoding.encode_batch(
            [next(system.all_configurations())] * 50
        )
        enabled = engine.tables.enabled(engine.tables.pack(codes))
        verdicts = legitimacy.evaluate(codes, enabled, engine)
        assert verdicts.shape == (50,)
        assert len(calls) == 1  # 49 repeats hit the memo

    def test_batch_runner_reuses_compiled_engine(self, compile_calls):
        """Two ``engine="batch"`` estimates compile the tables once."""
        system = make_token_ring_system(5)
        spec = TokenCirculationSpec()
        runner = MonteCarloRunner(system)
        TABLE_CACHE.clear()
        for seed in (1, 2):
            result = runner.estimate(
                CentralRandomizedSampler(),
                partial(spec.legitimate, system),
                trials=5,
                max_steps=5_000,
                rng=RandomSource(seed),
                engine="batch",
                batch_legitimate=EnabledCountLegitimacy(1),
            )
            assert result.converged == 5
        assert compile_calls == [system]


def test_montecarlo_runner_batch_scalar_matches_separate_estimates():
    """The oracle escape hatch: a scalar-engine ``batch`` is bit-equal
    to sequential estimates (same random streams) — on converging runs
    under both daemons, and on a censored synchronous run (the leader
    path never converges synchronously), whose timeouts are compared
    too."""
    tree = make_leader_tree_system(path(6))
    herman = make_herman_system(5)
    groups = [
        (
            tree,
            [
                dict(
                    sampler=DistributedRandomizedSampler(),
                    legitimate=tree.is_terminal,
                    trials=10,
                    max_steps=10_000,
                    rng=RandomSource(31),
                ),
                dict(
                    sampler=SynchronousSampler(),
                    legitimate=tree.is_terminal,
                    trials=10,
                    max_steps=200,
                    rng=RandomSource(32),
                ),
            ],
        ),
        (
            herman,
            [
                dict(
                    sampler=SynchronousSampler(),
                    legitimate=partial(
                        HermanSingleTokenSpec().legitimate, herman
                    ),
                    trials=10,
                    max_steps=10_000,
                    rng=RandomSource(33),
                ),
            ],
        ),
    ]
    outcomes = []
    for system, cases in groups:
        runner = MonteCarloRunner(system)
        batched = runner.batch(
            [
                dict(case, rng=RandomSource(case["rng"].seed), engine="scalar")
                for case in cases
            ]
        )
        separate = [
            MonteCarloRunner(system).estimate(engine="scalar", **case)
            for case in cases
        ]
        assert len(batched) == len(separate)
        for fast, reference in zip(batched, separate):
            assert fast == reference
        outcomes.extend(batched)
    distributed, censored, herman_sync = outcomes
    assert distributed.converged == 10
    assert censored.converged == 0 and censored.timed_out == 10
    assert herman_sync.converged == 10


#: Explicit initials of ``make_token_ring_system(4)`` that are not
#: configurations of it.
_FOREIGN_INITIALS = [
    pytest.param(((17,),) * 4, id="out-of-domain"),
    pytest.param(((0,),) * 3, id="too-short"),
    pytest.param(((0, 0),) + ((0,),) * 3, id="too-many-variables"),
    pytest.param(((True,),) + ((0,),) * 3, id="bool-for-int"),
]


@pytest.mark.parametrize("initial", _FOREIGN_INITIALS)
@pytest.mark.parametrize(
    "path_name", ["scalar", "batch", "fused", "run_until"]
)
def test_foreign_initials_rejected_by_every_path(path_name, initial):
    """Each engine checks explicit initials against the system once,
    before anything runs, and rejects them the same way: with the
    message of ``System.check_configuration``."""
    system = make_token_ring_system(4)
    with pytest.raises(ModelError) as expected:
        system.check_configuration(initial)
    with pytest.raises(ModelError, match=re.escape(str(expected.value))):
        if path_name == "run_until":
            run_until(
                system,
                CentralRandomizedSampler(),
                initial,
                stop=system.is_terminal,
                max_steps=5,
                rng=RandomSource(0),
            )
        elif path_name == "fused":
            SweepRunner(engine="fused").run(
                [
                    SweepPointSpec(
                        system=system,
                        sampler=CentralRandomizedSampler(),
                        legitimate=system.is_terminal,
                        trials=3,
                        max_steps=5,
                        seed=0,
                        initial_configurations=(initial,),
                    )
                ]
            )
        else:
            MonteCarloRunner(system).estimate(
                CentralRandomizedSampler(),
                system.is_terminal,
                trials=5,
                max_steps=5,
                rng=RandomSource(0),
                initial_configurations=[initial],
                engine=path_name,
            )


@pytest.mark.parametrize("with_fault", [False, True], ids=["plain", "fault"])
@pytest.mark.parametrize("engine", ["scalar", "batch", "auto"])
def test_negative_budget_rejected_by_every_engine(engine, with_fault):
    """``estimate`` rejects ``max_steps < 0`` before choosing an engine,
    as the sweep runner that ``MonteCarloRunner.batch`` routes fusable
    cases to does — one budget is never both rejected and accepted."""
    system = make_token_ring_system(5)
    spec = TokenCirculationSpec()
    with pytest.raises(MarkovError, match="max_steps"):
        MonteCarloRunner(system).estimate(
            CentralRandomizedSampler(),
            lambda c: spec.legitimate(system, c),
            trials=20,
            max_steps=-3,
            rng=RandomSource(0),
            engine=engine,
            fault=FaultPlan(processes=1, step=0) if with_fault else None,
        )


class TestRandomConfigurations:
    def test_matches_sequential_singles(self):
        system = make_token_ring_system(5)
        batched = random_configurations(system, RandomSource(9), 10)
        rng = RandomSource(9)
        singles = [random_configuration(system, rng) for _ in range(10)]
        assert batched == singles

    def test_configurations_valid(self):
        system = make_transformed_system(make_token_ring_system(4))
        for configuration in random_configurations(
            system, RandomSource(1), 20
        ):
            system.check_configuration(configuration)


def _dense_pack(tables, codes):
    """The pre-column-loop ``pack``: one ``(T, N, width)`` gather."""
    gathered = codes[:, tables.neighbor_index].astype(np.int64)
    return (gathered * tables.neighbor_weight).sum(axis=2) + tables.key_offset


def _dense_sample(tables, codes, keys, movers, generator):
    """The oracle of the stream contract, one mover at a time: one
    ``(M, 2)`` draw for the ``M`` movers in row-major cell order, each
    mover reading its choice uniform, then its outcome uniform, against
    its full cumulative row.  Deterministic tables read no uniform; the
    stream moves past two ``keys``-shaped draws there."""
    stepped = codes.copy()
    flat_keys = keys.reshape(-1)
    cells = np.flatnonzero(movers)
    if tables.deterministic:
        generator.random((2, *keys.shape))
        draws = np.zeros((cells.shape[0], 2))
    else:
        draws = generator.random((cells.shape[0], 2))
    for cell, (choice_draw, outcome_draw) in zip(cells.tolist(), draws):
        key = int(flat_keys[cell])
        count = int(tables.action_count[key])
        choice = min(int(choice_draw * count), count - 1)
        row = int(tables.action_base[key]) + choice
        outcome = int((outcome_draw >= tables.outcome_cum[row]).sum())
        stepped.reshape(-1)[cell] = tables.outcome_code[row, outcome]
    return stepped


#: Every conformance system, plus the fixture whose cells have two
#: enabled actions (the only one that exercises the action-choice draw).
_STREAM_SYSTEMS = [entry.name for entry in CONFORMANCE_SYSTEMS] + [
    "two-action-ring4"
]


@pytest.mark.parametrize("name", _STREAM_SYSTEMS)
def test_sample_stream_contract(name):
    """``sample`` writes the per-mover oracle's codes into the matrix in
    place and leaves the generator in the same state: two uniforms per
    mover, none at any other cell (none at all on deterministic
    tables)."""
    system = (
        make_two_action_system(4)
        if name == "two-action-ring4"
        else conformance_system(name)
    )
    tables = compile_tables(system)
    sizes = tables.encoding.sizes
    rng = np.random.default_rng(2024)
    # Zero rows, a single row, zero movers, some movers, every enabled cell.
    shapes = [(0, 0.5), (1, 0.5), (37, 0.0), (37, 0.5), (200, 1.0)]
    for trials, density in shapes:
        codes = (
            rng.random((trials, sizes.shape[0])) * sizes
        ).astype(np.uint32)
        keys = tables.pack(codes)
        assert keys.dtype == np.uint32
        np.testing.assert_array_equal(keys, _dense_pack(tables, codes))
        enabled = tables.enabled(keys)
        movers = enabled & (rng.random(enabled.shape) < density)
        seed = int(rng.integers(2**32))
        mover_only = np.random.default_rng(seed)
        oracle = np.random.default_rng(seed)
        expected = _dense_sample(tables, codes, keys, movers, oracle)
        stepped = codes.copy()
        assert tables.sample(stepped, keys, movers, mover_only) is None
        assert stepped.dtype == expected.dtype
        np.testing.assert_array_equal(stepped, expected)
        assert mover_only.bit_generator.state == oracle.bit_generator.state


def test_stream_systems_cover_both_draw_layouts():
    deterministic = {
        name: compile_tables(
            make_two_action_system(4)
            if name == "two-action-ring4"
            else conformance_system(name)
        ).deterministic
        for name in _STREAM_SYSTEMS
    }
    assert any(deterministic.values()) and not all(deterministic.values())


def test_two_action_fixture_exercises_the_action_choice():
    tables = compile_tables(make_two_action_system(4))
    assert tables.action_count.max() == 2
    assert (tables.action_count == 1).any()
