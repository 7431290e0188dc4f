"""Rank-space super-stepping inside the one lockstep loop.

:meth:`repro.markov.batch.BatchEngine.lockstep` decides at its entry
whether a run takes rank-space super-stepping or the per-step body.
This module pins that decision (engagement, decline on stochastic
choices, decoding predicates and over-budget closures), the exactness
of super-stepped outcome vectors against the per-step body — forced by
setting :data:`repro.markov.superstep.SUPERSTEP_BUDGET` to 0 — on
one-point runs and on fused sweeps with per-row budgets, and the
per-phase profiling counters.  The cross-engine conformance matrix
(``test_engine_conformance.py``) pins the per-step body itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from conformance_registry import (
    CONFORMANCE_SAMPLERS,
    conformance_entry,
    conformance_system,
)
from repro.core.encoding import expansion_context
from repro.errors import ModelError
from repro.markov import superstep
from repro.markov.batch import (
    PROFILE_PHASES,
    BatchEngine,
    EnabledCountLegitimacy,
    batch_strategy_for,
    compile_legitimacy,
    encode_initials,
)
from repro.markov.montecarlo import (
    MonteCarloRunner,
    estimate_stabilization_time,
    random_configurations,
)
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.random_source import RandomSource


# ----------------------------------------------------------------------
# shared run helpers
# ----------------------------------------------------------------------
def _per_step(monkeypatch, run, *args, **kwargs):
    """``run(*args, **kwargs)`` with super-stepping declined."""
    with monkeypatch.context() as patch:
        patch.setattr(superstep, "SUPERSTEP_BUDGET", 0)
        return run(*args, **kwargs)


def _batch_run(
    system_name,
    sampler_key,
    seed=2024,
    trials=300,
    max_steps=400,
    legitimacy=None,
    initials=None,
):
    """One BatchEngine.run on a registry system; returns (result, state).

    The returned generator-state string lets tests assert that the
    per-step body leaves the random stream where the reference does.
    A super-stepped run draws nothing at all, while the per-step body
    draws every step even on deterministic tables, so the two states
    differ by design and only results are compared across paths.
    """
    entry = conformance_entry(system_name)
    system = conformance_system(system_name)
    engine = BatchEngine(system)
    strategy = batch_strategy_for(CONFORMANCE_SAMPLERS[sampler_key]())
    if legitimacy is None:
        legit = (
            entry.batch_legitimate
            if entry.batch_legitimate is not None
            else entry.legitimate(system)
        )
        legitimacy = compile_legitimacy(legit)
    if initials is None:
        initials = random_configurations(
            system, RandomSource(seed + 1), 16
        )
    codes = encode_initials(engine.encoding, initials, trials)
    generator = RandomSource(seed).numpy_generator()
    result = engine.run(strategy, legitimacy, codes, max_steps, generator)
    return result, str(generator.bit_generator.state)


def _assert_same_outcome(reference, candidate):
    assert np.array_equal(reference.times, candidate.times)
    assert np.array_equal(reference.converged, candidate.converged)
    assert np.array_equal(reference.hit_terminal, candidate.hit_terminal)
    assert np.array_equal(reference.timed_out, candidate.timed_out)


def test_rejection_samplers_fall_back_to_per_step_draws(monkeypatch):
    """The independent-coin strategies redraw a data-dependent number of
    uniforms and are never deterministic, so they always take the
    per-step body — results and generator state match the reference."""
    reference, ref_state = _per_step(
        monkeypatch, _batch_run, "token-ring5", "distributed"
    )
    candidate, state = _batch_run("token-ring5", "distributed")
    assert not candidate.superstepped
    _assert_same_outcome(reference, candidate)
    assert state == ref_state


# ----------------------------------------------------------------------
# rank-space super-stepping
# ----------------------------------------------------------------------
def test_superstep_engages_and_is_bit_identical(monkeypatch):
    """Deterministic synchronous cells take the rank-space path and the
    recorded first-hit times must match the per-step body exactly (the
    binary-lifting descent bisects within the last jump)."""
    candidate, _ = _batch_run("coloring-ring5", "synchronous")
    assert candidate.superstepped
    reference, _ = _per_step(
        monkeypatch, _batch_run, "coloring-ring5", "synchronous"
    )
    assert not reference.superstepped
    _assert_same_outcome(reference, candidate)
    assert candidate.converged.any()  # nontrivial first-hit recovery


def test_superstep_handles_livelock_timeouts(monkeypatch):
    """Synchronous token circulation livelocks (the paper's Theorem 1
    setting): every trial must drain its budget and time out with the
    same vectors as the per-step body."""
    candidate, _ = _batch_run("token-ring5", "synchronous", max_steps=123)
    assert candidate.superstepped
    reference, _ = _per_step(
        monkeypatch, _batch_run, "token-ring5", "synchronous", max_steps=123
    )
    _assert_same_outcome(reference, candidate)
    assert not candidate.converged.all()
    assert candidate.timed_out.any()


def test_superstep_over_budget_falls_back_to_plain_loop(monkeypatch):
    """A state budget smaller than the reachable closure must abort the
    plan and take the per-step body, with identical results."""
    assert superstep.SUPERSTEP_BUDGET > 3
    monkeypatch.setattr(superstep, "SUPERSTEP_BUDGET", 3)
    candidate, _ = _batch_run("coloring-ring5", "synchronous")
    assert not candidate.superstepped
    reference, _ = _per_step(
        monkeypatch, _batch_run, "coloring-ring5", "synchronous"
    )
    _assert_same_outcome(reference, candidate)


def test_superstep_aborts_on_central_choice(monkeypatch):
    """The central daemon on a multi-enabled start has a real scheduling
    choice, so the deterministic plan must abort during exploration and
    the stochastic per-step body must run (stream-exactly)."""
    reference, ref_state = _per_step(
        monkeypatch, _batch_run, "token-ring5", "central"
    )
    candidate, state = _batch_run("token-ring5", "central")
    assert not candidate.superstepped
    _assert_same_outcome(reference, candidate)
    assert state == ref_state


def test_superstep_central_single_enabled_run(monkeypatch):
    """A single-token ring under the central daemon is deterministic
    (exactly one enabled process at every reachable state), so the
    central eligibility check passes and the rank-space path runs."""
    system = conformance_system("token-ring5")
    engine = BatchEngine(system)
    strategy = batch_strategy_for(CONFORMANCE_SAMPLERS["central"]())
    # A legitimate (single-token) configuration; an unreachable
    # legitimacy count keeps every trial alive so the run exercises the
    # jump ladder and the timeout drain rather than retiring at t=0.
    legitimacy = EnabledCountLegitimacy(system.num_processes + 1)
    initials = random_configurations(system, RandomSource(7), 200)
    context = expansion_context(engine.tables)
    single = [
        config
        for config in initials
        if engine.tables.enabled(
            engine.tables.pack(engine.encoding.encode_batch([config]))
        ).sum()
        == 1
    ]
    assert single, "expected at least one single-enabled configuration"
    codes = encode_initials(engine.encoding, single[:4], 50)

    def run():
        return engine.run(
            strategy, legitimacy, codes, 60, RandomSource(5).numpy_generator()
        )

    result = run()
    assert result.superstepped
    _assert_same_outcome(_per_step(monkeypatch, run), result)
    assert result.timed_out.all()
    assert context.deterministic


def test_superstep_skipped_for_decoding_legitimacy(monkeypatch):
    """Decoding predicates would have to run per interned state, so the
    plan must decline and the per-step body must evaluate them."""
    system = conformance_system("coloring-ring5")
    entry = conformance_entry("coloring-ring5")
    engine = BatchEngine(system)
    strategy = batch_strategy_for(CONFORMANCE_SAMPLERS["synchronous"]())
    legitimacy = compile_legitimacy(entry.legitimate(system))  # decoding
    initials = random_configurations(system, RandomSource(11), 16)
    codes = encode_initials(engine.encoding, initials, 100)

    def run():
        return engine.run(
            strategy, legitimacy, codes, 200, RandomSource(3).numpy_generator()
        )

    result = run()
    assert not result.superstepped
    _assert_same_outcome(_per_step(monkeypatch, run), result)


def test_deterministic_successor_ranks_guards_stochastic_tables():
    """Herman's protocol tosses coins, so its tables are not
    deterministic and the successor-map compiler must refuse."""
    system = conformance_system("herman-ring5")
    engine = BatchEngine(system)
    context = expansion_context(engine.tables)
    assert not context.deterministic
    with pytest.raises(ModelError, match="deterministic"):
        context.deterministic_successor_ranks(np.arange(4, dtype=np.int64))


def test_expansion_context_memoized_on_tables():
    engine = BatchEngine(conformance_system("token-ring5"))
    assert expansion_context(engine.tables) is expansion_context(
        engine.tables
    )


# ----------------------------------------------------------------------
# super-stepping fused sweeps
# ----------------------------------------------------------------------
def _coloring_point(max_steps, seed, sampler_key="synchronous"):
    system = conformance_system("coloring-ring5")
    entry = conformance_entry("coloring-ring5")
    return SweepPointSpec(
        system=system,
        sampler=CONFORMANCE_SAMPLERS[sampler_key](),
        legitimate=entry.legitimate(system),
        trials=200,
        max_steps=max_steps,
        seed=seed,
        batch_legitimate=entry.batch_legitimate,
        label=f"coloring-{sampler_key}-{max_steps}",
    )


def _fused_run(points):
    emitted = []
    runner = SweepRunner(engine="fused")
    results = runner.run(points, sink=emitted.append)
    assert all(execution.engine == "fused" for execution in runner.last_plan)
    return results, emitted, runner.last_plan


def test_fused_sweep_supersteps_with_per_row_budgets(monkeypatch):
    """Same-system deterministic points with budgets 1, 5, 50 and 400
    fuse into one super-stepped block whose rows are bit-identical to
    the per-step body, timeouts at each point's own budget included.
    All points share one seed, hence one set of initial configurations,
    and coloring converges within two steps, so the 1-step budget
    censors rows that the larger budgets let converge."""
    points = [_coloring_point(max_steps, 41) for max_steps in (1, 5, 50, 400)]
    results, emitted, plan = _fused_run(points)
    assert all(execution.superstepped for execution in plan)
    reference, reference_emitted, reference_plan = _per_step(
        monkeypatch, _fused_run, points
    )
    assert not any(execution.superstepped for execution in reference_plan)
    assert results == reference
    for candidate, expected in zip(emitted, reference_emitted):
        _assert_same_outcome(expected, candidate)
    assert emitted[0].converged.sum() < emitted[-1].converged.sum()


def test_fused_sweep_with_stochastic_member_declines(monkeypatch):
    """One stochastic sampler in the block gives two strategy groups, so
    the whole block takes the per-step body."""
    points = [_coloring_point(50, 51), _coloring_point(50, 52, "central")]
    results, _, plan = _fused_run(points)
    assert not any(execution.superstepped for execution in plan)
    reference, _, _ = _per_step(monkeypatch, _fused_run, points)
    assert results == reference


# ----------------------------------------------------------------------
# per-phase profiling counters
# ----------------------------------------------------------------------
def test_profile_counters_on_per_step_path():
    engine = BatchEngine(conformance_system("token-ring5"))
    strategy = batch_strategy_for(CONFORMANCE_SAMPLERS["central"]())
    entry = conformance_entry("token-ring5")
    initials = random_configurations(
        conformance_system("token-ring5"), RandomSource(21), 8
    )
    codes = encode_initials(engine.encoding, initials, 100)
    result = engine.run(
        strategy,
        compile_legitimacy(entry.batch_legitimate),
        codes,
        200,
        RandomSource(9).numpy_generator(),
        profile=True,
    )
    assert result.profile is not None
    assert set(PROFILE_PHASES) <= set(result.profile)
    assert all(value >= 0.0 for value in result.profile.values())
    assert sum(result.profile.values()) > 0.0


def test_profile_counters_on_superstep_path():
    engine = BatchEngine(conformance_system("coloring-ring5"))
    strategy = batch_strategy_for(CONFORMANCE_SAMPLERS["synchronous"]())
    entry = conformance_entry("coloring-ring5")
    initials = random_configurations(
        conformance_system("coloring-ring5"), RandomSource(22), 8
    )
    codes = encode_initials(engine.encoding, initials, 100)
    result = engine.run(
        strategy,
        compile_legitimacy(entry.batch_legitimate),
        codes,
        200,
        RandomSource(9).numpy_generator(),
        profile=True,
    )
    assert result.profile is not None
    assert "superstep_build" in result.profile
    assert "superstep_execute" in result.profile


def test_unprofiled_run_has_no_profile():
    result, _ = _batch_run("token-ring5", "central", trials=50)
    assert result.profile is None


def test_batch_engine_run_rejects_unknown_backend():
    """There is one lockstep loop and no step-backend option: passing
    ``backend=`` is an error, not a silently ignored knob."""
    engine = BatchEngine(conformance_system("token-ring5"))
    strategy = batch_strategy_for(CONFORMANCE_SAMPLERS["central"]())
    codes = encode_initials(
        engine.encoding,
        random_configurations(
            conformance_system("token-ring5"), RandomSource(1), 4
        ),
        10,
    )
    with pytest.raises(TypeError, match="backend"):
        engine.run(
            strategy,
            compile_legitimacy(EnabledCountLegitimacy(1)),
            codes,
            10,
            RandomSource(1).numpy_generator(),
            backend="numpy",
        )


def test_unknown_backend_name_raises():
    """No layer takes a step-backend option: the runners and
    ``estimate_stabilization_time`` reject ``backend=`` outright."""
    system = conformance_system("token-ring5")
    entry = conformance_entry("token-ring5")
    with pytest.raises(TypeError, match="backend"):
        MonteCarloRunner(system, backend="numpy")
    with pytest.raises(TypeError, match="backend"):
        SweepRunner(backend="numpy")
    with pytest.raises(TypeError, match="backend"):
        estimate_stabilization_time(
            system,
            CONFORMANCE_SAMPLERS["central"](),
            entry.legitimate(system),
            trials=1,
            max_steps=1,
            rng=RandomSource(1),
            backend="numpy",
        )
