"""The one lockstep loop on deterministic tables, its expansion
context, and its per-phase profiling counters.

:meth:`repro.markov.batch.BatchEngine.lockstep` has one body.  On
deterministic tables under the synchronous daemon a trial's path is a
function of its initial configuration, so the lockstep runs (one-point
and fused with per-row budgets) must equal the scalar trial loop of
:class:`~repro.markov.montecarlo.MonteCarloRunner` bit for bit, the
livelock timeouts of Theorem 1's setting included.  The cross-engine
conformance matrix (``test_engine_conformance.py``) pins the stochastic
cells.
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
    random_configurations,
)
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.random_source import RandomSource


def _assert_same_outcome(reference, candidate):
    assert np.array_equal(reference.times, candidate.times)
    assert np.array_equal(reference.converged, candidate.converged)
    assert np.array_equal(reference.hit_terminal, candidate.hit_terminal)
    assert np.array_equal(reference.timed_out, candidate.timed_out)


# ----------------------------------------------------------------------
# deterministic tables: the lockstep loop equals the scalar trial loop
# ----------------------------------------------------------------------
def _coloring_point(max_steps, seed):
    system = conformance_system("coloring-ring5")
    entry = conformance_entry("coloring-ring5")
    # Explicit initials: the scalar loop draws each trial's start from
    # the point's stream between its step draws, the lockstep loop
    # draws them all up front.
    initials = random_configurations(system, RandomSource(seed), 200)
    return SweepPointSpec(
        system=system,
        sampler=CONFORMANCE_SAMPLERS["synchronous"](),
        legitimate=entry.legitimate(system),
        trials=200,
        max_steps=max_steps,
        seed=seed,
        batch_legitimate=entry.batch_legitimate,
        initial_configurations=tuple(initials),
        label=f"coloring-synchronous-{max_steps}",
    )


def _sweep(engine, points):
    emitted = []
    runner = SweepRunner(engine=engine)
    results = runner.run(points, sink=emitted.append)
    assert all(execution.engine == engine for execution in runner.last_plan)
    return results, emitted


def test_fused_sweep_per_row_budgets_equal_scalar_points():
    """Same-system synchronous coloring points with budgets 1, 5, 50 and
    400 fuse into one block whose rows equal per-point scalar runs of
    the same seeds bit for bit, timeouts at each point's own budget
    included (the tables are deterministic, so the draws cannot move a
    trial).  All points share one seed and one set of initial
    configurations, and coloring converges within two steps, so the
    1-step budget censors rows that the larger budgets let converge."""
    points = [_coloring_point(max_steps, 41) for max_steps in (1, 5, 50, 400)]
    results, emitted = _sweep("fused", points)
    reference, reference_emitted = _sweep("scalar", points)
    assert results == reference
    for candidate, expected in zip(emitted, reference_emitted):
        _assert_same_outcome(expected, candidate)
    assert emitted[0].converged.sum() < emitted[-1].converged.sum()
    assert emitted[0].timed_out.any()


def test_synchronous_livelock_times_out_like_scalar_loop():
    """Synchronous token circulation livelocks (the paper's Theorem 1
    setting): the lockstep run drains each trial's 123-step budget and
    times out exactly where the scalar trial loop does."""
    system = conformance_system("token-ring5")
    entry = conformance_entry("token-ring5")
    initials = random_configurations(system, RandomSource(2025), 16)

    def run(engine):
        emitted = []
        MonteCarloRunner(system).estimate(
            CONFORMANCE_SAMPLERS["synchronous"](),
            entry.legitimate(system),
            trials=300,
            max_steps=123,
            rng=RandomSource(2024),
            initial_configurations=initials,
            engine=engine,
            batch_legitimate=entry.batch_legitimate,
            sink=emitted.append,
        )
        (outcome,) = emitted
        return outcome

    candidate = run("batch")
    _assert_same_outcome(run("scalar"), candidate)
    assert not candidate.converged.all()
    assert candidate.timed_out.any()


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
# per-phase profiling counters
# ----------------------------------------------------------------------
def _central_run(profile):
    engine = BatchEngine(conformance_system("token-ring5"))
    strategy = batch_strategy_for(CONFORMANCE_SAMPLERS["central"]())
    entry = conformance_entry("token-ring5")
    initials = random_configurations(
        conformance_system("token-ring5"), RandomSource(21), 8
    )
    codes = encode_initials(engine.encoding, initials, 100)
    return engine.run(
        strategy,
        compile_legitimacy(entry.batch_legitimate),
        codes,
        200,
        RandomSource(9).numpy_generator(),
        profile=profile,
    )


def test_profile_counters_on_per_step_path():
    result = _central_run(profile=True)
    assert result.profile is not None
    assert set(result.profile) == set(PROFILE_PHASES)
    assert all(value >= 0.0 for value in result.profile.values())
    assert sum(result.profile.values()) > 0.0


def test_unprofiled_run_has_no_profile():
    assert _central_run(profile=False).profile is None


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
    ``MonteCarloRunner.estimate`` reject ``backend=`` outright."""
    system = conformance_system("token-ring5")
    entry = conformance_entry("token-ring5")
    with pytest.raises(TypeError, match="backend"):
        MonteCarloRunner(system, backend="numpy")
    with pytest.raises(TypeError, match="backend"):
        SweepRunner(backend="numpy")
    with pytest.raises(TypeError, match="backend"):
        MonteCarloRunner(system).estimate(
            CONFORMANCE_SAMPLERS["central"](),
            entry.legitimate(system),
            trials=1,
            max_steps=1,
            rng=RandomSource(1),
            backend="numpy",
        )
