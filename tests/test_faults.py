"""Fault-injection tier: plan validation, seeded determinism, the
three-engine equivalence contract, and the re-convergence metrics.

The broad engine sweep lives in the conformance matrix's fault axis
(``tests/test_engine_conformance.py``); this module covers the fault
machinery itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.errors import MarkovError, ModelError
from repro.markov.batch import EnabledCountLegitimacy
from repro.markov.montecarlo import (
    MonteCarloResult,
    MonteCarloRunner,
    random_configurations,
)
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.random_source import RandomSource
from repro.schedulers.samplers import (
    CentralRandomizedSampler,
    SynchronousSampler,
)
from repro.stabilization.faults import FAULT_MODES, FaultPlan, compile_fault

from conformance_registry import ks_bound, ks_statistic

TOKEN_LEGITIMACY = EnabledCountLegitimacy(1)


def _token_predicate(system):
    spec = TokenCirculationSpec()
    return lambda configuration: spec.legitimate(system, configuration)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_fault_plan_rejects_nonpositive_processes():
    with pytest.raises(ModelError, match="at least one process"):
        FaultPlan(processes=0)


def test_fault_plan_rejects_negative_step():
    with pytest.raises(ModelError, match="step"):
        FaultPlan(processes=1, step=-1)


def test_fault_plan_rejects_unknown_mode():
    with pytest.raises(ModelError, match="random") as excinfo:
        FaultPlan(processes=1, mode="bitflip")
    # The message lists the legal modes.
    for mode in FAULT_MODES:
        assert mode in str(excinfo.value)


def test_fault_plan_rejects_negative_stuck_at_value():
    with pytest.raises(ModelError, match="stuck-at"):
        FaultPlan(processes=1, mode="stuck-at", value=-3)


def test_compile_fault_rejects_too_many_victims():
    system = make_token_ring_system(4)
    plan = FaultPlan(processes=5)
    with pytest.raises(ModelError, match="only"):
        compile_fault(plan, system, trials=10)


def test_compile_fault_rejects_oversized_stuck_at_value():
    system = make_token_ring_system(4)  # m_4 = 3: local codes 0..2
    plan = FaultPlan(processes=1, mode="stuck-at", value=99)
    with pytest.raises(ModelError, match="stuck-at"):
        compile_fault(plan, system, trials=10)


def test_compile_fault_rejects_nonpositive_trials():
    system = make_token_ring_system(4)
    with pytest.raises(ModelError, match="trial"):
        compile_fault(FaultPlan(processes=1), system, trials=0)


def test_enabled_count_legitimacy_rejects_negative_count():
    with pytest.raises(MarkovError, match="non-negative"):
        EnabledCountLegitimacy(-1)


def test_sweep_spec_rejects_non_fault_plan():
    system = make_token_ring_system(4)
    point = SweepPointSpec(
        system=system,
        sampler=CentralRandomizedSampler(),
        legitimate=_token_predicate(system),
        trials=5,
        max_steps=100,
        seed=1,
        batch_legitimate=TOKEN_LEGITIMACY,
        fault={"processes": 1},
    )
    with pytest.raises(MarkovError, match="FaultPlan"):
        SweepRunner().run([point])


def test_measuring_rounds_with_fault_is_rejected():
    system = make_token_ring_system(4)
    runner = MonteCarloRunner(system)
    with pytest.raises(MarkovError, match="round"):
        runner.estimate(
            sampler=CentralRandomizedSampler(),
            legitimate=_token_predicate(system),
            trials=5,
            max_steps=100,
            rng=RandomSource(1),
            measure_rounds=True,
            fault=FaultPlan(processes=1),
        )


# ----------------------------------------------------------------------
# seeded determinism of the compiled plan
# ----------------------------------------------------------------------
def test_compiled_fault_is_seed_deterministic():
    system = make_token_ring_system(6)
    plan = FaultPlan(processes=2, mode="random", seed=77)
    one = compile_fault(plan, system, trials=50)
    two = compile_fault(plan, system, trials=50)
    assert (one.targets == two.targets).all()
    assert (one.codes == two.codes).all()
    other = compile_fault(
        FaultPlan(processes=2, mode="random", seed=78), system, trials=50
    )
    assert not (
        (one.targets == other.targets).all()
        and (one.codes == other.codes).all()
    )


def test_compiled_fault_victims_are_sorted_and_distinct():
    system = make_token_ring_system(6)
    fault = compile_fault(FaultPlan(processes=3, seed=5), system, trials=20)
    for row in fault.targets:
        assert sorted(set(row.tolist())) == row.tolist()


def test_stuck_at_codes_are_constant():
    system = make_token_ring_system(6)
    fault = compile_fault(
        FaultPlan(processes=2, mode="stuck-at", value=1, seed=5),
        system,
        trials=20,
    )
    assert (fault.codes == 1).all()


# ----------------------------------------------------------------------
# engine equivalence under faults
# ----------------------------------------------------------------------
def _fault_point(system, sampler, plan, trials, seed, initials=None):
    return SweepPointSpec(
        system=system,
        sampler=sampler,
        legitimate=_token_predicate(system),
        trials=trials,
        max_steps=2_000,
        seed=seed,
        batch_legitimate=TOKEN_LEGITIMACY,
        initial_configurations=initials,
        fault=plan,
    )


@pytest.mark.parametrize(
    "plan",
    [
        FaultPlan(processes=1, mode="random", seed=3),
        FaultPlan(processes=2, step=9, mode="adversarial-reset", seed=3),
        FaultPlan(processes=2, step=0, mode="stuck-at", value=1, seed=3),
    ],
    ids=["conv-random", "step-reset", "step0-stuck"],
)
def test_engines_bit_identical_on_deterministic_cell(plan):
    """Synchronous token ring with explicit initials is deterministic:
    all three engines must produce the *same* fault-injected result."""
    system = make_token_ring_system(5)
    initials = tuple(
        random_configurations(system, RandomSource(13), 40)
    )
    results = {}
    for engine in ("scalar", "batch", "fused"):
        point = _fault_point(
            system, SynchronousSampler(), plan, 40, 13, initials
        )
        runner = SweepRunner(engine=engine)
        (results[engine],) = runner.run([point])
        assert runner.last_plan[0].engine == engine
    assert results["scalar"] == results["batch"] == results["fused"]
    assert isinstance(results["scalar"], MonteCarloResult)


def test_engines_ks_equivalent_on_stochastic_cell():
    system = make_token_ring_system(6)
    plan = FaultPlan(processes=2, mode="random", seed=21)
    results = {}
    for engine, seed in (("scalar", 31), ("batch", 32), ("fused", 33)):
        point = _fault_point(
            system, CentralRandomizedSampler(), plan, 300, seed
        )
        (results[engine],) = SweepRunner(engine=engine).run([point])
    for name in ("batch", "fused"):
        for metric in ("samples", "recovery_samples"):
            a = getattr(results["scalar"], metric)
            b = getattr(results[name], metric)
            assert ks_statistic(a, b) < ks_bound(len(a), len(b))


# ----------------------------------------------------------------------
# re-convergence metrics & timeout accounting
# ----------------------------------------------------------------------
def test_at_convergence_fault_fires_on_every_trial():
    system = make_token_ring_system(5)
    runner = MonteCarloRunner(system)
    result = runner.estimate(
        sampler=CentralRandomizedSampler(),
        legitimate=_token_predicate(system),
        trials=100,
        max_steps=5_000,
        rng=RandomSource(8),
        batch_legitimate=TOKEN_LEGITIMACY,
        fault=FaultPlan(processes=2, mode="random", seed=4),
    )
    assert result.faulted == result.trials == 100
    assert result.converged == 100
    assert result.recovery_samples is not None
    assert len(result.recovery_samples) == 100
    assert result.recovery_stats is not None
    assert all(t >= 0 for t in result.recovery_samples)
    assert 0.0 < result.availability <= 1.0
    assert result.max_excursion >= 1


def test_recovery_times_are_total_minus_fault_step():
    """A step-0 fault makes recovery times equal total times."""
    system = make_token_ring_system(5)
    runner = MonteCarloRunner(system)
    result = runner.estimate(
        sampler=CentralRandomizedSampler(),
        legitimate=_token_predicate(system),
        trials=60,
        max_steps=5_000,
        rng=RandomSource(9),
        batch_legitimate=TOKEN_LEGITIMACY,
        fault=FaultPlan(processes=1, step=0, mode="random", seed=4),
    )
    assert result.faulted == 60
    assert result.recovery_samples == result.samples


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_timeout_rate_counts_budget_exhaustion(engine):
    system = make_token_ring_system(6)
    runner = MonteCarloRunner(system)
    result = runner.estimate(
        sampler=CentralRandomizedSampler(),
        legitimate=_token_predicate(system),
        trials=50,
        max_steps=1,
        rng=RandomSource(10),
        engine=engine,
        batch_legitimate=TOKEN_LEGITIMACY,
    )
    assert result.timed_out == result.censored == 50 - result.converged
    assert result.timed_out > 0
    assert result.timeout_rate == result.timed_out / 50
    assert result.row()["timeout_rate"] == round(result.timeout_rate, 4)


def test_timeout_rate_zero_on_generous_budget():
    system = make_token_ring_system(5)
    runner = MonteCarloRunner(system)
    result = runner.estimate(
        sampler=CentralRandomizedSampler(),
        legitimate=_token_predicate(system),
        trials=40,
        max_steps=50_000,
        rng=RandomSource(11),
        batch_legitimate=TOKEN_LEGITIMACY,
    )
    assert result.timed_out == 0
    assert result.timeout_rate == 0.0
    assert result.row()["timeout_rate"] == 0.0
