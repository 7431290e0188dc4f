"""Micro-benchmarks of the fault-injection path (robustness tier).

``batch30_plain`` vs ``batch30_with_fault`` run the *same* lockstep
workload — a 30-process token ring, 1024 trials, a fixed 64-step budget
under the central randomized strategy, with a legitimacy that never
holds (``EnabledCountLegitimacy(0)``; the ring always has an enabled
process) so no trial retires early and both loops process identical row
counts every step.  The only difference is the fault pipeline: the
step-0 scatter plus the per-step availability/excursion bookkeeping.

The acceptance bar is that the fault path costs **< 5 %** over the
plain lockstep loop (``test_fault_scatter_overhead_under_5_percent``,
min-of-9 wall clock so scheduler noise cannot fail the gate spuriously
— asserted here rather than left to the trajectory JSON because the
whole point of the one-extra-scatter design is that robustness sweeps
are not a slower tier).
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms.token_ring import make_token_ring_system
from repro.markov.batch import (
    BatchEngine,
    EnabledCountLegitimacy,
    batch_strategy_for,
)
from repro.schedulers.samplers import CentralRandomizedSampler
from repro.stabilization.faults import FaultPlan, compile_fault

RING_SIZE = 30
TRIALS = 1024
MAX_STEPS = 64
OVERHEAD_BUDGET = 0.05

#: Never true on a token ring (some process is always enabled): every
#: trial runs the full budget, so both loops do identical-shape work.
NEVER_LEGITIMATE = EnabledCountLegitimacy(0)

_SYSTEM = make_token_ring_system(RING_SIZE)
_ENGINE = BatchEngine(_SYSTEM)
_STRATEGY = batch_strategy_for(CentralRandomizedSampler())
_FAULT = compile_fault(
    FaultPlan(processes=2, step=0, mode="random", seed=9), _SYSTEM, TRIALS
)
_INITIAL = np.random.default_rng(7).integers(
    0, _ENGINE.encoding.sizes[np.newaxis, :], size=(TRIALS, RING_SIZE)
)


def _run_plain():
    return _ENGINE.run(
        _STRATEGY,
        NEVER_LEGITIMATE,
        _INITIAL,
        MAX_STEPS,
        np.random.default_rng(21),
    )


def _run_with_fault():
    return _ENGINE.run_with_fault(
        _STRATEGY,
        NEVER_LEGITIMATE,
        _INITIAL,
        MAX_STEPS,
        np.random.default_rng(21),
        _FAULT,
    )


def test_batch30_plain(benchmark):
    """Baseline: the plain lockstep loop, full budget, no retirements."""
    result = benchmark.pedantic(_run_plain, rounds=3, iterations=1)
    assert result.converged.sum() == 0


def test_batch30_with_fault(benchmark):
    """Same workload through the fault pipeline (scatter + bookkeeping)."""
    result = benchmark.pedantic(_run_with_fault, rounds=3, iterations=1)
    assert result.converged.sum() == 0
    assert (result.fault_times == 0).all()


def _paired_min_seconds(repetitions: int = 11) -> tuple[float, float]:
    """Interleaved min-of-N for both loops: alternating the two runs
    within one loop means machine-load drift hits both measurements
    equally instead of biasing whichever block ran during a busy spell."""
    best_plain = best_fault = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        _run_plain()
        middle = time.perf_counter()
        _run_with_fault()
        end = time.perf_counter()
        best_plain = min(best_plain, middle - start)
        best_fault = min(best_fault, end - middle)
    return best_plain, best_fault


def test_fault_scatter_overhead_under_5_percent():
    """The robustness acceptance gate: fault injection on a ring-30
    batch point costs less than 5 % over the identical plain run."""
    _run_plain()  # warm the tables and the allocator
    _run_with_fault()
    # Best of three independent paired blocks: a busy spell can only
    # *inflate* a block's ratio, so the minimum is the estimate least
    # corrupted by background load.
    measurements = [_paired_min_seconds() for _ in range(3)]
    plain, faulted = min(measurements, key=lambda pair: pair[1] / pair[0])
    overhead = faulted / plain - 1.0
    assert overhead < OVERHEAD_BUDGET, (
        f"fault pipeline overhead {overhead:.1%} exceeds"
        f" {OVERHEAD_BUDGET:.0%} (plain {plain * 1000:.2f} ms,"
        f" faulted {faulted * 1000:.2f} ms)"
    )
