"""Micro-benchmarks of the fused multi-point sweep engine (PR 5).

The trajectory pair to watch is ``sweep8_perpoint_batch`` vs
``sweep8_fused``: the same Q1-style 8-point sweep (seed replications of
trans(Algorithm 1) on a 12-ring under the synchronous sampler, 120
trials per point) executed as eight ``engine="batch"`` estimates — one
lockstep loop per point over the shared cached tables — and as one
fused ``(960 × 12)`` code matrix with per-row point ids and budgets.
The fused run is expected to be at least 3× faster in the mean; the
win is interpreter-overhead amortization over the long
convergence tail (m_12 = 5 makes the tail long), which per-point
engines pay once per point per step.

``sweep8_scalar_oracle`` is *not* benchmarked (it is two orders of
magnitude slower); the distributional agreement of all three paths is
asserted by ``pytest -m conformance``.
"""

from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.markov.batch import EnabledCountLegitimacy
from repro.markov.montecarlo import MonteCarloRunner
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.random_source import RandomSource
from repro.schedulers.samplers import SynchronousSampler
from repro.transformer.coin_toss import TransformedSpec, make_transformed_system

RING_SIZE = 12
POINTS = 8
TRIALS = 120
MAX_STEPS = 200_000
TOKEN_LEGITIMACY = EnabledCountLegitimacy(1)

_BASE = make_token_ring_system(RING_SIZE)
_SYSTEM = make_transformed_system(_BASE)
_TSPEC = TransformedSpec(TokenCirculationSpec(), _BASE)


def _legitimate(configuration):
    return _TSPEC.legitimate(_SYSTEM, configuration)


def _specs():
    return [
        SweepPointSpec(
            system=_SYSTEM,
            sampler=SynchronousSampler(),
            legitimate=_legitimate,
            trials=TRIALS,
            max_steps=MAX_STEPS,
            seed=100 + replication,
            batch_legitimate=TOKEN_LEGITIMACY,
            label=f"replication-{replication}",
        )
        for replication in range(POINTS)
    ]


def _run_perpoint():
    """One ``engine="batch"`` estimate, one lockstep loop, per point."""
    results = []
    for spec in _specs():
        runner = MonteCarloRunner(_SYSTEM)
        results.append(
            runner.estimate(
                spec.sampler,
                spec.legitimate,
                trials=spec.trials,
                max_steps=spec.max_steps,
                rng=RandomSource(spec.seed),
                engine="batch",
                batch_legitimate=spec.batch_legitimate,
            )
        )
    return results


def _run_fused():
    return SweepRunner(engine="fused").run(_specs())


def test_sweep8_perpoint_batch(benchmark):
    """Baseline: eight independent batch engines, one per sweep point."""
    results = benchmark.pedantic(_run_perpoint, rounds=2, iterations=1)
    assert sum(result.censored for result in results) == 0


def test_sweep8_fused(benchmark):
    """Same sweep as one fused code matrix over shared tables."""
    results = benchmark.pedantic(_run_fused, rounds=3, iterations=1)
    assert sum(result.censored for result in results) == 0
