"""Micro-benchmarks of the vectorized Monte-Carlo batch engine.

The trajectory pair to watch is ``montecarlo_ring30_1000trials_scalar``
vs ``..._batch``: the same 1000-trial sweep point (Algorithm 1 on a
30-ring, distributed randomized scheduler) through the per-trial scalar
``System`` path and through the lockstep code-matrix engine.  The acceptance
bar for PR 2 is a ≥ 5× mean speedup.  ``q1_preset_n40_batch`` proves a
previously out-of-budget large-N experiment preset completes under the
harness.  ``trans_ring50_sync_1000trials_batch`` is a coin-flip point,
so it times the lockstep step itself: mover-only draws and uint32
column-wise key packing; ``trans_ring10_sync_100trials_batch`` is the
same shape at the size of a served sweep request, where the fixed
per-step cost (one retirement per step) shows.
"""

from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.core.encoding import expansion_context, tables_for
from repro.experiments.q1 import run_q1
from repro.markov.batch import EnabledCountLegitimacy
from repro.markov.montecarlo import MonteCarloRunner
from repro.random_source import RandomSource
from repro.schedulers.samplers import (
    DistributedRandomizedSampler,
    SynchronousSampler,
)
from repro.transformer.coin_toss import (
    TransformedSpec,
    make_transformed_system,
)

TRIALS = 1000
MAX_STEPS = 50_000


def _ring30_estimate(engine: str):
    system = make_token_ring_system(30)
    spec = TokenCirculationSpec()
    return MonteCarloRunner(system).estimate(
        DistributedRandomizedSampler(),
        lambda c: spec.legitimate(system, c),
        trials=TRIALS,
        max_steps=MAX_STEPS,
        rng=RandomSource(2026),
        engine=engine,
        batch_legitimate=EnabledCountLegitimacy(1),
    )


def test_montecarlo_ring30_1000trials_scalar(benchmark):
    """Baseline: per-trial scalar loop over the system."""
    result = benchmark.pedantic(
        lambda: _ring30_estimate("scalar"), rounds=2, iterations=1
    )
    assert result.censored == 0


def test_montecarlo_ring30_1000trials_batch(benchmark):
    """Same sweep point through the lockstep code-matrix engine."""
    result = benchmark.pedantic(
        lambda: _ring30_estimate("batch"), rounds=3, iterations=1
    )
    assert result.censored == 0


def test_q1_preset_n40_batch(benchmark):
    """A Q1 Monte-Carlo point at N = 40 — out of budget before PR 2."""

    def run():
        return run_q1(
            exact_sizes=(),
            monte_carlo_sizes=(40,),
            trials=200,
            engine="batch",
        )

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.passed, result.render()


def _trans_ring_sync(benchmark, n: int, trials: int, rounds: int):
    """Time one coin-flip point: the coin-toss transformed ring of size
    ``n`` under the synchronous sampler through the per-step lockstep
    body (tables compiled once, outside the timed rounds)."""
    base = make_token_ring_system(n)
    system = make_transformed_system(base)
    spec = TransformedSpec(TokenCirculationSpec(), base)
    runner = MonteCarloRunner(system)
    # Coin flips: the tables are not deterministic.
    assert not expansion_context(tables_for(system)).deterministic

    def run():
        return runner.estimate(
            SynchronousSampler(),
            lambda c: spec.legitimate(system, c),
            trials=trials,
            max_steps=200_000,
            rng=RandomSource(2026),
            engine="batch",
            batch_legitimate=EnabledCountLegitimacy(1),
        )

    result = benchmark.pedantic(run, rounds=rounds, iterations=1)
    assert result.censored == 0


def test_trans_ring50_sync_1000trials_batch(benchmark):
    """Q1's Monte-Carlo shape at N = 50, 1000 trials."""
    _trans_ring_sync(benchmark, 50, TRIALS, rounds=2)


def test_trans_ring10_sync_100trials_batch(benchmark):
    """A small batch, the size of a served sweep request: the per-step
    interpreter overhead of the lockstep body, not its array work,
    dominates here."""
    _trans_ring_sync(benchmark, 10, 100, rounds=20)
