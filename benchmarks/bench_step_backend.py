"""Micro-benchmark of the lockstep loop on a deterministic point.

``step_ring30_100k_sync_plain`` times one 100 000-trial deterministic
synchronous sweep point (token circulation on a 30-ring, 64 tiled
initial configurations, 120-step budget) through
:meth:`repro.markov.batch.BatchEngine.lockstep`.  The point is
expensive by construction, so it runs a single round.
"""

from repro.algorithms.token_ring import make_token_ring_system
from repro.markov.batch import (
    BatchEngine,
    EnabledCountLegitimacy,
    batch_strategy_for,
    compile_legitimacy,
    encode_initials,
)
from repro.markov.montecarlo import random_configurations
from repro.random_source import RandomSource
from repro.schedulers.samplers import SynchronousSampler

TRIALS = 100_000
MAX_STEPS = 120
INITIALS = 64


def _point(seed=2026):
    system = make_token_ring_system(30)
    engine = BatchEngine(system)
    strategy = batch_strategy_for(SynchronousSampler())
    legitimacy = compile_legitimacy(EnabledCountLegitimacy(1))
    initials = random_configurations(
        system, RandomSource(seed + 1), INITIALS
    )
    codes = encode_initials(engine.encoding, initials, TRIALS)
    return engine, strategy, legitimacy, codes


POINT = _point()


def _run(seed=2026):
    engine, strategy, legitimacy, codes = POINT
    return engine.run(
        strategy,
        legitimacy,
        codes,
        MAX_STEPS,
        RandomSource(seed).numpy_generator(),
    )


def test_step_ring30_100k_sync_plain(benchmark):
    """The lockstep loop on the headline point."""
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert result.times.size == TRIALS
