"""Micro-benchmark of rank-space super-stepping in the lockstep loop.

The trajectory pair to watch is ``step_ring30_100k_sync_superstep`` vs
``..._plain``: the same 100 000-trial deterministic synchronous sweep
point (token circulation on a 30-ring, 64 tiled initial configurations)
through rank-space super-stepping and through the per-step body of
:meth:`repro.markov.batch.BatchEngine.lockstep`, which the plain side
forces by setting :data:`repro.markov.superstep.SUPERSTEP_BUDGET` to 0.
The super-step path is orders of magnitude faster because the interned
closure is tiny relative to ``trials × steps``.

The plain side is expensive by construction (it is the thing being
beaten), so it runs a single round.
"""

from repro.algorithms.token_ring import make_token_ring_system
from repro.markov import superstep
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


def test_step_ring30_100k_sync_plain(benchmark, monkeypatch):
    """The per-step body on the headline point (super-stepping declined)."""
    monkeypatch.setattr(superstep, "SUPERSTEP_BUDGET", 0)
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert not result.superstepped
    assert result.times.size == TRIALS


def test_step_ring30_100k_sync_superstep(benchmark):
    """Same point through rank-space super-stepping."""
    result = benchmark.pedantic(_run, rounds=3, iterations=1)
    assert result.superstepped, "super-stepping did not engage"
    assert result.times.size == TRIALS
