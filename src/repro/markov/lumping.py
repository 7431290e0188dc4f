"""Lumped analysis of coin-toss transformed systems.

A system transformed with ``Trans(A) :: G_A → B ← Rand(true,false); if B
then S_A`` and run under the **synchronous** scheduler behaves, projected
onto the original (D-) variables, like the *original* system driven by a
Bernoulli(½) daemon: every enabled process applies its statement
independently with probability ½, and the all-lose draw is a self-loop.

The projection is exact (strong lumpability): guards do not read ``B``,
the coin is fresh in every step, and the next D-state depends only on the
current D-state and on who won the toss.  This lets us analyze transformed
systems on the *original* configuration space — a factor ``2^N`` smaller —
and is cross-validated against the full transformed chain in the tests.
"""

from __future__ import annotations

from repro.core.system import System
from repro.markov.builder import build_chain
from repro.markov.chain import MarkovChain
from repro.schedulers.distributions import BernoulliDistribution

__all__ = ["lumped_synchronous_transformed_chain"]


def lumped_synchronous_transformed_chain(
    base_system: System,
    win_probability: float = 0.5,
) -> MarkovChain:
    """Chain of the *transformed* system under the synchronous scheduler,
    expressed on the *base* system's configuration space.

    One chain step corresponds to one synchronous round of the transformed
    system, so expected hitting times are directly comparable with the
    full transformed chain built by
    :func:`repro.markov.builder.build_chain` +
    :class:`repro.schedulers.distributions.SynchronousDistribution`.
    ``win_probability`` matches the transformer's coin bias (½ in the
    paper).  The chain covers the whole base configuration space and is
    built by :func:`repro.markov.builder.build_chain` (the Bernoulli
    daemon takes the compiled builder's array layer over the compiled
    tables).
    """
    daemon = BernoulliDistribution(
        probability=win_probability, include_empty=True
    )
    return build_chain(base_system, daemon)
