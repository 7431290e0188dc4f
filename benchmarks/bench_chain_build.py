"""Micro-benchmarks of the compiled chain pipeline.

Splits the `test_markov_solve_ring6` composite into its stages so the
trajectory file shows where time goes: chain build (compiled wire format
vs the scalar dict-walk oracle), the coin-flip chains of the compiled
builder's array layer (the Bernoulli lumped chain and the transformed
ring under the distributed daemon), and the hitting solve alone
(array-direct solvers + cached transient factorization).
"""

from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.markov.builder import build_chain
from repro.markov.hitting import hitting_summary
from repro.markov.lumping import lumped_synchronous_transformed_chain
from repro.schedulers.distributions import (
    CentralRandomizedDistribution,
    DistributedRandomizedDistribution,
)
from repro.transformer.coin_toss import make_transformed_system


def test_chain_build_ring6_compiled(benchmark):
    """Compiled wire-format build of the 4096-state central chain."""
    system = make_token_ring_system(6)

    def build():
        return build_chain(
            system, CentralRandomizedDistribution(), engine="compiled"
        )

    chain = benchmark.pedantic(build, rounds=3, iterations=1)
    assert chain.num_states == 4096


def test_chain_build_ring6_scalar(benchmark):
    """The dict-walk oracle on the same chain (the PR 4 speedup base)."""
    system = make_token_ring_system(6)

    def build():
        return build_chain(
            system, CentralRandomizedDistribution(), engine="scalar"
        )

    chain = benchmark.pedantic(build, rounds=3, iterations=1)
    assert chain.num_states == 4096


def test_chain_build_lumped_ring6_bernoulli(benchmark):
    """Bernoulli(½) lumped chain on the 6-ring: the compiled builder's
    array layer with one subset plan per enabled count."""
    system = make_token_ring_system(6)

    def build():
        return lumped_synchronous_transformed_chain(system)

    chain = benchmark.pedantic(build, rounds=3, iterations=1)
    assert chain.num_states == 4096


def test_chain_build_trans_ring5_distributed(benchmark):
    """The coin-toss transformed 5-ring under the distributed randomized
    daemon: every move is a coin flip (two outcomes), expanded by the
    array layer over all ``2^k − 1`` subsets."""
    system = make_transformed_system(make_token_ring_system(5))

    def build():
        return build_chain(
            system, DistributedRandomizedDistribution(), engine="compiled"
        )

    chain = benchmark.pedantic(build, rounds=3, iterations=1)
    assert chain.num_states == 1024


def test_chain_solve_ring6_hitting(benchmark):
    """Hitting solve alone on a fresh 4096-state chain per round (a fresh
    chain defeats the transient-LU cache, so the factorization cost is
    measured, not amortized away).  The 4072-state transient block is
    sparse, so the shared structure policy factors it with SuperLU in
    its NATURAL order, and both solves check their residual."""
    system = make_token_ring_system(6)
    spec = TokenCirculationSpec()

    def fresh_chain():
        chain = build_chain(system, CentralRandomizedDistribution())
        return (chain, chain.mark(spec.legitimate)), {}

    def solve(chain, target):
        return hitting_summary(chain, target)

    summary = benchmark.pedantic(
        solve, setup=fresh_chain, rounds=3, iterations=1
    )
    assert summary.converges_with_probability_one
