"""Exploration benchmarks: the compiled explorer against its oracle.

One ring-N exploration point (Algorithm 1 on a 10-ring, central daemon:
59049 configurations, 393660 edges) measured with the FIFO dict walk —
the oracle and fallback — and with the compiled explorer, the support
view of the chain builder's expander, so ``BENCH_kernel.json`` records
the compiled speedup next to the other hot paths.  The point names keep
their historical ``shards1`` suffix so the trajectory stays continuous.
A ring-6 distributed-daemon point (4096 configurations, 113552 subset
edges) measures the distributed plan in the array layer.  The compiled
explorer's equality with the dict walk is asserted on the benchmark
point — a benchmark that drifted semantically would be worthless.
"""

from repro.algorithms.token_ring import make_token_ring_system
from repro.schedulers.relations import CentralRelation, DistributedRelation
from repro.stabilization.statespace import StateSpace

RING_SIZE = 10
EXPECTED_CONFIGURATIONS = 59049
EXPECTED_EDGES = 393660


def test_explore_ring10_dict_walk(benchmark):
    """The dict-walk oracle: the baseline the compiled explorer beats."""
    system = make_token_ring_system(RING_SIZE)
    space = benchmark.pedantic(
        lambda: StateSpace._explore_walk(system, CentralRelation()),
        rounds=3,
        iterations=1,
    )
    assert space.num_configurations == EXPECTED_CONFIGURATIONS
    assert space.num_edges == EXPECTED_EDGES


def test_explore_ring10_shards1(benchmark):
    """The compiled explorer."""
    system = make_token_ring_system(RING_SIZE)
    space = benchmark.pedantic(
        lambda: StateSpace.explore(system, CentralRelation()),
        rounds=3,
        iterations=1,
    )
    assert space.num_configurations == EXPECTED_CONFIGURATIONS
    assert space.num_edges == EXPECTED_EDGES


def test_explore_ring6_distributed(benchmark):
    """Distributed daemon: every non-empty enabled subset is an edge."""
    system = make_token_ring_system(6)
    space = benchmark.pedantic(
        lambda: StateSpace.explore(system, DistributedRelation()),
        rounds=5,
        iterations=1,
    )
    assert space.num_configurations == 4096
    assert space.num_edges == 113552


def test_explore_ring10_sharded_equals_oracle():
    """Not a timing: the equivalence guarantee on the benchmark point."""
    system = make_token_ring_system(RING_SIZE)
    oracle = StateSpace._explore_walk(system, CentralRelation())
    compiled = StateSpace.explore(system, CentralRelation())
    assert oracle.configurations == compiled.configurations
    assert oracle.index == compiled.index
    assert oracle.edges == compiled.edges
    assert oracle.enabled == compiled.enabled
