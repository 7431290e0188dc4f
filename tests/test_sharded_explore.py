"""The compiled explorer is bit-for-bit identical to the dict-walk oracle.

The contract (see ``docs/architecture.md``): ``StateSpace.explore`` — the
support view of the chain builder's one expander — must produce the
*same* canonical state space as the FIFO dict walk
(``StateSpace._explore_walk``) — configurations, interned ids, edge lists
(order included), enabled tuples — and therefore identical downstream
verdicts, on every topology family the registry uses (rings,
trees/chains, stars), for deterministic as well as probabilistic
systems and for cells with two enabled actions, however the rank space
is cut into expansion blocks.  What the support view cannot take
(relation subclasses, rank spaces beyond int64) takes the dict walk.
"""

from __future__ import annotations

import pytest

from conformance_registry import make_two_action_system
from repro.algorithms.dijkstra_ring import make_dijkstra_system
from repro.algorithms.leader_tree import TreeLeaderSpec, make_leader_tree_system
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.algorithms.two_process import make_two_process_system
from repro.errors import ModelError, SchedulerError, StateSpaceError
from repro.graphs.generators import figure3_chain, path, star
from repro.markov import builder
from repro.markov.builder import build_chain
from repro.schedulers.distributions import CentralRandomizedDistribution
from repro.schedulers.relations import (
    CentralRelation,
    DistributedRelation,
    SynchronousRelation,
)
from repro.stabilization import (
    StateSpace,
    classify,
    convergence_profile,
)
from repro.transformer.coin_toss import make_transformed_system


def assert_identical(space_a: StateSpace, space_b: StateSpace) -> None:
    """Full structural equality of two explored spaces."""
    assert space_a.configurations == space_b.configurations
    assert space_a.index == space_b.index
    assert space_a.edges == space_b.edges
    assert space_a.enabled == space_b.enabled


def explore_pair(system, relation, **kwargs):
    oracle = StateSpace._explore_walk(system, relation, **kwargs)
    compiled = StateSpace.explore(system, relation, **kwargs)
    return oracle, compiled


# ----------------------------------------------------------------------
# ring / tree / star topologies, all relations, small expansion blocks
# ----------------------------------------------------------------------
TOPOLOGY_CASES = [
    pytest.param(lambda: make_token_ring_system(5), id="ring5-token"),
    pytest.param(lambda: make_token_ring_system(6), id="ring6-token"),
    pytest.param(
        lambda: make_leader_tree_system(figure3_chain()), id="chain4-leader"
    ),
    pytest.param(lambda: make_leader_tree_system(star(3)), id="star3-leader"),
    pytest.param(lambda: make_two_action_system(4), id="two-action4"),
]

RELATIONS = [
    pytest.param(CentralRelation, id="central"),
    pytest.param(DistributedRelation, id="distributed"),
    pytest.param(SynchronousRelation, id="synchronous"),
]


@pytest.mark.parametrize("make_system", TOPOLOGY_CASES)
@pytest.mark.parametrize("make_relation", RELATIONS)
@pytest.mark.parametrize("block", [2, 4])
def test_sharded_identical_across_topologies(
    make_system, make_relation, block, monkeypatch
):
    """The full space cut into blocks of ``block`` ranks: every block
    boundary must leave ids, edges and enabled tuples unchanged."""
    monkeypatch.setattr(builder, "_CHAIN_BLOCK", block)
    oracle, compiled = explore_pair(make_system(), make_relation())
    assert_identical(oracle, compiled)


# ----------------------------------------------------------------------
# the array layer and the dict-walk fallback
# ----------------------------------------------------------------------
DISTRIBUTED_CASES = [
    # Every block holds a cell with two enabled actions.
    pytest.param(lambda: make_two_action_system(4), id="two-action4"),
    *(
        pytest.param(lambda n=n: make_token_ring_system(n), id=f"ring{n}")
        for n in range(3, 7)
    ),
    *(
        pytest.param(
            lambda n=n: make_leader_tree_system(path(n)), id=f"path{n}"
        )
        for n in (4, 5, 6)
    ),
    *(
        pytest.param(
            lambda n=n: make_leader_tree_system(star(n)), id=f"star{n}"
        )
        for n in (3, 4)
    ),
]


@pytest.fixture
def distributed_layer_calls(monkeypatch):
    """Count the sources expanded by the builder's array layer."""
    calls = []
    original = builder._array_edges

    def counting(context, codes, *args):
        calls.append(codes.shape[0])
        return original(context, codes, *args)

    monkeypatch.setattr(builder, "_array_edges", counting)
    return calls


@pytest.mark.parametrize("mode", ["full", "frontier"])
@pytest.mark.parametrize("make_relation", RELATIONS)
@pytest.mark.parametrize("make_system", DISTRIBUTED_CASES)
def test_compiled_explorer_matches_dict_walk(
    make_system, make_relation, mode, distributed_layer_calls
):
    """Every block under the three built-in relations takes the array
    layer."""
    system = make_system()
    relation = make_relation()
    initial = None if mode == "full" else [next(system.all_configurations())]
    oracle = StateSpace._explore_walk(system, relation, initial)
    compiled = StateSpace.explore(system, relation, initial)
    assert_identical(oracle, compiled)
    assert distributed_layer_calls


def test_distributed_layer_enforces_max_enabled():
    """Too many enabled processes raise the dict walk's SchedulerError."""
    system = make_token_ring_system(6)
    relation = DistributedRelation(max_enabled=2)
    with pytest.raises(SchedulerError) as walk_error:
        StateSpace._explore_walk(system, relation)
    with pytest.raises(SchedulerError) as compiled_error:
        StateSpace.explore(system, relation)
    assert str(compiled_error.value) == str(walk_error.value)
    # The default relation's plans are shared between explorations; a
    # tighter budget must not read them.
    StateSpace.explore(system, DistributedRelation())
    with pytest.raises(SchedulerError):
        StateSpace.explore(system, relation)


def test_distributed_subclass_takes_the_dict_walk(distributed_layer_calls):
    """A subclass may redefine ``subsets``, so only the exact type is
    vectorized; subclasses take the dict walk over their own
    enumeration."""

    class SmallestFirst(DistributedRelation):
        def subsets(self, enabled):
            return iter(
                sorted(super().subsets(enabled), key=lambda s: (len(s), s))
            )

    system = make_token_ring_system(5)
    relation = SmallestFirst()
    oracle = StateSpace._explore_walk(system, relation)
    compiled = StateSpace.explore(system, relation)
    assert_identical(oracle, compiled)
    assert distributed_layer_calls == []
    assert compiled.edges != StateSpace.explore(
        system, DistributedRelation()
    ).edges


@pytest.mark.parametrize("make_relation", RELATIONS)
def test_rank_space_beyond_int64_takes_the_dict_walk(
    make_relation, distributed_layer_calls
):
    """Dijkstra's ring of 20 has 20^20 configurations, beyond int64
    ranks: explored from a legitimate configuration by the dict walk."""
    system = make_dijkstra_system(20)
    seed = [next(system.all_configurations())]
    oracle, compiled = explore_pair(system, make_relation(), initial=seed)
    assert_identical(oracle, compiled)
    assert compiled.num_configurations == 400
    assert distributed_layer_calls == []


def test_sharded_identical_probabilistic_two_process():
    """Multi-outcome (probabilistic) actions: edges dedup keep-first."""
    system = make_two_process_system()
    for relation in (
        CentralRelation(),
        DistributedRelation(),
        SynchronousRelation(),
    ):
        oracle, compiled = explore_pair(system, relation)
        assert_identical(oracle, compiled)


def test_sharded_identical_transformed_ring():
    """The coin-toss transformer mixes deterministic and coin actions."""
    system = make_transformed_system(make_token_ring_system(5))
    for relation in (CentralRelation(), SynchronousRelation()):
        oracle, compiled = explore_pair(system, relation)
        assert_identical(oracle, compiled)


@pytest.mark.parametrize("mode", ["full", "frontier"])
def test_ring9_crosses_block_boundaries(mode):
    """Dijkstra's ring of 9 with K = 3 has 19,683 configurations: more
    than two 8192-rank blocks.  In frontier mode every configuration is a
    seed, in reverse enumeration order, so ids are not ranks and the
    first BFS level spans three blocks."""
    system = make_dijkstra_system(9, k=3)
    assert system.num_configurations() > 2 * builder._CHAIN_BLOCK
    initial = None
    if mode == "frontier":
        initial = list(system.all_configurations())[::-1]
    for relation in (CentralRelation(), SynchronousRelation()):
        oracle, compiled = explore_pair(system, relation, initial=initial)
        assert_identical(oracle, compiled)


# ----------------------------------------------------------------------
# reachable-fragment (explicit initial set) mode
# ----------------------------------------------------------------------
def test_sharded_identical_restricted_initial():
    system = make_token_ring_system(6)
    seeds = [next(system.all_configurations())]
    oracle, compiled = explore_pair(system, CentralRelation(), initial=seeds)
    assert_identical(oracle, compiled)
    # The fragment really is a fragment (regression guard: the compiled
    # path must not silently explore the full space).
    assert oracle.num_configurations < system.num_configurations()


def test_sharded_restricted_budget_enforced():
    system = make_token_ring_system(6)
    seeds = [next(system.all_configurations())]
    with pytest.raises(StateSpaceError, match="exploration exceeded 10"):
        StateSpace.explore(
            system,
            CentralRelation(),
            initial=seeds,
            max_configurations=10,
        )


def test_sharded_full_budget_enforced():
    with pytest.raises(StateSpaceError):
        StateSpace.explore(
            make_token_ring_system(6),
            CentralRelation(),
            max_configurations=100,
        )


MALFORMED_SEEDS = [
    pytest.param(((99,),) * 4, id="out-of-domain"),
    pytest.param(((0,),) * 3, id="too-short"),
]


@pytest.mark.parametrize("seed", MALFORMED_SEEDS)
def test_malformed_seeds_rejected_by_every_path(seed):
    """Every explorer and chain engine checks explicit seeds."""
    system = make_token_ring_system(4)
    with pytest.raises(ModelError):
        StateSpace.explore(system, CentralRelation(), [seed])
    with pytest.raises(ModelError):
        StateSpace._explore_walk(system, CentralRelation(), [seed])
    for engine in ("compiled", "scalar"):
        with pytest.raises(ModelError):
            build_chain(
                system,
                CentralRandomizedDistribution(),
                initial=[seed],
                engine=engine,
            )


# ----------------------------------------------------------------------
# downstream analyses see identical inputs → identical verdicts
# ----------------------------------------------------------------------
def test_sharded_identical_downstream_verdicts():
    cases = [
        (make_token_ring_system(6), TokenCirculationSpec(), CentralRelation()),
        (
            make_leader_tree_system(star(3)),
            TreeLeaderSpec(),
            DistributedRelation(),
        ),
        (
            make_leader_tree_system(figure3_chain()),
            TreeLeaderSpec(),
            SynchronousRelation(),
        ),
    ]
    for system, spec, relation in cases:
        oracle, compiled = explore_pair(system, relation)
        mask_oracle = oracle.legitimate_mask(spec.legitimate)
        mask_compiled = compiled.legitimate_mask(spec.legitimate)
        assert mask_oracle == mask_compiled
        verdict_oracle = classify(system, spec, relation, space=oracle)
        verdict_compiled = classify(system, spec, relation, space=compiled)
        assert verdict_oracle == verdict_compiled
        assert convergence_profile(
            oracle, mask_oracle
        ) == convergence_profile(compiled, mask_compiled)
