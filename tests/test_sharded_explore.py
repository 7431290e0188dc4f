"""The compiled explorer is bit-for-bit identical to the dict-walk oracle.

The contract (see ``docs/architecture.md``): for every shard count,
``StateSpace.explore`` must produce the *same* canonical state space as
the FIFO dict walk (``StateSpace._explore_walk``) — configurations,
interned ids, edge lists (order included), enabled tuples — and
therefore identical downstream verdicts, on every topology family the
registry uses (rings, trees/chains, stars) and for deterministic as well
as probabilistic systems.
"""

from __future__ import annotations

import pytest

from repro.algorithms.leader_tree import TreeLeaderSpec, make_leader_tree_system
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.algorithms.two_process import make_two_process_system
from repro.errors import SchedulerError, StateSpaceError
from repro.graphs.generators import figure3_chain, path, star
from repro.schedulers.relations import (
    CentralRelation,
    DistributedRelation,
    SynchronousRelation,
)
from repro.stabilization import (
    StateSpace,
    classify,
    convergence_profile,
    get_default_shards,
    resolve_shards,
    set_default_shards,
)
from repro.transformer.coin_toss import make_transformed_system


def assert_identical(space_a: StateSpace, space_b: StateSpace) -> None:
    """Full structural equality of two explored spaces."""
    assert space_a.configurations == space_b.configurations
    assert space_a.index == space_b.index
    assert space_a.edges == space_b.edges
    assert space_a.enabled == space_b.enabled


def explore_pair(system, relation, shards, **kwargs):
    oracle = StateSpace._explore_walk(system, relation, **kwargs)
    sharded = StateSpace.explore(system, relation, shards=shards, **kwargs)
    return oracle, sharded


# ----------------------------------------------------------------------
# ring / tree / star topologies, all relations
# ----------------------------------------------------------------------
TOPOLOGY_CASES = [
    pytest.param(lambda: make_token_ring_system(5), id="ring5-token"),
    pytest.param(lambda: make_token_ring_system(6), id="ring6-token"),
    pytest.param(
        lambda: make_leader_tree_system(figure3_chain()), id="chain4-leader"
    ),
    pytest.param(lambda: make_leader_tree_system(star(3)), id="star3-leader"),
]

RELATIONS = [
    pytest.param(CentralRelation, id="central"),
    pytest.param(DistributedRelation, id="distributed"),
    pytest.param(SynchronousRelation, id="synchronous"),
]


@pytest.mark.parametrize("make_system", TOPOLOGY_CASES)
@pytest.mark.parametrize("make_relation", RELATIONS)
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_identical_across_topologies(
    make_system, make_relation, shards
):
    oracle, sharded = explore_pair(
        make_system(), make_relation(), shards=shards
    )
    assert_identical(oracle, sharded)


# ----------------------------------------------------------------------
# the in-process compiled explorer (shards=1) and its distributed layer
# ----------------------------------------------------------------------
DISTRIBUTED_CASES = [
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
    """Count calls into the vectorized distributed-daemon layer."""
    from repro.stabilization import sharding

    calls = []
    original = sharding._distributed_edges

    def counting(*args):
        calls.append(args[1].shape[0])
        return original(*args)

    monkeypatch.setattr(sharding, "_distributed_edges", counting)
    return calls


@pytest.mark.parametrize("mode", ["full", "frontier"])
@pytest.mark.parametrize("make_relation", RELATIONS)
@pytest.mark.parametrize("make_system", DISTRIBUTED_CASES)
def test_compiled_explorer_matches_dict_walk(
    make_system, make_relation, mode, distributed_layer_calls
):
    """``shards=1`` runs the compiled explorer in-process; under the
    distributed daemon deterministic blocks take the vectorized layer."""
    system = make_system()
    relation = make_relation()
    initial = None if mode == "full" else [next(system.all_configurations())]
    oracle = StateSpace._explore_walk(system, relation, initial)
    compiled = StateSpace.explore(system, relation, initial, shards=1)
    assert_identical(oracle, compiled)
    assert bool(distributed_layer_calls) == (
        type(relation) is DistributedRelation
    )


def test_distributed_layer_enforces_max_enabled():
    """Too many enabled processes raise the dict walk's SchedulerError."""
    system = make_token_ring_system(6)
    relation = DistributedRelation(max_enabled=2)
    with pytest.raises(SchedulerError) as walk_error:
        StateSpace._explore_walk(system, relation)
    with pytest.raises(SchedulerError) as compiled_error:
        StateSpace.explore(system, relation, shards=1)
    assert str(compiled_error.value) == str(walk_error.value)


def test_distributed_subclass_takes_the_replay(distributed_layer_calls):
    """A subclass may redefine ``subsets``, so only the exact type is
    vectorized; subclasses replay their own enumeration."""

    class SmallestFirst(DistributedRelation):
        def subsets(self, enabled):
            return iter(
                sorted(super().subsets(enabled), key=lambda s: (len(s), s))
            )

    system = make_token_ring_system(5)
    relation = SmallestFirst()
    oracle = StateSpace._explore_walk(system, relation)
    compiled = StateSpace.explore(system, relation, shards=1)
    assert_identical(oracle, compiled)
    assert distributed_layer_calls == []
    assert compiled.edges != StateSpace.explore(
        system, DistributedRelation(), shards=1
    ).edges


def test_sharded_identical_probabilistic_two_process():
    """Multi-outcome (probabilistic) actions take the scalar replay path."""
    system = make_two_process_system()
    for relation in (
        CentralRelation(),
        DistributedRelation(),
        SynchronousRelation(),
    ):
        oracle, sharded = explore_pair(system, relation, shards=3)
        assert_identical(oracle, sharded)


def test_sharded_identical_transformed_ring():
    """The coin-toss transformer mixes deterministic and coin actions."""
    system = make_transformed_system(make_token_ring_system(5))
    for relation in (CentralRelation(), SynchronousRelation()):
        oracle, sharded = explore_pair(system, relation, shards=4)
        assert_identical(oracle, sharded)


def test_sharded_identical_action_mode_first():
    oracle, sharded = explore_pair(
        make_two_process_system(),
        SynchronousRelation(),
        shards=2,
        action_mode="first",
    )
    assert_identical(oracle, sharded)


def test_sharded_rejects_unknown_action_mode():
    """The compiled explorer must not relax the dict walk's validation."""
    from repro.errors import ModelError

    with pytest.raises(ModelError):
        StateSpace.explore(
            make_token_ring_system(5),
            CentralRelation(),
            action_mode="bogus",
            shards=2,
        )


# ----------------------------------------------------------------------
# reachable-fragment (explicit initial set) mode
# ----------------------------------------------------------------------
def test_sharded_identical_restricted_initial():
    system = make_token_ring_system(6)
    seeds = [next(system.all_configurations())]
    oracle = StateSpace._explore_walk(system, CentralRelation(), seeds)
    sharded = StateSpace.explore(
        system, CentralRelation(), initial=seeds, shards=4
    )
    assert_identical(oracle, sharded)
    # The fragment really is a fragment (regression guard: the sharded
    # path must not silently explore the full space).
    assert oracle.num_configurations < system.num_configurations()


def test_sharded_restricted_worker_pool_path(monkeypatch):
    """Force the frontier-mode pool dispatch (levels > threshold).

    The default ``MIN_FRONTIER_FOR_WORKERS`` keeps small test frontiers
    in-process; shrinking it makes every BFS level round-trip through
    real worker processes, covering the chunking/pickling/merge path.
    """
    from repro.stabilization import sharding

    monkeypatch.setattr(sharding, "MIN_FRONTIER_FOR_WORKERS", 2)
    system = make_token_ring_system(6)
    seeds = [next(system.all_configurations())]
    for relation in (CentralRelation(), DistributedRelation()):
        oracle = StateSpace._explore_walk(system, relation, seeds)
        sharded = StateSpace.explore(
            system, relation, initial=seeds, shards=3
        )
        assert_identical(oracle, sharded)


def test_sharded_restricted_budget_enforced():
    system = make_token_ring_system(6)
    seeds = [next(system.all_configurations())]
    with pytest.raises(StateSpaceError):
        StateSpace.explore(
            system,
            CentralRelation(),
            initial=seeds,
            max_configurations=10,
            shards=4,
        )


def test_sharded_full_budget_enforced():
    with pytest.raises(StateSpaceError):
        StateSpace.explore(
            make_token_ring_system(6),
            CentralRelation(),
            max_configurations=100,
            shards=4,
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
        oracle, sharded = explore_pair(system, relation, shards=4)
        mask_oracle = oracle.legitimate_mask(spec.legitimate)
        mask_sharded = sharded.legitimate_mask(spec.legitimate)
        assert mask_oracle == mask_sharded
        verdict_oracle = classify(system, spec, relation, space=oracle)
        verdict_sharded = classify(system, spec, relation, space=sharded)
        assert verdict_oracle == verdict_sharded
        assert convergence_profile(
            oracle, mask_oracle
        ) == convergence_profile(sharded, mask_sharded)


# ----------------------------------------------------------------------
# shard-count plumbing
# ----------------------------------------------------------------------
def test_resolve_shards_values():
    assert resolve_shards(1) == 1
    assert resolve_shards(7) == 7
    assert resolve_shards("auto") >= 1
    assert resolve_shards(None) == get_default_shards()
    with pytest.raises(StateSpaceError):
        resolve_shards(0)
    with pytest.raises(StateSpaceError):
        resolve_shards(-2)
    with pytest.raises(StateSpaceError):
        resolve_shards("many")


def test_default_shards_round_trip():
    original = get_default_shards()
    try:
        assert set_default_shards(3) == 3
        assert get_default_shards() == 3
        system = make_token_ring_system(5)
        implicit = StateSpace.explore(system, CentralRelation())
        explicit = StateSpace.explore(system, CentralRelation(), shards=1)
        assert_identical(implicit, explicit)
    finally:
        set_default_shards(original)


def test_shards_auto_explores():
    system = make_token_ring_system(5)
    oracle = StateSpace._explore_walk(system, CentralRelation())
    auto = StateSpace.explore(system, CentralRelation(), shards="auto")
    assert_identical(oracle, auto)


def test_use_kernel_false_still_oracle():
    """The reference-path escape hatch ignores sharding entirely."""
    system = make_token_ring_system(5)
    reference = StateSpace.explore(
        system, CentralRelation(), use_kernel=False, shards=4
    )
    oracle = StateSpace._explore_walk(system, CentralRelation())
    assert_identical(reference, oracle)


# ----------------------------------------------------------------------
# pool hardening: worker death, hangs, and the in-process fallback
# ----------------------------------------------------------------------
def _raise_in_worker(chunk):
    raise ValueError("injected worker failure")


def _hang_in_worker(chunk):
    import time

    time.sleep(60)


def _die_in_worker(chunk):
    import os
    import signal

    os.kill(os.getpid(), signal.SIGKILL)


def _make_supervised_pool(task, fallback):
    from repro.core.encoding import compile_tables
    from repro.core.kernel import TransitionKernel
    from repro.stabilization import sharding

    tables = compile_tables(TransitionKernel(make_token_ring_system(4)))
    return sharding._SupervisedPool(
        2, tables, CentralRelation(), "all", task, fallback
    )


def test_supervised_pool_retries_once_then_falls_back():
    calls: list[list] = []

    def fallback(chunks):
        calls.append(list(chunks))
        return ["fallback"] * len(chunks)

    pool = _make_supervised_pool(_raise_in_worker, fallback)
    try:
        with pytest.warns(RuntimeWarning) as record:
            assert pool.map([1, 2]) == ["fallback", "fallback"]
        messages = [str(warning.message) for warning in record]
        assert any("retrying the batch" in message for message in messages)
        assert any("falling back" in message for message in messages)
        assert pool.broken
        # Once written off, every later batch skips straight to the
        # in-process fallback — no fresh pools, no fresh warnings.
        assert pool.map([3]) == ["fallback"]
        assert calls == [[1, 2], [3]]
    finally:
        pool.close()


@pytest.mark.parametrize(
    "task", [_hang_in_worker, _die_in_worker], ids=["hung", "sigkilled"]
)
def test_supervised_pool_survives_lost_tasks(task, monkeypatch):
    """A killed or hung worker loses its task; the wall-clock budget on
    ``map_async(...).get`` turns that into a supervisable failure
    instead of the infinite wait a bare ``Pool.map`` would give."""
    from repro.stabilization import sharding

    monkeypatch.setattr(sharding, "POOL_TASK_TIMEOUT", 0.2)
    pool = _make_supervised_pool(task, lambda chunks: list(chunks))
    try:
        with pytest.warns(RuntimeWarning) as record:
            assert pool.map([1, 2]) == [1, 2]
        assert any(
            "falling back" in str(warning.message) for warning in record
        )
        assert pool.broken
    finally:
        pool.close()


def test_exploration_result_survives_broken_pool(monkeypatch):
    """End to end: with the pool timing out every batch, sharded
    exploration degrades to in-process expansion and still produces the
    oracle's exact state space."""
    from repro.stabilization import sharding

    monkeypatch.setattr(sharding, "POOL_TASK_TIMEOUT", 0.0001)
    system = make_token_ring_system(9)  # 512 configs: takes the pool path
    oracle = StateSpace._explore_walk(system, CentralRelation())
    with pytest.warns(RuntimeWarning) as record:
        survived = StateSpace.explore(system, CentralRelation(), shards=2)
    assert any(
        "falling back" in str(warning.message) for warning in record
    )
    assert_identical(oracle, survived)
