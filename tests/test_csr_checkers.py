"""The CSR convergence checks and witnesses agree with list oracles.

:mod:`repro.stabilization.convergence`, :mod:`~repro.stabilization.closure`
and :mod:`~repro.stabilization.witnesses` read the state space's CSR
arrays through one backward BFS and one scipy SCC call.  The oracles
here walk the dict walk's per-source edge lists with a Python BFS and
the Tarjan (:func:`strongly_connected_components`), over the generated
systems of ``tests/test_class_tables.py`` under the central,
synchronous and distributed relations.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.algorithms.token_ring import (
    make_token_ring_system,
    single_token_configuration,
)
from repro.schedulers.fairness import fairness_report
from repro.schedulers.relations import (
    CentralRelation,
    DistributedRelation,
    SynchronousRelation,
)
from repro.stabilization import (
    StateSpace,
    certain_convergence,
    check_strong_closure,
    find_gouda_witnesses,
    find_strongly_fair_lasso,
    possible_convergence,
    shortest_distances_to_legitimate,
    strongly_connected_components,
    subset_to_mask,
)

from test_class_tables import systems

#: Explorations stay small: the oracles walk Python lists.
MAX_CONFIGURATIONS = 1024
#: The distributed relation enumerates 2^k − 1 subsets per source.
MAX_DISTRIBUTED_PROCESSES = 5
#: A lasso's cycle covers every edge of its component, and each step
#: re-derives its moves through ``System``: lassos are searched on
#: small digraphs only.
MAX_LASSO_EDGES = 1000


def _small(case) -> bool:
    system, relation = case
    return system.num_configurations() <= MAX_CONFIGURATIONS and (
        not isinstance(relation, DistributedRelation)
        or system.num_processes <= MAX_DISTRIBUTED_PROCESSES
    )


cases = st.tuples(
    systems(),
    st.sampled_from(
        [CentralRelation(), SynchronousRelation(), DistributedRelation()]
    ),
).filter(_small)


def _distances(edges, legitimate) -> list[int]:
    """Python BFS over predecessor lists: shortest path length into L."""
    predecessors: list[list[int]] = [[] for _ in edges]
    for source, outgoing in enumerate(edges):
        for _, target in outgoing:
            predecessors[target].append(source)
    distance = [0 if ok else -1 for ok in legitimate]
    queue = deque(i for i, ok in enumerate(legitimate) if ok)
    while queue:
        current = queue.popleft()
        for predecessor in predecessors[current]:
            if distance[predecessor] == -1:
                distance[predecessor] = distance[current] + 1
                queue.append(predecessor)
    return distance


def _has_transient_cycle(edges, legitimate) -> bool:
    adjacency = [
        [] if legitimate[source] else [
            target for _, target in outgoing if not legitimate[target]
        ]
        for source, outgoing in enumerate(edges)
    ]
    return any(
        len(component) > 1 or component[0] in adjacency[component[0]]
        for component in strongly_connected_components(adjacency)
        if not legitimate[component[0]]
    )


def _gouda_traps(edges, legitimate) -> set[frozenset[int]]:
    adjacency = [[target for _, target in outgoing] for outgoing in edges]
    traps = set()
    for component in strongly_connected_components(adjacency):
        members = frozenset(component)
        if any(legitimate[member] for member in members):
            continue
        if all(
            target in members
            for member in members
            for target in adjacency[member]
        ):
            traps.add(members)
    return traps


@settings(
    derandomize=True,
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    cases,
    st.sampled_from([0.0, 0.2, 0.5, 0.9, None]),
    st.integers(0, 2**16),
)
def test_csr_checkers_match_list_oracles(case, density, seed):
    system, relation = case
    event(f"{system.algorithm.name} / {relation.name}")
    space = StateSpace.explore(system, relation)
    walk = StateSpace._explore_walk(system, relation)
    edges, enabled = walk.edges, walk.enabled
    n = len(edges)
    if density is None:  # L = the terminal configurations
        legitimate = [not processes for processes in enabled]
    else:
        legitimate = (
            np.random.default_rng(seed).random(n) < density
        ).tolist()

    violations = [
        (source, target, mask)
        for source, outgoing in enumerate(edges)
        if legitimate[source]
        for mask, target in outgoing
        if not legitimate[target]
    ]
    assert [
        (v.source_id, v.target_id, v.activation_mask)
        for v in check_strong_closure(space, legitimate)
    ] == violations

    distances = _distances(edges, legitimate)
    assert shortest_distances_to_legitimate(space, legitimate) == distances
    stranded = (
        [i for i, d in enumerate(distances) if d == -1]
        if any(legitimate)
        else list(range(n))
    )
    assert possible_convergence(space, legitimate) == (
        not stranded,
        stranded,
    )

    report = certain_convergence(space, legitimate)
    assert report.terminal_outside == tuple(
        i for i in range(n) if not enabled[i] and not legitimate[i]
    )
    has_cycle = _has_transient_cycle(edges, legitimate)
    assert report.has_transient_cycle == has_cycle

    witnesses = find_gouda_witnesses(space, legitimate)
    assert {frozenset(w) for w in witnesses} == _gouda_traps(
        edges, legitimate
    )
    assert all(w == sorted(w) for w in witnesses)
    assert [w[0] for w in witnesses] == sorted(w[0] for w in witnesses)

    if space.num_edges > MAX_LASSO_EDGES:
        return
    lasso = find_strongly_fair_lasso(space, legitimate)
    event(f"lasso found: {lasso is not None}")
    if lasso is None:
        return
    assert has_cycle
    assert fairness_report(system, lasso, relation).strongly_fair
    assert not any(
        legitimate[space.id_of(configuration)]
        for configuration in lasso.cycle_configurations
    )


def test_masks_past_int64_are_exact():
    """A 64-ring takes the dict walk; its bitmasks are Python ints and
    a move of process 63 reads ``2**63``."""
    system = make_token_ring_system(64)
    space = StateSpace.explore(
        system,
        DistributedRelation(),
        initial=[single_token_configuration(system)],
    )
    assert space.masks.dtype == object
    assert space.enabled_bits.dtype == object
    configurations = space.configurations
    moved = [
        subset_to_mask(
            process
            for process in range(system.num_processes)
            if configurations[source][process]
            != configurations[target][process]
        )
        for source, target in zip(
            space.sources.tolist(), space.targets.tolist()
        )
    ]
    assert space.masks.tolist() == moved
    assert max(moved) == 2**63
    assert space.enabled_bits.tolist() == [
        subset_to_mask(system.enabled_processes(configuration))
        for configuration in configurations
    ]
    assert space.edges == [
        [(mask, target)]
        for mask, target in zip(moved, space.targets.tolist())
    ]
