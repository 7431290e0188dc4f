"""Convergence analysis: possible, certain, and distance-to-L.

* **Possible convergence** (Definition 3, weak stabilization): from every
  configuration *some* execution reaches ``L`` — backward reachability
  from ``L`` must cover the whole space.
* **Certain convergence** (Definition 1, self-stabilization): *every*
  execution reaches ``L`` — equivalently, the subgraph induced by the
  transient configurations ``C \\ L`` contains no terminal configuration
  and no cycle (any transient cycle yields an infinite execution avoiding
  ``L``, and with ``I = C`` that execution is admissible).
* **Distance to L**: the length of the shortest path into ``L``.

Every check reads the state space's CSR arrays through the package's one
backward BFS (:func:`repro.markov.hitting.backward_closure`, whose BFS
levels are the distances to ``L``) and its one SCC helper
(:func:`repro.markov.hitting.strong_components`, scipy's
``connected_components``) — the two the hitting solvers use.

:func:`strongly_connected_components` (Tarjan, iterative) is kept for
one caller, :func:`repro.stabilization.witnesses.find_strongly_fair_lasso`:
its Theorem 6 witness follows Tarjan's component and member order (the
registry pins its 1920-step cycle on the 6-ring; the same search in
ascending-id member order finds a 1416-step one).  The tests use it as
the SCC helper's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.markov.hitting import backward_closure, strong_components
from repro.stabilization.statespace import StateSpace

__all__ = [
    "possible_convergence",
    "certain_convergence",
    "CertainConvergenceReport",
    "shortest_distances_to_legitimate",
    "strongly_connected_components",
    "transient_cycles_exist",
]


def possible_convergence(
    space: StateSpace, legitimate: Sequence[bool]
) -> tuple[bool, list[int]]:
    """Whether every configuration can reach ``L``; also the stranded ids."""
    target = np.asarray(legitimate, dtype=bool)
    if not target.any():
        return False, list(range(space.num_configurations))
    level = backward_closure(space.targets, space.indptr, target)
    stranded = np.flatnonzero(level < 0).tolist()
    return not stranded, stranded


def strongly_connected_components(
    adjacency: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Tarjan's SCC algorithm, iterative (safe for large spaces).

    Returns components in reverse topological order (Tarjan's natural
    output order): every edge leaving a component points to a component
    that appears *earlier* in the returned list.
    """
    n = len(adjacency)
    index_counter = 0
    indices = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []

    for root in range(n):
        if indices[root] != -1:
            continue
        # Each frame: (node, iterator position over successors)
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, position = work.pop()
            if position == 0:
                indices[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack[node] = True
            recurse = False
            successors = adjacency[node]
            while position < len(successors):
                successor = successors[position]
                position += 1
                if indices[successor] == -1:
                    work.append((node, position))
                    work.append((successor, 0))
                    recurse = True
                    break
                if on_stack[successor]:
                    lowlink[node] = min(lowlink[node], indices[successor])
            if recurse:
                continue
            if lowlink[node] == indices[node]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def transient_cycles_exist(
    space: StateSpace, legitimate: Sequence[bool]
) -> bool:
    """Whether the ``C \\ L``-induced subgraph contains any cycle.

    A cycle is a transient self-loop or a strong component of two or
    more states; ``L``'s states are isolated in the subgraph, so the
    latter exist iff there are fewer components than states.
    """
    transient = ~np.asarray(legitimate, dtype=bool)
    sources, targets = space.sources, space.targets
    inner = transient[sources] & transient[targets]
    sources, targets = sources[inner], targets[inner]
    if (sources == targets).any():
        return True
    n = space.num_configurations
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
    count, _ = strong_components(targets, indptr)
    return count < n


@dataclass(frozen=True)
class CertainConvergenceReport:
    """Why certain convergence holds or fails."""

    holds: bool
    terminal_outside: tuple[int, ...]
    has_transient_cycle: bool


def certain_convergence(
    space: StateSpace, legitimate: Sequence[bool]
) -> CertainConvergenceReport:
    """Check that every maximal execution reaches ``L``.

    Fails iff (a) some terminal configuration lies outside ``L`` (a maximal
    finite execution that never converges) or (b) the transient subgraph
    has a cycle (an infinite execution avoiding ``L``).
    """
    outside = ~np.asarray(legitimate, dtype=bool)
    terminal_outside = tuple(
        np.flatnonzero((space.enabled_bits == 0) & outside).tolist()
    )
    has_cycle = transient_cycles_exist(space, legitimate)
    return CertainConvergenceReport(
        holds=not terminal_outside and not has_cycle,
        terminal_outside=terminal_outside,
        has_transient_cycle=has_cycle,
    )


def shortest_distances_to_legitimate(
    space: StateSpace, legitimate: Sequence[bool]
) -> list[int]:
    """Per-configuration length of the *shortest* path into ``L``.

    Distance 0 for legitimate configurations, ``-1`` for stranded ones.
    This is the optimistic ("friendly scheduler") convergence time that
    weak stabilization promises.
    """
    target = np.asarray(legitimate, dtype=bool)
    return backward_closure(space.targets, space.indptr, target).tolist()
