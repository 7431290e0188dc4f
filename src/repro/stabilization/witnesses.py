"""Witness construction: explicit executions proving (non-)convergence.

The paper's arguments are witness-based: Figure 2 exhibits a converging
execution (possible convergence), Figure 3 a synchronous cycle, and
Theorem 6 a strongly fair non-converging execution (two tokens chasing
each other).  This module builds all three kinds of witnesses from an
explored state space:

* :func:`converging_execution` — shortest execution into ``L``;
* :func:`synchronous_lasso` — the unique synchronous run of a
  deterministic system, ending at a terminal configuration or a cycle;
* :func:`find_strongly_fair_lasso` — SCC-based search for an ultimately
  periodic execution that avoids ``L`` *and* satisfies strong fairness
  (the Theorem 6 witness);
* :func:`find_gouda_witnesses` — terminal SCCs avoiding ``L`` (the only
  way a Gouda-fair execution can fail to converge; empty for any
  weak-stabilizing system, which is Theorem 5's content).
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.core.configuration import Configuration
from repro.core.system import Move, System
from repro.core.trace import Lasso, Step, Trace
from repro.errors import SchedulerError, StateSpaceError
from repro.markov.hitting import backward_closure, strong_components
from repro.stabilization.convergence import strongly_connected_components
from repro.stabilization.statespace import (
    LabeledEdge,
    StateSpace,
    mask_to_subset,
)

__all__ = [
    "recover_step",
    "converging_execution",
    "synchronous_successor",
    "synchronous_lasso",
    "find_strongly_fair_lasso",
    "find_gouda_witnesses",
]


def recover_step(
    system: System,
    source: Configuration,
    mask: int,
    target: Configuration,
) -> Step:
    """Reconstruct the moves of an explored edge.

    The state space stores only (mask, target); to print or fairness-check
    a concrete execution we re-derive which actions/outcomes produce
    ``target`` when the masked subset moves.

    Returns the first matching branch of :meth:`System.subset_branches`
    without enumerating their product: branches run lexicographically by
    action and then by outcome, movers in sorted order, and the matching
    branches are the product of each mover's matching ``(action,
    outcome)`` pairs, so the first one takes each mover's first pair
    whose post-state is ``target[p]``.  Linear in the movers.
    """
    subset = mask_to_subset(mask)
    moved = set(subset)
    movers = sorted(moved)
    if not movers:
        raise SchedulerError("scheduler chose an empty subset")
    choices = []
    for process in movers:
        enabled = system.enabled_actions(source, process)
        if not enabled:
            raise SchedulerError(f"scheduler chose disabled process {process}")
        choices.append((process, enabled))
    if len(target) != len(source) or any(
        target[q] != source[q] for q in range(len(source)) if q not in moved
    ):
        raise StateSpaceError(
            f"subset {subset} cannot change the non-movers of the target"
        )
    moves = []
    for process, enabled in choices:
        move = next(
            (
                Move(process, action.name, index)
                for action in enabled
                for index, (_, state) in enumerate(
                    system.outcome_states(source, process, action)
                )
                if state == target[process]
            ),
            None,
        )
        if move is None:
            raise StateSpaceError(
                f"no branch of subset {subset} leads to the recorded target"
            )
        moves.append(move)
    return Step(tuple(moves))


def converging_execution(
    space: StateSpace,
    legitimate: Sequence[bool],
    start_id: int,
) -> Trace:
    """A shortest execution from ``start_id`` into ``L``.

    Follows the BFS distance field greedily: from every transient
    configuration, take the first edge of its CSR row that decreases the
    distance to ``L``.  Raises :class:`StateSpaceError` if the start is
    stranded.
    """
    distances = backward_closure(
        space.targets, space.indptr, np.asarray(legitimate, dtype=bool)
    )
    if distances[start_id] == -1:
        raise StateSpaceError(
            f"configuration id {start_id} cannot reach the legitimate set"
        )
    system = space.system
    trace = Trace.starting_at(space.configurations[start_id])
    current = start_id
    while not legitimate[current]:
        start = space.indptr[current]
        below = distances[space.targets[start : space.indptr[current + 1]]]
        # BFS levels guarantee a descending edge from every reached
        # transient configuration.
        edge = start + np.flatnonzero(
            (below >= 0) & (below < distances[current])
        )[0]
        target = int(space.targets[edge])
        step = recover_step(
            system,
            space.configurations[current],
            int(space.masks[edge]),
            space.configurations[target],
        )
        trace.append(step, space.configurations[target])
        current = target
    return trace


def synchronous_successor(
    system: System, configuration: Configuration
) -> tuple[Configuration, Step] | None:
    """The unique synchronous step of a deterministic system.

    Returns ``None`` at terminal configurations; raises
    :class:`StateSpaceError` when the step is not unique (probabilistic
    actions or overlapping guards), because then "the" synchronous
    execution does not exist.
    """
    enabled = system.enabled_processes(configuration)
    if not enabled:
        return None
    branches = list(system.subset_branches(configuration, enabled))
    if len(branches) != 1:
        raise StateSpaceError(
            f"synchronous step is not deterministic:"
            f" {len(branches)} branches"
        )
    branch = branches[0]
    return branch.target, Step(branch.moves)


def synchronous_lasso(
    system: System,
    initial: Configuration,
    max_steps: int = 1_000_000,
) -> tuple[Trace, Lasso | None]:
    """Run the unique synchronous execution until terminal or a repeat.

    Returns ``(trace, lasso)``: ``lasso`` is ``None`` when the run halted
    at a terminal configuration, otherwise the ultimately periodic
    execution entered when the first repeated configuration was reached.
    This is exactly how Figure 3's oscillation is found — and, per
    Theorem 1, a deterministic algorithm is synchronously self-stabilizing
    iff *every* initial configuration yields ``lasso is None`` with a
    legitimate final configuration.
    """
    trace = Trace.starting_at(initial)
    seen: dict[Configuration, int] = {initial: 0}
    configuration = initial
    for _ in range(max_steps):
        result = synchronous_successor(system, configuration)
        if result is None:
            return trace, None
        configuration, step = result
        trace.append(step, configuration)
        if configuration in seen:
            entry = seen[configuration]
            lasso = Lasso(
                prefix_configurations=tuple(
                    trace.configurations[: entry + 1]
                ),
                prefix_steps=tuple(trace.steps[:entry]),
                cycle_configurations=tuple(
                    trace.configurations[entry + 1:]
                ),
                cycle_steps=tuple(trace.steps[entry:]),
            )
            return trace, lasso
        seen[configuration] = trace.length
    raise StateSpaceError("synchronous run exceeded the step budget")


# ----------------------------------------------------------------------
# strongly fair non-converging lassos (Theorem 6)
# ----------------------------------------------------------------------
def find_strongly_fair_lasso(
    space: StateSpace, legitimate: Sequence[bool]
) -> Lasso | None:
    """Search for a strongly fair, never-converging execution.

    An infinite execution that forever repeats a closed walk covering all
    edges of an SCC ``S`` of the transient subgraph is strongly fair iff
    every process enabled somewhere in ``S`` moves on some edge of ``S``
    (it is then activated once per period, hence infinitely often).  The
    search scans the transient SCCs for this coverage condition and
    materializes the walk as a :class:`~repro.core.trace.Lasso`.

    Returns ``None`` when no transient SCC qualifies — evidence (over the
    explored space) that every strongly fair execution converges.
    """
    outside = ~np.asarray(legitimate, dtype=bool)
    sources, targets = space.sources, space.targets
    inner = np.flatnonzero(outside[sources] & outside[targets])
    n = space.num_configurations
    transient_edges: list[list[LabeledEdge]] = [[] for _ in range(n)]
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for source, mask, target in zip(
        sources[inner].tolist(),
        space.masks[inner].tolist(),
        targets[inner].tolist(),
    ):
        transient_edges[source].append((mask, target))
        adjacency[source].append(target)

    enabled_bits = space.enabled_bits.tolist()
    for component in strongly_connected_components(adjacency):
        members = set(component)
        if legitimate[component[0]]:
            continue
        internal: list[tuple[int, int, int]] = [
            (source, mask, target)
            for source in component
            for mask, target in transient_edges[source]
            if target in members
        ]
        if not internal:
            continue
        ever_enabled = 0
        for member in component:
            ever_enabled |= enabled_bits[member]
        acting = 0
        for _, mask, _ in internal:
            acting |= mask
        if ever_enabled & ~acting:
            continue
        walk = _closed_walk_covering_edges(component, internal)
        return _lasso_from_walk(space, walk)
    return None


def _closed_walk_covering_edges(
    component: Sequence[int],
    internal: Sequence[tuple[int, int, int]],
) -> list[tuple[int, int, int]]:
    """Closed walk (edge list) through a strongly connected subgraph that
    traverses every given edge at least once.

    Strategy: starting at the source of the first edge, repeatedly BFS to
    the source of the next uncovered edge, traverse it, and finally BFS
    back to the start.
    """
    by_source: dict[int, list[tuple[int, int]]] = {}
    for source, mask, target in internal:
        by_source.setdefault(source, []).append((mask, target))

    def path_edges(origin: int, goal: int) -> list[tuple[int, int, int]]:
        if origin == goal:
            return []
        parents: dict[int, tuple[int, int]] = {}
        queue: deque[int] = deque([origin])
        while queue:
            node = queue.popleft()
            for mask, target in by_source.get(node, []):
                if target not in parents and target != origin:
                    parents[target] = (node, mask)
                    if target == goal:
                        queue.clear()
                        break
                    queue.append(target)
        if goal not in parents:
            raise StateSpaceError(
                "SCC walk construction failed"
            )  # pragma: no cover - SCC guarantees connectivity
        edges: list[tuple[int, int, int]] = []
        node = goal
        while node != origin:
            parent, mask = parents[node]
            edges.append((parent, mask, node))
            node = parent
        edges.reverse()
        return edges

    start = internal[0][0]
    walk: list[tuple[int, int, int]] = []
    position = start
    for source, mask, target in internal:
        walk.extend(path_edges(position, source))
        walk.append((source, mask, target))
        position = target
    walk.extend(path_edges(position, start))
    return walk


def _lasso_from_walk(
    space: StateSpace, walk: Sequence[tuple[int, int, int]]
) -> Lasso:
    system = space.system
    start = walk[0][0]
    cycle_configurations: list[Configuration] = []
    cycle_steps: list[Step] = []
    for source, mask, target in walk:
        step = recover_step(
            system,
            space.configurations[source],
            mask,
            space.configurations[target],
        )
        cycle_steps.append(step)
        cycle_configurations.append(space.configurations[target])
    return Lasso(
        prefix_configurations=(space.configurations[start],),
        prefix_steps=(),
        cycle_configurations=tuple(cycle_configurations),
        cycle_steps=tuple(cycle_steps),
    )


# ----------------------------------------------------------------------
# Gouda-fairness witnesses (Theorem 5)
# ----------------------------------------------------------------------
def find_gouda_witnesses(
    space: StateSpace, legitimate: Sequence[bool]
) -> list[list[int]]:
    """Terminal SCCs disjoint from ``L`` (including stuck configurations).

    A Gouda-fair execution's infinitely-occurring configuration set is
    closed under *all* transitions, i.e. a union of terminal SCCs; if all
    terminal SCCs intersect ``L`` (and ``L`` is closed), every Gouda-fair
    execution converges.  A non-empty result refutes weak stabilization
    too — each witness is a trap that cannot reach ``L``.  Witnesses
    list their members in ascending order and come sorted by their
    smallest member.
    """
    count, labels = strong_components(space.targets, space.indptr)
    sources = space.sources
    crossing = labels[sources] != labels[space.targets]
    # Components with an escaping edge or a legitimate member are no trap.
    open_component = np.zeros(count, dtype=bool)
    open_component[labels[sources[crossing]]] = True
    open_component[labels[np.asarray(legitimate, dtype=bool)]] = True
    trapped = np.flatnonzero(~open_component[labels])
    witnesses: dict[int, list[int]] = {}
    for member, label in zip(trapped.tolist(), labels[trapped].tolist()):
        witnesses.setdefault(label, []).append(member)
    return list(witnesses.values())
