"""Algorithm 2 — weak-stabilizing leader election on anonymous trees.

Section 3.2 of the paper.  Every process p keeps one pointer
``Par_p ∈ Neig_p ∪ {⊥}`` (log Δ bits) and runs three actions::

    A1 :: (Par_p ≠ ⊥) ∧ (|Children_p| = |Neig_p|)          → Par_p ← ⊥
    A2 :: (Par_p ≠ ⊥) ∧ [Neig_p \\ (Children_p ∪ {Par_p}) ≠ ∅]
                                                → Par_p ← (Par_p + 1) mod Δ_p
    A3 :: (Par_p = ⊥) ∧ (|Children_p| < |Neig_p|)  → Par_p ← min(Neig_p \\ Children_p)

with ``Children_p = {q ∈ Neig_p : Par_q = p}`` and
``isLeader(p) ≡ (Par_p = ⊥)``.

The target terminal configurations are Definition 13's set ``LC``: exactly
one process with ``Par = ⊥`` and every other process's parent path
(Definition 12) rooted at it.  Facts reproduced by tests/experiments:

* Lemma 7 — if nobody is a leader, some A1 is enabled;
* Lemma 10 — γ satisfies ``LC`` iff γ is terminal;
* Theorem 4 — deterministic weak stabilization under the distributed
  strongly fair scheduler;
* Figure 3 — a synchronous execution on the 4-chain never converges, so
  the algorithm is not self-stabilizing (for any fairness).
"""

from __future__ import annotations

import numpy as np

from repro.core.actions import Action, deterministic_action
from repro.core.algorithm import Algorithm
from repro.core.configuration import Configuration
from repro.core.encoding import StateEncoding
from repro.core.system import System
from repro.core.topology import Topology
from repro.core.variables import BOTTOM, VariableLayout, VarSpec
from repro.core.view import View
from repro.errors import ModelError, TopologyError
from repro.graphs.graph import Graph
from repro.graphs.generators import figure2_tree
from repro.graphs.properties import is_tree
from repro.markov.batch import BatchLegitimacy
from repro.stabilization.specification import Specification

__all__ = [
    "LeaderTreeAlgorithm",
    "TreeLeaderSpec",
    "make_leader_tree_system",
    "leaders",
    "root_of",
    "satisfies_lc",
    "ParentPointers",
    "figure2_initial_configuration",
    "figure2_system",
]


def _a1_guard(view: View) -> bool:
    """All neighbors consider p the leader."""
    return (
        view.get("Par") is not BOTTOM
        and len(view.children("Par")) == view.degree
    )


def _a1_statement(view: View) -> None:
    view.set("Par", BOTTOM)


def _a2_guard(view: View) -> bool:
    """Some neighbor is neither p's parent nor one of p's children."""
    parent = view.get("Par")
    if parent is BOTTOM:
        return False
    children = set(view.children("Par"))
    return any(
        k != parent and k not in children for k in view.neighbor_indexes
    )


def _a2_statement(view: View) -> None:
    view.set("Par", (view.get("Par") + 1) % view.degree)


def _a3_guard(view: View) -> bool:
    """p thinks it leads but some neighbor disagrees."""
    return (
        view.get("Par") is BOTTOM
        and len(view.children("Par")) < view.degree
    )


def _a3_statement(view: View) -> None:
    children = set(view.children("Par"))
    view.set(
        "Par",
        min(k for k in view.neighbor_indexes if k not in children),
    )


class LeaderTreeAlgorithm(Algorithm):
    """The parent-pointer rotation protocol (paper's Algorithm 2)."""

    name = "algorithm-2-leader-election"

    def layout(self, topology: Topology, process: int) -> VariableLayout:
        degree = topology.degree(process)
        domain = tuple(range(degree)) + (BOTTOM,)
        return VariableLayout((VarSpec("Par", domain),))

    def actions(self) -> tuple[Action, ...]:
        return (
            deterministic_action("A1", _a1_guard, _a1_statement),
            deterministic_action("A2", _a2_guard, _a2_statement),
            deterministic_action("A3", _a3_guard, _a3_statement),
        )


# ----------------------------------------------------------------------
# predicates over configurations
# ----------------------------------------------------------------------
def _par_of(system: System, configuration: Configuration, process: int):
    slot = system.layouts[process].slot("Par")
    return configuration[process][slot]


def leaders(system: System, configuration: Configuration) -> list[int]:
    """Processes satisfying ``isLeader`` (``Par = ⊥``)."""
    return [
        p
        for p in system.processes
        if _par_of(system, configuration, p) is BOTTOM
    ]


def root_of(system: System, configuration: Configuration, process: int) -> int:
    """``Root(p)`` — the initial extremity of ``ParPath(p)`` (Definition 12).

    Follow parent pointers until reaching a process that either satisfies
    ``Par = ⊥`` or forms a mutual pair with its own parent.  On a tree
    this always terminates (Remark 2).
    """
    topology = system.topology
    current = process
    for _ in range(system.num_processes + 1):
        parent_index = _par_of(system, configuration, current)
        if parent_index is BOTTOM:
            return current
        parent = topology.neighbor(current, parent_index)
        grandparent_index = _par_of(system, configuration, parent)
        if (
            grandparent_index is not BOTTOM
            and topology.neighbor(parent, grandparent_index) == current
        ):
            return current
        current = parent
    raise ModelError(
        "ParPath did not terminate — the topology is not a tree"
    )  # pragma: no cover - unreachable on trees


def satisfies_lc(system: System, configuration: Configuration) -> bool:
    """Definition 13's legitimacy predicate ``LC``."""
    leader_list = leaders(system, configuration)
    if len(leader_list) != 1:
        return False
    leader = leader_list[0]
    return all(
        root_of(system, configuration, q) == leader
        for q in system.processes
        if q != leader
    )


class ParentPointers:
    """``Par`` as global process ids over code matrices: the arrays behind
    :class:`TreeLeaderSpec`'s batch form.

    Built only for Algorithm 2 on a tree (:meth:`of`), where Definition
    12's parent path always ends (Remark 2).
    """

    def __init__(self, system: System) -> None:
        # Code c of process p is the c-th local state of its
        # StateEncoding; every encoding of one system agrees on it.
        encoding = StateEncoding(system)
        topology = system.topology
        self._table = np.full(
            (system.num_processes, int(encoding.sizes.max())), -1, np.int64
        )
        for process, layout in enumerate(system.layouts):
            slot = layout.slot("Par")
            for code, state in enumerate(encoding.local_states(process)):
                if state[slot] is not BOTTOM:
                    self._table[process, code] = topology.neighbor(
                        process, state[slot]
                    )

    @classmethod
    def of(cls, system: System) -> "ParentPointers | None":
        """Pointers of Algorithm 2 on a tree, else ``None``."""
        if type(system.algorithm) is not LeaderTreeAlgorithm or not is_tree(
            system.topology.graph
        ):
            return None
        return cls(system)

    def parents(self, codes: np.ndarray) -> np.ndarray:
        """``(S, N)`` parent of every process, ``-1`` where ``Par = ⊥``."""
        table = self._table
        return table[np.arange(table.shape[0]), codes.astype(np.int64)]

    def roots(self, parents: np.ndarray) -> np.ndarray:
        """``(S, N)`` ``Root(p)`` of every process (Definition 12).

        One step of ``root_of`` moves a process to its parent unless it
        is a leader or forms a mutual pair with its parent; pointer
        jumping composes that step with itself until every process sits
        at its root — on a tree, at most ``⌈log₂ N⌉ + 1`` rounds.
        """
        own = np.broadcast_to(np.arange(parents.shape[1]), parents.shape)
        parent = np.where(parents < 0, own, parents)
        grandparent = np.take_along_axis(parents, parent, axis=1)
        stop = (parents < 0) | (grandparent == own)
        step = np.where(stop, own, parent)
        while True:
            jumped = np.take_along_axis(step, step, axis=1)
            if np.array_equal(jumped, step):
                return step
            step = jumped


class _LegitimateConfigurations(BatchLegitimacy):
    """Definition 13's ``LC`` over a code matrix: exactly one leader, and
    every process's root is the same (hence the leader, its own root)."""

    __slots__ = ("_pointers",)

    def __init__(self, pointers: ParentPointers) -> None:
        self._pointers = pointers

    def evaluate(self, codes, enabled, engine):
        parents = self._pointers.parents(codes)
        roots = self._pointers.roots(parents)
        one_leader = (parents < 0).sum(axis=1) == 1
        return one_leader & (roots == roots[:, :1]).all(axis=1)


class TreeLeaderSpec(Specification):
    """Definition 5 via ``LC``: one leader, everyone oriented toward it.

    ``validate_behavior`` checks the stability half of Lemma 10 on the
    explored space: every legitimate configuration must be terminal (the
    elected leader never changes).
    """

    name = "leader-election-tree"

    def legitimate(self, system: System, configuration: Configuration) -> bool:
        return satisfies_lc(system, configuration)

    def batch_legitimacy(self, system: System) -> BatchLegitimacy | None:
        # LC computed from the Par codes, never as "terminal": that
        # equivalence is Lemma 10, which THM4 verifies through this form.
        pointers = ParentPointers.of(system)
        return None if pointers is None else _LegitimateConfigurations(pointers)

    def validate_behavior(self, system, space, legitimate_ids):
        ids = np.asarray(legitimate_ids, dtype=np.int64)
        return [
            f"legitimate configuration {config_id} is not terminal"
            for config_id in ids[space.enabled_bits[ids] != 0].tolist()
        ]


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def make_leader_tree_system(graph: Graph) -> System:
    """Algorithm 2 on a tree graph."""
    if not is_tree(graph):
        raise TopologyError("Algorithm 2 requires a tree network")
    return System(LeaderTreeAlgorithm(), Topology(graph))


def figure2_system() -> System:
    """Algorithm 2 on the Figure 2 tree."""
    return make_leader_tree_system(figure2_tree())


def figure2_initial_configuration(system: System) -> Configuration:
    """Configuration (i) of Figure 2 (adapted to our reconstructed tree).

    Global parent targets: P1→P3, P2→P5, P3→P1, P4→P8, P5→P2, P6→P8,
    P7→P8, P8→P7 — which makes A1 enabled exactly at P1, P2, P7, P8,
    A2 exactly at P3, P5, P6, and P4 stable, as the paper describes.
    """
    topology = system.topology
    global_parent = {0: 2, 1: 4, 2: 0, 3: 7, 4: 1, 5: 7, 6: 7, 7: 6}
    states = []
    for process in system.processes:
        local = topology.local_index(process, global_parent[process])
        states.append((local,))
    configuration = tuple(states)
    system.check_configuration(configuration)
    return configuration
