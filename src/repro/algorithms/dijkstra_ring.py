"""Dijkstra's K-state token ring — the non-anonymous baseline.

Reference [10] of the paper.  Herman's impossibility (used by the paper's
Section 3.1) says *anonymous* deterministic self-stabilizing token
circulation is impossible; Dijkstra's classic protocol shows the problem
becomes solvable once one process (the "bottom" machine) is distinguished.
We include it as the deterministic self-stabilizing reference point of the
baseline comparison (experiment Q3).

Each process holds ``x ∈ [0, K)``; the ring is oriented.  Bottom moves
when ``x_bottom = x_pred`` (``x ← x + 1 mod K``); every other process
moves when ``x ≠ x_pred`` (``x ← x_pred``).  A process is *privileged*
(holds the token) iff it is enabled.  For ``K ≥ N`` the protocol is
self-stabilizing to "exactly one privilege" under the central scheduler —
our checker verifies this exhaustively on small rings.

The distinguished bottom process is modeled through per-process constants
(identities are inputs, not state), which is exactly how the paper's model
accommodates non-anonymous algorithms.
"""

from __future__ import annotations

from repro.core.actions import Action, deterministic_action
from repro.core.algorithm import Algorithm
from repro.core.configuration import Configuration
from repro.core.system import System
from repro.core.topology import OrientedRing, Topology
from repro.core.variables import VariableLayout, VarSpec
from repro.core.view import View
from repro.errors import ModelError, TopologyError
from repro.graphs.generators import ring as make_ring
from repro.markov.batch import BatchLegitimacy, EnabledCountLegitimacy
from repro.stabilization.specification import Specification
from repro.stabilization.statespace import mask_to_subset

__all__ = [
    "DijkstraKStateAlgorithm",
    "SinglePrivilegeSpec",
    "make_dijkstra_system",
    "privileged_processes",
]


def _bottom_guard(view: View) -> bool:
    return bool(view.const("is_bottom")) and view.get("x") == view.nbr(
        view.const("pred"), "x"
    )


def _bottom_statement(view: View) -> None:
    view.set("x", (view.get("x") + 1) % view.const("k"))


def _other_guard(view: View) -> bool:
    return not view.const("is_bottom") and view.get("x") != view.nbr(
        view.const("pred"), "x"
    )


def _other_statement(view: View) -> None:
    view.set("x", view.nbr(view.const("pred"), "x"))


class DijkstraKStateAlgorithm(Algorithm):
    """Dijkstra's first (K-state) mutual-exclusion protocol."""

    name = "dijkstra-k-state"

    def __init__(self, ring_size: int, k: int | None = None) -> None:
        if ring_size < 3:
            raise ModelError("Dijkstra's ring needs at least 3 processes")
        self._n = ring_size
        self._k = ring_size if k is None else k
        if self._k < 2:
            raise ModelError("K must be at least 2")

    @property
    def k(self) -> int:
        """Number of counter states."""
        return self._k

    def layout(self, topology: Topology, process: int) -> VariableLayout:
        return VariableLayout((VarSpec("x", tuple(range(self._k))),))

    def constants(self, topology: Topology, process: int):
        if not isinstance(topology, OrientedRing):
            raise TopologyError("Dijkstra's protocol needs an oriented ring")
        return {
            "pred": topology.pred_local_index(process),
            "is_bottom": process == 0,
            "k": self._k,
        }

    def actions(self) -> tuple[Action, ...]:
        return (
            deterministic_action("bottom", _bottom_guard, _bottom_statement),
            deterministic_action("other", _other_guard, _other_statement),
        )


def privileged_processes(
    system: System, configuration: Configuration
) -> tuple[int, ...]:
    """Privileged = enabled (Dijkstra's definition of holding the token)."""
    return system.enabled_processes(configuration)


class SinglePrivilegeSpec(Specification):
    """Mutual exclusion: exactly one privileged process.

    ``validate_behavior`` checks circulation liveness on the legitimate
    sub-space under the central scheduler: following privileges, every
    process becomes privileged within a full rotation (3N steps bounds it
    comfortably).
    """

    name = "single-privilege"

    def legitimate(self, system: System, configuration: Configuration) -> bool:
        return len(privileged_processes(system, configuration)) == 1

    def batch_legitimacy(self, system: System) -> BatchLegitimacy:
        # Privileged is enabled by definition, on any system.
        return EnabledCountLegitimacy(1)

    def validate_behavior(self, system, space, legitimate_ids):
        if not legitimate_ids:
            return ["no legitimate configurations"]
        violations: list[str] = []
        config_id = legitimate_ids[0]
        seen: set[int] = set()
        for _ in range(3 * system.num_processes):
            # The explored enabled set is the privileged set.
            privileged = mask_to_subset(int(space.enabled_bits[config_id]))
            if len(privileged) != 1:
                violations.append("privilege count deviated from one")
                break
            seen.add(privileged[0])
            successors = space.successors(config_id)
            if not successors:
                violations.append("legitimate configuration is terminal")
                break
            config_id = successors[0]
        if not violations and seen != set(system.processes):
            violations.append(
                f"privilege visited only {sorted(seen)} processes"
            )
        return violations


def make_dijkstra_system(ring_size: int, k: int | None = None) -> System:
    """Dijkstra's K-state protocol on an oriented ring (default K = N)."""
    algorithm = DijkstraKStateAlgorithm(ring_size, k)
    return System(algorithm, OrientedRing(make_ring(ring_size)))
