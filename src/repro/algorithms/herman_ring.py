"""Herman's probabilistic token circulation — the probabilistic baseline.

Reference [16] of the paper (Herman 1990, "Probabilistic
self-stabilization").  On an *odd* anonymous oriented ring each process
holds one bit and, every synchronous round, runs::

    T  :: x_p = x_Pred(p) → x_p ← Rand(0, 1)     (I hold a token)
    NT :: x_p ≠ x_Pred(p) → x_p ← x_Pred(p)      (copy the predecessor)

A process holds a token iff its bit equals its predecessor's.  The token
count has the parity of N (odd), never increases, and adjacent tokens
merge, so the system converges to a single circulating token with
probability 1 in expected Θ(N²) rounds — the quantitative baseline of
experiment Q3.
"""

from __future__ import annotations

from repro.algorithms.herman_variants import (
    HermanRandomBitAlgorithm,
    HermanRandomPassAlgorithm,
    HermanSpeedReducer2Algorithm,
    HermanSpeedReducerAlgorithm,
)
from repro.core.actions import Action, Outcome, deterministic_action
from repro.core.algorithm import Algorithm
from repro.core.configuration import Configuration
from repro.core.system import System
from repro.core.topology import OrientedRing, Topology
from repro.core.variables import VariableLayout, VarSpec
from repro.core.view import View
from repro.errors import ModelError, TopologyError
from repro.graphs.generators import ring as make_ring
from repro.markov.batch import ActionCountLegitimacy, BatchLegitimacy
from repro.stabilization.specification import Specification

__all__ = [
    "HermanAlgorithm",
    "HermanSingleTokenSpec",
    "make_herman_system",
    "herman_token_holders",
]


def _token_guard(view: View) -> bool:
    return view.get("x") == view.nbr(view.const("pred"), "x")


def _set_zero(view: View) -> None:
    view.set("x", 0)


def _set_one(view: View) -> None:
    view.set("x", 1)


def _token_outcomes(view: View):
    return (Outcome(0.5, _set_zero), Outcome(0.5, _set_one))


def _copy_guard(view: View) -> bool:
    return view.get("x") != view.nbr(view.const("pred"), "x")


def _copy_statement(view: View) -> None:
    view.set("x", view.nbr(view.const("pred"), "x"))


class HermanAlgorithm(Algorithm):
    """Herman's bit-flipping protocol (odd rings, synchronous scheduler)."""

    name = "herman-token-circulation"

    def __init__(self, ring_size: int) -> None:
        if ring_size < 3 or ring_size % 2 == 0:
            raise ModelError(
                f"Herman's protocol needs an odd ring of size >= 3,"
                f" got {ring_size}"
            )
        self._n = ring_size

    @property
    def is_probabilistic(self) -> bool:
        return True

    def layout(self, topology: Topology, process: int) -> VariableLayout:
        return VariableLayout((VarSpec("x", (0, 1)),))

    def constants(self, topology: Topology, process: int):
        if not isinstance(topology, OrientedRing):
            raise TopologyError("Herman's protocol needs an oriented ring")
        return {"pred": topology.pred_local_index(process)}

    def actions(self) -> tuple[Action, ...]:
        return (
            Action("T", _token_guard, _token_outcomes),
            deterministic_action("NT", _copy_guard, _copy_statement),
        )


#: The actions whose guards together are the token predicate
#: ``x_p = x_Pred(p)``, per Herman algorithm: ``T`` itself, or the speed
#: reducers' ``TF``/``TR``, which split it on the gate ``y``.
_TOKEN_ACTIONS: dict[type, tuple[str, ...]] = {
    HermanAlgorithm: ("T",),
    HermanRandomBitAlgorithm: ("T",),
    HermanRandomPassAlgorithm: ("T",),
    HermanSpeedReducerAlgorithm: ("TF", "TR"),
    HermanSpeedReducer2Algorithm: ("TF", "TR"),
}


def herman_token_holders(
    system: System, configuration: Configuration
) -> list[int]:
    """Processes whose bit equals their predecessor's bit."""
    holders = []
    for p in system.processes:
        view = system.view(configuration, p, writable=False)
        if _token_guard(view):
            holders.append(p)
    return holders


class HermanSingleTokenSpec(Specification):
    """Exactly one token (the probabilistic convergence target).

    Its batch form counts the cells where a token action is enabled
    (the compiled tables' per-row action index), on the Herman
    algorithms whose token actions' guards are the token predicate;
    every other system gets the scalar predicate.
    """

    name = "herman-single-token"

    def legitimate(self, system: System, configuration: Configuration) -> bool:
        return len(herman_token_holders(system, configuration)) == 1

    def batch_legitimacy(self, system: System) -> BatchLegitimacy | None:
        names = _TOKEN_ACTIONS.get(type(system.algorithm))
        if names is None:
            return None
        return ActionCountLegitimacy(
            [
                position
                for position, action in enumerate(system.actions)
                if action.name in names
            ],
            1,
        )


def make_herman_system(ring_size: int) -> System:
    """Herman's protocol on an odd oriented ring."""
    return System(HermanAlgorithm(ring_size), OrientedRing(make_ring(ring_size)))
