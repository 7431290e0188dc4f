"""Stabilization classification: the paper's Definitions 1-3 as a verdict.

:func:`classify` explores a system under a scheduler relation, checks
strong closure, possible convergence and certain convergence, and returns
a :class:`StabilizationVerdict` that names the stabilization class
(deterministically self-stabilizing / weak-stabilizing only / neither).

The quantitative counterparts live next door: Definition 2's
probability-1 convergence under a *randomized* daemon in
:mod:`repro.stabilization.probabilistic`, and the best-/worst-case
daemons of the same family — the MDP view that separates weak from
self stabilization quantitatively — in
:mod:`repro.stabilization.adversarial`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.configuration import Configuration
from repro.core.system import System
from repro.errors import StateSpaceError
from repro.schedulers.relations import SchedulerRelation
from repro.stabilization.closure import check_strong_closure
from repro.stabilization.convergence import (
    certain_convergence,
    possible_convergence,
)
from repro.stabilization.specification import Specification
from repro.stabilization.statespace import StateSpace

__all__ = ["StabilizationVerdict", "classify"]


@dataclass(frozen=True)
class StabilizationVerdict:
    """Result of an exhaustive stabilization check.

    ``is_weak_stabilizing`` and ``is_self_stabilizing`` follow
    Definitions 3 and 1: closure plus possible (resp. certain)
    convergence.  ``behavior_violations`` carries any failures of the
    specification's extra execution checks over ``L``.
    """

    algorithm: str
    specification: str
    relation: str
    num_configurations: int
    num_legitimate: int
    strong_closure: bool
    num_closure_violations: int
    possible_convergence: bool
    num_stranded: int
    certain_convergence: bool
    num_terminal_outside: int
    has_transient_cycle: bool
    behavior_violations: tuple[str, ...]

    @property
    def is_weak_stabilizing(self) -> bool:
        """Definition 3: closure + possible convergence (+ behavior)."""
        return (
            self.strong_closure
            and self.possible_convergence
            and not self.behavior_violations
            and self.num_legitimate > 0
        )

    @property
    def is_self_stabilizing(self) -> bool:
        """Definition 1: closure + certain convergence (+ behavior)."""
        return (
            self.strong_closure
            and self.certain_convergence
            and not self.behavior_violations
            and self.num_legitimate > 0
        )

    @property
    def stabilization_class(self) -> str:
        """Human-readable class name."""
        if self.is_self_stabilizing:
            return "self-stabilizing"
        if self.is_weak_stabilizing:
            return "weak-stabilizing (not self-stabilizing)"
        return "not stabilizing"

    def summary(self) -> str:
        """One-line report used by experiments and examples."""
        return (
            f"{self.algorithm} / {self.specification} under {self.relation}:"
            f" {self.stabilization_class}"
            f" (|C|={self.num_configurations}, |L|={self.num_legitimate},"
            f" closure={self.strong_closure},"
            f" possible={self.possible_convergence},"
            f" certain={self.certain_convergence})"
        )


def classify(
    system: System,
    specification: Specification,
    relation: SchedulerRelation,
    initial: Iterable[Configuration] | None = None,
    max_configurations: int = 2_000_000,
    space: StateSpace | None = None,
) -> StabilizationVerdict:
    """Explore and classify; pass ``space`` to reuse an exploration."""
    if space is None:
        space = StateSpace.explore(
            system,
            relation,
            initial=initial,
            max_configurations=max_configurations,
        )
    elif space.system is not system:
        raise StateSpaceError("provided space belongs to a different system")

    legitimate = space.legitimate_mask(specification)
    closure_violations = check_strong_closure(space, legitimate)
    possible, stranded = possible_convergence(space, legitimate)
    certain = certain_convergence(space, legitimate)
    legitimate_ids = np.flatnonzero(legitimate).tolist()
    behavior = tuple(
        specification.validate_behavior(system, space, legitimate_ids)
    )
    return StabilizationVerdict(
        algorithm=system.algorithm.name,
        specification=specification.name,
        relation=relation.name,
        num_configurations=space.num_configurations,
        num_legitimate=len(legitimate_ids),
        strong_closure=not closure_violations,
        num_closure_violations=len(closure_violations),
        possible_convergence=possible,
        num_stranded=len(stranded),
        certain_convergence=certain.holds,
        num_terminal_outside=len(certain.terminal_outside),
        has_transient_cycle=certain.has_transient_cycle,
        behavior_violations=behavior,
    )
