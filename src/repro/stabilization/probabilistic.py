"""Probabilistic self-stabilization as a first-class verdict.

Definition 2 of the paper: strong closure plus convergence to ``L`` with
probability 1.  Given a scheduler *distribution* (Definition 6 or the
synchronous scheduler), the system is a finite Markov chain; the verdict
combines:

* closure of ``L`` over the chain's support (once legitimate, every
  positive-probability step stays legitimate);
* the minimum absorption probability into ``L`` (probability-1
  convergence ⟺ it equals 1);
* expected stabilization times (finite exactly when absorption is 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.configuration import Configuration
from repro.core.system import System
from repro.markov.builder import build_chain
from repro.markov.chain import MarkovChain, concat_ranges
from repro.markov.hitting import (
    ABSORPTION_TOLERANCE,
    absorption_probabilities,
    expected_hitting_times,
)
from repro.schedulers.distributions import SchedulerDistribution
from repro.stabilization.specification import Specification

__all__ = ["ProbabilisticVerdict", "classify_probabilistic"]


@dataclass(frozen=True)
class ProbabilisticVerdict:
    """Definition 2, measured."""

    algorithm: str
    specification: str
    scheduler: str
    num_states: int
    num_legitimate: int
    support_closure: bool
    num_closure_violations: int
    min_absorption: float
    worst_expected_steps: float
    mean_expected_steps: float

    @property
    def converges_with_probability_one(self) -> bool:
        """Probabilistic convergence property (Definition 2, (ii))."""
        return self.min_absorption >= 1.0 - ABSORPTION_TOLERANCE

    @property
    def is_probabilistically_self_stabilizing(self) -> bool:
        """Definition 2: closure + probability-1 convergence."""
        return (
            self.support_closure
            and self.converges_with_probability_one
            and self.num_legitimate > 0
        )

    def summary(self) -> str:
        """One-line report."""
        verdict = (
            "probabilistically self-stabilizing"
            if self.is_probabilistically_self_stabilizing
            else "NOT probabilistically self-stabilizing"
        )
        return (
            f"{self.algorithm} / {self.specification} under"
            f" {self.scheduler}: {verdict}"
            f" (min absorption {self.min_absorption:.6f},"
            f" worst E[steps] {self.worst_expected_steps:.3f})"
        )


def classify_probabilistic(
    system: System,
    specification: Specification,
    distribution: SchedulerDistribution,
    initial: Iterable[Configuration] | None = None,
    max_states: int = 500_000,
    chain: MarkovChain | None = None,
    engine: str = "auto",
) -> ProbabilisticVerdict:
    """Build (or reuse) the chain and evaluate Definition 2.

    ``engine`` forwards to :func:`repro.markov.builder.build_chain`
    (``"auto"`` | ``"compiled"`` | ``"scalar"``) when no prebuilt chain
    is given.
    """
    if chain is None:
        chain = build_chain(
            system,
            distribution,
            initial=initial,
            max_states=max_states,
            engine=engine,
        )
    legitimate = chain.mark(specification)

    # Closure over the support: count (legitimate state, illegitimate
    # successor) edges — one gather over the CSR slices of the
    # legitimate rows instead of a per-edge dict walk.
    _, indices, indptr = chain.transition_arrays()
    legit_ids = np.flatnonzero(legitimate)
    successors = indices[
        concat_ranges(indptr[legit_ids], indptr[legit_ids + 1])
    ]
    closure_violations = int((~legitimate[successors]).sum())

    if legitimate.any():
        absorption = absorption_probabilities(chain, legitimate)
        min_absorption = float(absorption.min())
        if min_absorption >= 1.0 - ABSORPTION_TOLERANCE:
            times = expected_hitting_times(
                chain, legitimate, absorption=absorption
            )
            transient = ~legitimate
            worst = float(times[transient].max()) if transient.any() else 0.0
            mean = float(times[transient].mean()) if transient.any() else 0.0
        else:
            worst = mean = float("inf")
    else:
        min_absorption = 0.0
        worst = mean = float("inf")

    return ProbabilisticVerdict(
        algorithm=system.algorithm.name,
        specification=specification.name,
        scheduler=chain.scheduler_name,
        num_states=chain.num_states,
        num_legitimate=int(legitimate.sum()),
        support_closure=closure_violations == 0,
        num_closure_violations=closure_violations,
        min_absorption=min_absorption,
        worst_expected_steps=worst,
        mean_expected_steps=mean,
    )
