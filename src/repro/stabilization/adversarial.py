"""Best-case / worst-case daemons as first-class verdicts.

The probabilistic classifier (:mod:`repro.stabilization.probabilistic`)
fixes a *randomized* daemon and measures Definition 2 on the resulting
chain.  This module asks the adversarial counterparts over the same
daemon family, via the MDP tier (:mod:`repro.markov.mdp`):

* :func:`worst_case_convergence` — the most hostile daemon.  Its verdict
  refutes robustness: a worst-case reach probability below one exhibits
  a daemon under which the system does *not* converge almost surely
  (the paper's weak-but-not-self-stabilizing separations, e.g.
  Theorem 2's token circulation under the unfair distributed daemon).
* :func:`best_case_convergence` — the most helpful daemon.  Reach
  probability one here is the MDP shadow of weak stabilization: *some*
  daemon drives every configuration home.
* :func:`daemon_bracket` — both of the above plus the randomized
  daemon's chain verdict in the middle, reported as the
  ``[best, expected, worst]`` expected-stabilization-time bracket.
  Since the randomized daemon is one probabilistic strategy inside the
  MDP's strategy space, ``best ≤ expected ≤ worst`` holds per state —
  the invariant ``tests/test_mdp.py`` asserts for every conformance
  registry system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.system import System
from repro.errors import MarkovError
from repro.markov.builder import DEFAULT_MAX_STATES
from repro.markov.mdp import (
    MDP_DAEMONS,
    REACH_TOLERANCE,
    MarkovDecisionProcess,
    build_mdp,
)
from repro.schedulers.distributions import (
    CentralRandomizedDistribution,
    DistributedRandomizedDistribution,
    SchedulerDistribution,
    SynchronousDistribution,
)
from repro.stabilization.probabilistic import (
    ProbabilisticVerdict,
    classify_probabilistic,
)
from repro.stabilization.specification import Specification

__all__ = [
    "AdversarialVerdict",
    "DaemonBracket",
    "best_case_convergence",
    "daemon_bracket",
    "randomized_distribution_for",
    "worst_case_convergence",
]


@dataclass(frozen=True)
class AdversarialVerdict:
    """One optimized daemon's convergence report.

    ``objective="worst"`` maximizes non-convergence then expected time;
    ``objective="best"`` minimizes them.  ``min_reach_probability`` is
    the minimum over states of the optimized reach probability, and the
    expected-step aggregates follow the
    :class:`~repro.markov.hitting.HittingSummary` conventions (over
    illegitimate states; ``inf`` when convergence is not almost sure).
    """

    algorithm: str
    specification: str
    daemon: str
    objective: str
    num_states: int
    num_legitimate: int
    min_reach_probability: float
    worst_expected_steps: float
    mean_expected_steps: float

    @property
    def converges_with_probability_one(self) -> bool:
        """Whether the optimized daemon still converges almost surely."""
        return self.min_reach_probability >= 1.0 - REACH_TOLERANCE

    @property
    def max_nonconvergence_probability(self) -> float:
        """The daemon's best probability of *never* converging."""
        return 1.0 - self.min_reach_probability

    def row(self) -> dict[str, object]:
        """Dict form for tables."""
        return {
            "daemon": f"{self.objective}({self.daemon})",
            "states": self.num_states,
            "legitimate": self.num_legitimate,
            "min_reach": round(self.min_reach_probability, 10),
            "prob1": self.converges_with_probability_one,
            "worst_E[steps]": round(self.worst_expected_steps, 4),
            "mean_E[steps]": round(self.mean_expected_steps, 4),
        }

    def summary(self) -> str:
        """One-line report."""
        if self.converges_with_probability_one:
            tail = (
                f"converges w.p. 1,"
                f" mean E[steps] = {self.mean_expected_steps:.4g}"
            )
        else:
            tail = (
                "non-convergence probability up to"
                f" {self.max_nonconvergence_probability:.4g}"
            )
        return (
            f"{self.algorithm} / {self.specification} under the"
            f" {self.objective}-case {self.daemon} daemon: {tail}"
        )


def randomized_distribution_for(daemon: str) -> SchedulerDistribution:
    """The randomized strategy inside a daemon family's choice space.

    This is the chain the bracket's *expected* leg runs on: the uniform
    randomized daemon over exactly the subsets the adversary may pick.
    """
    if daemon == "central":
        return CentralRandomizedDistribution()
    if daemon == "distributed":
        return DistributedRandomizedDistribution()
    if daemon == "synchronous":
        return SynchronousDistribution()
    raise MarkovError(
        f"unknown daemon {daemon!r}; known: {MDP_DAEMONS}"
    )


def _optimized_verdict(
    mdp: MarkovDecisionProcess,
    specification: Specification,
    objective: str,
) -> AdversarialVerdict:
    direction = "max" if objective == "worst" else "min"
    # The adversary optimizes reachability the other way round from the
    # expected time: the worst daemon *minimizes* reach probability.
    reach_direction = "min" if objective == "worst" else "max"
    legitimate = mdp.mark(specification)
    if legitimate.any():
        reach = mdp.reachability(legitimate, reach_direction)
        min_reach = float(reach.min())
        times = mdp.expected_hitting_times(legitimate, direction)
        transient = ~legitimate
        if transient.any():
            worst = float(times[transient].max())
            mean = float(times[transient].mean())
        else:
            worst = mean = 0.0
    else:
        min_reach = 0.0
        worst = mean = float("inf")
    return AdversarialVerdict(
        algorithm=mdp.system.algorithm.name,
        specification=specification.name,
        daemon=mdp.daemon,
        objective=objective,
        num_states=mdp.num_states,
        num_legitimate=int(legitimate.sum()),
        min_reach_probability=min_reach,
        worst_expected_steps=worst,
        mean_expected_steps=mean,
    )


def worst_case_convergence(
    system: System,
    specification: Specification,
    daemon: str = "distributed",
    max_states: int = DEFAULT_MAX_STATES,
    mdp: MarkovDecisionProcess | None = None,
) -> AdversarialVerdict:
    """Convergence under the most hostile daemon of a family.

    Pass a prebuilt ``mdp`` to share the expansion across the best/worst
    pair (as :func:`daemon_bracket` does).
    """
    if mdp is None:
        mdp = build_mdp(
            system, daemon=daemon, max_states=max_states
        )
    return _optimized_verdict(mdp, specification, "worst")


def best_case_convergence(
    system: System,
    specification: Specification,
    daemon: str = "distributed",
    max_states: int = DEFAULT_MAX_STATES,
    mdp: MarkovDecisionProcess | None = None,
) -> AdversarialVerdict:
    """Convergence under the most helpful daemon of a family."""
    if mdp is None:
        mdp = build_mdp(
            system, daemon=daemon, max_states=max_states
        )
    return _optimized_verdict(mdp, specification, "best")


@dataclass(frozen=True)
class DaemonBracket:
    """``[best daemon, randomized expectation, worst daemon]`` report."""

    best: AdversarialVerdict
    expected: ProbabilisticVerdict
    worst: AdversarialVerdict

    @property
    def ordered(self) -> bool:
        """Whether the aggregate expected steps respect the bracket.

        ``inf``-aware: an infinite leg is an upper bound on nothing, so
        only the finite comparisons are checked.
        """
        tolerance = 1e-6
        best = self.best.mean_expected_steps
        expected = self.expected.mean_expected_steps
        worst = self.worst.mean_expected_steps
        if np.isfinite(expected) and not best <= expected + tolerance:
            return False
        if (
            np.isfinite(worst)
            and np.isfinite(expected)
            and not expected <= worst + tolerance
        ):
            return False
        return True

    def row(self) -> dict[str, object]:
        """One experiment-table row for the bracket."""
        return {
            "algorithm": self.best.algorithm,
            "daemon": self.best.daemon,
            "states": self.best.num_states,
            "best_E[steps]": round(self.best.mean_expected_steps, 4),
            "expected_E[steps]": round(
                self.expected.mean_expected_steps, 4
            ),
            "worst_E[steps]": round(self.worst.mean_expected_steps, 4),
            "worst_nonconv_prob": round(
                self.worst.max_nonconvergence_probability, 10
            ),
            "ordered": self.ordered,
        }


def daemon_bracket(
    system: System,
    specification: Specification,
    daemon: str = "distributed",
    max_states: int = DEFAULT_MAX_STATES,
) -> DaemonBracket:
    """The full ``[best, expected, worst]`` bracket for one system.

    One MDP expansion serves both optimized legs; the middle leg is the
    PR 4 compiled chain under the family's uniform randomized daemon
    (:func:`randomized_distribution_for`).
    """
    mdp = build_mdp(system, daemon=daemon, max_states=max_states)
    best = _optimized_verdict(mdp, specification, "best")
    worst = _optimized_verdict(mdp, specification, "worst")
    expected = classify_probabilistic(
        system,
        specification,
        randomized_distribution_for(daemon),
        max_states=max_states,
    )
    return DaemonBracket(best=best, expected=expected, worst=worst)
