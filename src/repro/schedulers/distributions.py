"""Scheduler *distributions*: subset probabilities for Markov analysis.

Definition 6 of the paper: a **randomized scheduler** chooses the moving
processes uniformly among the allowed choices — uniformly over enabled
singletons (central randomized) or uniformly over non-empty subsets of the
enabled processes (distributed randomized).  Together with the outcome
probabilities of probabilistic actions, a distribution turns the system
into a finite Markov chain over ``C``.

:class:`BernoulliDistribution` activates each enabled process independently
with probability ``p``.  With ``include_empty=True`` the empty draw is a
self-loop; this is exactly the projected behavior of a coin-toss
transformed system under the synchronous scheduler, which is what makes the
lumped analysis of :mod:`repro.markov.lumping` exact.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.errors import SchedulerError

__all__ = [
    "SchedulerDistribution",
    "SynchronousDistribution",
    "CentralRandomizedDistribution",
    "DistributedRandomizedDistribution",
    "BernoulliDistribution",
    "distribution_by_name",
]

#: A weighted subset: (probability, sorted tuple of processes).  The empty
#: tuple is only produced by BernoulliDistribution(include_empty=True) and
#: means "nobody moves" (a self-loop in the chain).
WeightedSubset = tuple[float, tuple[int, ...]]


class SchedulerDistribution(ABC):
    """Probability distribution over activation subsets."""

    name: str = "abstract"

    @abstractmethod
    def weighted_subsets(
        self, enabled: Sequence[int]
    ) -> list[WeightedSubset]:
        """Distribution over subsets given the enabled set (sums to 1)."""

    def check(self, enabled: Sequence[int]) -> None:
        """Assert the distribution is a distribution (testing helper)."""
        weighted = self.weighted_subsets(enabled)
        total = sum(w for w, _ in weighted)
        if abs(total - 1.0) > 1e-9:
            raise SchedulerError(
                f"{self.name}: subset probabilities sum to {total}"
            )


class SynchronousDistribution(SchedulerDistribution):
    """All enabled processes move, with probability one."""

    name = "synchronous"

    def weighted_subsets(
        self, enabled: Sequence[int]
    ) -> list[WeightedSubset]:
        if not enabled:
            raise SchedulerError("no enabled process: terminal configuration")
        return [(1.0, tuple(sorted(enabled)))]


class CentralRandomizedDistribution(SchedulerDistribution):
    """Uniform over enabled singletons (Definition 6, central)."""

    name = "central-randomized"

    def weighted_subsets(
        self, enabled: Sequence[int]
    ) -> list[WeightedSubset]:
        if not enabled:
            raise SchedulerError("no enabled process: terminal configuration")
        weight = 1.0 / len(enabled)
        return [(weight, (process,)) for process in sorted(enabled)]


class DistributedRandomizedDistribution(SchedulerDistribution):
    """Uniform over the ``2^k - 1`` non-empty subsets (Definition 6)."""

    name = "distributed-randomized"

    def __init__(self, max_enabled: int = 16) -> None:
        self._max_enabled = max_enabled

    def weighted_subsets(
        self, enabled: Sequence[int]
    ) -> list[WeightedSubset]:
        if not enabled:
            raise SchedulerError("no enabled process: terminal configuration")
        k = len(enabled)
        if k > self._max_enabled:
            raise SchedulerError(
                f"{k} enabled processes exceed the enumeration budget"
                f" ({self._max_enabled})"
            )
        ordered = tuple(sorted(enabled))
        weight = 1.0 / (2**k - 1)
        return [
            (
                weight,
                tuple(ordered[i] for i in range(k) if mask >> i & 1),
            )
            for mask in range(1, 2**k)
        ]


class BernoulliDistribution(SchedulerDistribution):
    """Each enabled process moves independently with probability ``p``.

    ``include_empty=True`` keeps the all-lose draw as an explicit empty
    subset (self-loop); ``include_empty=False`` renormalizes over non-empty
    subsets, yielding a legal distributed scheduler.
    """

    def __init__(
        self, probability: float = 0.5, include_empty: bool = True,
        max_enabled: int = 16,
    ) -> None:
        if not 0.0 < probability < 1.0:
            raise SchedulerError(
                f"activation probability must be in (0, 1), got {probability}"
            )
        self._p = probability
        self._include_empty = include_empty
        self._max_enabled = max_enabled
        suffix = "lazy" if include_empty else "strict"
        self.name = f"bernoulli-{probability}-{suffix}"

    def weighted_subsets(
        self, enabled: Sequence[int]
    ) -> list[WeightedSubset]:
        if not enabled:
            raise SchedulerError("no enabled process: terminal configuration")
        k = len(enabled)
        if k > self._max_enabled:
            raise SchedulerError(
                f"{k} enabled processes exceed the enumeration budget"
                f" ({self._max_enabled})"
            )
        ordered = tuple(sorted(enabled))
        p, q = self._p, 1.0 - self._p
        result: list[WeightedSubset] = []
        for mask in range(0 if self._include_empty else 1, 2**k):
            members = tuple(ordered[i] for i in range(k) if mask >> i & 1)
            weight = p ** len(members) * q ** (k - len(members))
            result.append((weight, members))
        if not self._include_empty:
            total = 1.0 - q**k
            result = [(w / total, members) for w, members in result]
        return result


_DISTRIBUTIONS = {
    "synchronous": SynchronousDistribution,
    "central-randomized": CentralRandomizedDistribution,
    "distributed-randomized": DistributedRandomizedDistribution,
}


def distribution_by_name(name: str) -> SchedulerDistribution:
    """Construct a distribution from its registry name."""
    try:
        return _DISTRIBUTIONS[name]()
    except KeyError:
        raise SchedulerError(
            f"unknown scheduler distribution {name!r};"
            f" known: {sorted(_DISTRIBUTIONS)}"
        ) from None
