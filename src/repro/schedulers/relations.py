"""Scheduler *relations*: which activation subsets are allowed.

For model checking we need the scheduler as a predicate over steps: given
``Enabled(γ)``, which non-empty subsets may the scheduler pick?  This is
the paper's scheduler taxonomy (Section 2):

* **central** — exactly one enabled process per step (Dijkstra);
* **distributed** — any non-empty subset (Burns-Gouda-Miller);
* **synchronous** — all enabled processes (Herman);
* **k-bounded cardinality** — at most k movers (interpolates the first two).

Fairness is *not* part of the relation — it constrains infinite executions
and is handled by :mod:`repro.schedulers.fairness` and the witness search.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import combinations
from typing import Iterator, Sequence

from repro.errors import SchedulerError

__all__ = [
    "SchedulerRelation",
    "CentralRelation",
    "DistributedRelation",
    "SynchronousRelation",
    "BoundedRelation",
    "relation_by_name",
]


class SchedulerRelation(ABC):
    """Enumerates the activation subsets a scheduler may choose."""

    #: Short name used in reports and the experiment registry.
    name: str = "abstract"

    @abstractmethod
    def subsets(self, enabled: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Yield every allowed subset of ``enabled`` (each sorted)."""

    def allows(self, enabled: Sequence[int], subset: Sequence[int]) -> bool:
        """Whether ``subset`` is an allowed choice given ``enabled``."""
        wanted = tuple(sorted(set(subset)))
        return any(candidate == wanted for candidate in self.subsets(enabled))

    def max_subsets(self, num_enabled: int) -> int:
        """Number of allowed subsets for a given enabled count."""
        return sum(
            1 for _ in self.subsets(tuple(range(num_enabled)))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class CentralRelation(SchedulerRelation):
    """One enabled process per step."""

    name = "central"

    def subsets(self, enabled: Sequence[int]) -> Iterator[tuple[int, ...]]:
        for process in enabled:
            yield (process,)


class DistributedRelation(SchedulerRelation):
    """Any non-empty subset of the enabled processes.

    Enumeration is exponential in ``|Enabled|``; ``max_enabled`` guards
    against accidental blow-ups during exhaustive exploration.
    """

    name = "distributed"

    def __init__(self, max_enabled: int = 16) -> None:
        self._max_enabled = max_enabled

    @property
    def max_enabled(self) -> int:
        """Largest enabled count :meth:`subsets` will enumerate."""
        return self._max_enabled

    def subsets(self, enabled: Sequence[int]) -> Iterator[tuple[int, ...]]:
        k = len(enabled)
        if k > self._max_enabled:
            raise SchedulerError(
                f"{k} enabled processes exceed the enumeration budget"
                f" ({self._max_enabled}); use a sampler instead"
            )
        ordered = tuple(sorted(enabled))
        for mask in range(1, 2**k):
            yield tuple(
                ordered[i] for i in range(k) if mask >> i & 1
            )


class SynchronousRelation(SchedulerRelation):
    """All enabled processes move (the synchronous scheduler of [16])."""

    name = "synchronous"

    def subsets(self, enabled: Sequence[int]) -> Iterator[tuple[int, ...]]:
        if enabled:
            yield tuple(sorted(enabled))


class BoundedRelation(SchedulerRelation):
    """Non-empty subsets of cardinality at most ``bound``."""

    name = "bounded"

    def __init__(self, bound: int) -> None:
        if bound < 1:
            raise SchedulerError("cardinality bound must be at least 1")
        self._bound = bound
        self.name = f"bounded-{bound}"

    def subsets(self, enabled: Sequence[int]) -> Iterator[tuple[int, ...]]:
        ordered = tuple(sorted(enabled))
        top = min(self._bound, len(ordered))
        for size in range(1, top + 1):
            yield from combinations(ordered, size)


_RELATIONS = {
    "central": CentralRelation,
    "distributed": DistributedRelation,
    "synchronous": SynchronousRelation,
}


def relation_by_name(name: str) -> SchedulerRelation:
    """Construct a relation from its registry name."""
    try:
        return _RELATIONS[name]()
    except KeyError:
        raise SchedulerError(
            f"unknown scheduler relation {name!r};"
            f" known: {sorted(_RELATIONS)}"
        ) from None
