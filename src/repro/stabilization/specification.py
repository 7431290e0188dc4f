"""Problem specifications and legitimate-configuration predicates.

A specification ``SP`` is a predicate over executions (Section 2).  For the
problems in the paper, ``SP`` is characterized by a set ``L`` of legitimate
configurations plus behavioral conditions on executions that start in ``L``
(e.g. "the token visits every process infinitely often").  A
:class:`Specification` therefore provides:

* :meth:`legitimate` — membership in ``L``;
* :meth:`validate_behavior` — optional extra checks run on the
  ``L``-induced portion of an explored state space (defaults to nothing);
* :meth:`batch_legitimacy` — optionally, the same membership as one
  array expression over a state code matrix (defaults to none).

Concrete problem specs live next to their algorithms in
:mod:`repro.algorithms`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.configuration import Configuration
from repro.core.system import System

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.markov.batch import BatchLegitimacy
    from repro.stabilization.statespace import StateSpace

__all__ = ["Specification", "PredicateSpecification"]


class Specification(ABC):
    """A problem specification with a legitimacy predicate."""

    #: Short name used in reports.
    name: str = "abstract-spec"

    @abstractmethod
    def legitimate(self, system: System, configuration: Configuration) -> bool:
        """Whether ``configuration`` belongs to ``L``."""

    def validate_behavior(
        self,
        system: System,
        space: "StateSpace",
        legitimate_ids: Sequence[int],
    ) -> list[str]:
        """Extra behavioral checks on the legitimate sub-space.

        Returns a list of human-readable violation messages (empty when the
        behavior is correct).  The default accepts everything beyond
        closure, which the checker verifies separately.
        """
        return []

    def batch_legitimacy(self, system: System) -> "BatchLegitimacy | None":
        """The exact batch form of :meth:`legitimate` on ``system``, or
        ``None`` (the default: callers use the scalar predicate).

        A form must agree with :meth:`legitimate` on every configuration
        of ``system`` *by definition* — the predicate rewritten over codes
        and tables — never by a theorem about the algorithm, because the
        experiments that verify such theorems mark through it.  A
        specification whose predicate is only known on some algorithms
        returns ``None`` on every other system.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class PredicateSpecification(Specification):
    """Adapter turning a plain predicate into a specification."""

    def __init__(
        self,
        name: str,
        predicate: Callable[[System, Configuration], bool],
    ) -> None:
        self.name = name
        self._predicate = predicate

    def legitimate(self, system: System, configuration: Configuration) -> bool:
        return bool(self._predicate(system, configuration))
