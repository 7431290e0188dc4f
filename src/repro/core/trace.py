"""Execution traces and lassos.

A :class:`Trace` records a finite execution prefix ``γ0 ↦ γ1 ↦ ...``
together with the acting subsets; a :class:`Lasso` represents an
*ultimately periodic infinite execution* (finite prefix + repeated cycle),
which is how non-converging executions (Figure 3, Theorem 6) are
represented and checked for fairness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.configuration import Configuration
from repro.core.system import Move
from repro.errors import ModelError

__all__ = ["Step", "Trace", "Lasso"]


@dataclass(frozen=True)
class Step:
    """One recorded step: who moved and how."""

    moves: tuple[Move, ...]

    @property
    def acting_processes(self) -> frozenset[int]:
        """The scheduler's chosen subset for this step."""
        return frozenset(move.process for move in self.moves)


@dataclass
class Trace:
    """A finite execution: ``configurations[i] ↦ configurations[i+1]``.

    Invariant: ``len(configurations) == len(steps) + 1``.

    With ``keep_configurations=False`` the trace runs in *compact* mode:
    it retains only the initial and the most recent configuration plus a
    step counter — O(1) memory for arbitrarily long executions.  ``length``,
    ``initial`` and ``final`` keep working; the full history (``steps``,
    intermediate configurations, ``acting_sets``) is discarded.  Long
    Monte-Carlo trials use this so a 200k-step run does not retain 200k
    configurations.
    """

    configurations: list[Configuration] = field(default_factory=list)
    steps: list[Step] = field(default_factory=list)
    keep_configurations: bool = True
    _compact_steps: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.keep_configurations and self.configurations and (
            len(self.configurations) != len(self.steps) + 1
        ):
            raise ModelError(
                "trace needs exactly one more configuration than steps"
            )

    @classmethod
    def starting_at(
        cls, configuration: Configuration, keep_configurations: bool = True
    ) -> "Trace":
        """Empty trace anchored at an initial configuration."""
        return cls(
            configurations=[configuration],
            steps=[],
            keep_configurations=keep_configurations,
        )

    def append(self, step: Step | None, target: Configuration) -> None:
        """Record one step and its resulting configuration.

        Compact traces ignore ``step`` entirely, so hot loops may pass
        ``None`` to skip building the :class:`Step` at all; a full trace
        requires it.
        """
        if not self.configurations:
            raise ModelError("trace has no initial configuration")
        if self.keep_configurations:
            if step is None:
                raise ModelError("a full trace needs the step record")
            self.steps.append(step)
            self.configurations.append(target)
            return
        self._compact_steps += 1
        if len(self.configurations) == 1:
            self.configurations.append(target)
        else:
            self.configurations[-1] = target

    @property
    def initial(self) -> Configuration:
        """γ0."""
        if not self.configurations:
            raise ModelError("empty trace")
        return self.configurations[0]

    @property
    def final(self) -> Configuration:
        """The last recorded configuration."""
        if not self.configurations:
            raise ModelError("empty trace")
        return self.configurations[-1]

    @property
    def length(self) -> int:
        """Number of steps (counted, not stored, in compact mode)."""
        return len(self.steps) + self._compact_steps

    @property
    def has_full_history(self) -> bool:
        """Whether every step and intermediate configuration is retained.

        False once a compact trace has dropped a step; history-derived
        queries (``acting_sets``, ``visits``, round counting, ...) raise
        instead of silently answering from the truncated record.
        """
        return self._compact_steps == 0

    def _require_history(self, what: str) -> None:
        if not self.has_full_history:
            raise ModelError(
                f"{what} needs the full history, but this trace was"
                " recorded compactly (keep_configurations=False)"
            )

    def acting_sets(self) -> list[frozenset[int]]:
        """Chosen subset of every step, in order."""
        self._require_history("acting_sets()")
        return [step.acting_processes for step in self.steps]

    def visits(self, configuration: Configuration) -> bool:
        """Whether the trace passes through ``configuration``."""
        self._require_history("visits()")
        return configuration in self.configurations

    def first_index_where(self, predicate) -> int | None:
        """Index of the first configuration satisfying ``predicate``."""
        self._require_history("first_index_where()")
        for index, configuration in enumerate(self.configurations):
            if predicate(configuration):
                return index
        return None

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self.configurations)

    def __len__(self) -> int:
        return len(self.configurations)


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic execution ``prefix · cycle^ω``.

    ``prefix_configurations`` runs γ0 .. γk (the cycle entry); the cycle
    starts and ends at γk: ``cycle_configurations[0] is the successor of
    γk`` and its last element equals γk again.  Steps are aligned so that
    ``prefix_steps[i]`` goes from prefix configuration i to i+1, and
    ``cycle_steps[j]`` goes from the j-th configuration of the cycle ring
    to the next.
    """

    prefix_configurations: tuple[Configuration, ...]
    prefix_steps: tuple[Step, ...]
    cycle_configurations: tuple[Configuration, ...]
    cycle_steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if len(self.prefix_configurations) != len(self.prefix_steps) + 1:
            raise ModelError("lasso prefix shape mismatch")
        if len(self.cycle_configurations) != len(self.cycle_steps):
            raise ModelError(
                "lasso cycle needs as many configurations as steps"
            )
        if not self.cycle_configurations:
            raise ModelError("lasso cycle must be non-empty")
        if self.cycle_configurations[-1] != self.prefix_configurations[-1]:
            raise ModelError(
                "lasso cycle must loop back to the prefix's last"
                " configuration"
            )

    @property
    def entry(self) -> Configuration:
        """The configuration where the cycle is entered (γk)."""
        return self.prefix_configurations[-1]

    def cycle_ring(self) -> list[Configuration]:
        """Cycle configurations starting at the entry point.

        ``ring[j]`` is the source of ``cycle_steps[j]``; the cycle is
        ``ring[0] ↦ ring[1] ↦ ... ↦ ring[0]``.
        """
        return [self.entry, *self.cycle_configurations[:-1]]

    def unroll(self, repetitions: int) -> Trace:
        """Materialize ``prefix · cycle^repetitions`` as a finite trace."""
        if repetitions < 0:
            raise ModelError("repetitions must be non-negative")
        trace = Trace(
            configurations=list(self.prefix_configurations),
            steps=list(self.prefix_steps),
        )
        for _ in range(repetitions):
            for step, configuration in zip(
                self.cycle_steps, self.cycle_configurations
            ):
                trace.append(step, configuration)
        return trace

    def configurations_seen_infinitely_often(self) -> set[Configuration]:
        """The set of configurations the periodic tail visits forever."""
        return set(self.cycle_configurations)

    @property
    def cycle_length(self) -> int:
        """Number of steps in one period."""
        return len(self.cycle_steps)


def lasso_from_trace(
    trace: Trace, cycle_entry_index: int
) -> Lasso:
    """Split a finite trace whose final configuration re-visits an earlier one.

    ``trace.configurations[cycle_entry_index]`` must equal ``trace.final``;
    everything before it is the prefix, everything after the cycle.
    """
    if trace.configurations[cycle_entry_index] != trace.final:
        raise ModelError(
            "cycle entry configuration does not match the trace's final"
            " configuration"
        )
    return Lasso(
        prefix_configurations=tuple(
            trace.configurations[: cycle_entry_index + 1]
        ),
        prefix_steps=tuple(trace.steps[:cycle_entry_index]),
        cycle_configurations=tuple(
            trace.configurations[cycle_entry_index + 1:]
        ),
        cycle_steps=tuple(trace.steps[cycle_entry_index:]),
    )


__all__.append("lasso_from_trace")
