"""The transition system ``S = (C, ↦)`` of an algorithm on a topology.

:class:`System` binds an :class:`~repro.core.algorithm.Algorithm` to a
:class:`~repro.core.topology.Topology` and implements the step semantics of
Section 2: in each step a non-empty subset of enabled processes atomically
executes one enabled action each, all reads observing the pre-step
configuration.

Since stabilizing systems take ``I = C`` (every configuration is a
potential initial one), the system also enumerates the full configuration
space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.actions import Action
from repro.core.algorithm import Algorithm
from repro.core.configuration import (
    Configuration,
    LocalState,
    count_configurations,
    enumerate_configurations,
    replace_local,
)
from repro.core.topology import Topology
from repro.core.variables import VariableLayout
from repro.core.view import View
from repro.errors import ModelError, SchedulerError
from repro.random_source import RandomSource

__all__ = ["System", "Branch", "Move", "compose_weighted_targets"]


@dataclass(frozen=True)
class Move:
    """One process's contribution to a step: which action, which outcome."""

    process: int
    action_name: str
    outcome_index: int


@dataclass(frozen=True)
class Branch:
    """One resolved step alternative from a configuration and a subset.

    ``probability`` multiplies the outcome probabilities of all movers;
    the nondeterministic choices (subset, action per process) are *not*
    weighted — they are resolved by the scheduler/model-checker.
    """

    probability: float
    moves: tuple[Move, ...]
    target: Configuration


class System:
    """Transition system of ``algorithm`` running on ``topology``."""

    def __init__(self, algorithm: Algorithm, topology: Topology) -> None:
        self._algorithm = algorithm
        self._topology = topology
        layouts = tuple(
            algorithm.layout(topology, p) for p in topology.processes
        )
        first_names = layouts[0].names
        for p, layout in enumerate(layouts):
            if layout.names != first_names:
                raise ModelError(
                    f"anonymous algorithms must declare the same variables on"
                    f" every process; process {p} differs: {layout.names}"
                    f" vs {first_names}"
                )
        self._layouts = layouts
        self._constants = tuple(
            dict(algorithm.constants(topology, p)) for p in topology.processes
        )
        self._actions = algorithm.actions()
        if not self._actions:
            raise ModelError("algorithm declares no actions")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def algorithm(self) -> Algorithm:
        """The algorithm being executed."""
        return self._algorithm

    @property
    def topology(self) -> Topology:
        """The network."""
        return self._topology

    @property
    def num_processes(self) -> int:
        """N."""
        return self._topology.num_processes

    @property
    def processes(self) -> range:
        """Process ids."""
        return self._topology.processes

    @property
    def layouts(self) -> tuple[VariableLayout, ...]:
        """Per-process variable layouts."""
        return self._layouts

    @property
    def actions(self) -> tuple[Action, ...]:
        """The algorithm's guarded actions."""
        return self._actions

    def constants(self, process: int) -> Mapping[str, Any]:
        """Per-process constants of ``process`` (read-only inputs)."""
        return self._constants[process]

    def variable_names(self) -> tuple[str, ...]:
        """Shared variable names (identical across processes)."""
        return self._layouts[0].names

    # ------------------------------------------------------------------
    # configuration space
    # ------------------------------------------------------------------
    def all_configurations(self) -> Iterator[Configuration]:
        """Every configuration of ``C`` (deterministic order)."""
        return enumerate_configurations(self._layouts)

    def num_configurations(self) -> int:
        """``|C|``."""
        return count_configurations(self._layouts)

    def check_configuration(self, configuration: Configuration) -> None:
        """Validate shape and domains; raises :class:`ModelError` on failure."""
        if len(configuration) != self.num_processes:
            raise ModelError(
                f"configuration has {len(configuration)} local states,"
                f" expected {self.num_processes}"
            )
        for layout, state in zip(self._layouts, configuration):
            layout.check_state(state)

    # ------------------------------------------------------------------
    # views and guards
    # ------------------------------------------------------------------
    def view(
        self, configuration: Configuration, process: int, writable: bool
    ) -> View:
        """Build a view of ``configuration`` for ``process``."""
        return View(
            topology=self._topology,
            layouts=self._layouts,
            configuration=configuration,
            process=process,
            constants=self._constants[process],
            writable=writable,
        )

    def enabled_actions(
        self, configuration: Configuration, process: int
    ) -> tuple[Action, ...]:
        """Actions whose guard holds at ``process`` in ``configuration``."""
        view = self.view(configuration, process, writable=False)
        return tuple(a for a in self._actions if a.enabled(view))

    def is_enabled(self, configuration: Configuration, process: int) -> bool:
        """Whether at least one action of ``process`` is enabled."""
        view = self.view(configuration, process, writable=False)
        return any(a.enabled(view) for a in self._actions)

    def enabled_processes(
        self, configuration: Configuration
    ) -> tuple[int, ...]:
        """``Enabled(γ)`` — processes with at least one enabled action."""
        return tuple(
            p for p in self.processes if self.is_enabled(configuration, p)
        )

    def is_terminal(self, configuration: Configuration) -> bool:
        """Whether no process is enabled (no step from here)."""
        return not self.enabled_processes(configuration)

    # ------------------------------------------------------------------
    # step semantics
    # ------------------------------------------------------------------
    def outcome_states(
        self, configuration: Configuration, process: int, action: Action
    ) -> list[tuple[float, LocalState]]:
        """Resolved outcome distribution of one action at one process.

        Each outcome statement runs on its own writable view; the result is
        the post-step local state of ``process`` for that branch.
        """
        probe = self.view(configuration, process, writable=False)
        resolved: list[tuple[float, LocalState]] = []
        for outcome in action.outcome_list(probe):
            writer = self.view(configuration, process, writable=True)
            outcome.statement(writer)
            resolved.append((outcome.probability, writer.staged_state()))
        return resolved

    def resolve_neighborhood(
        self, process: int, key: Sequence[LocalState]
    ) -> tuple[tuple[Action, tuple[tuple[float, LocalState], ...]], ...]:
        """Enabled actions of ``process`` with resolved outcomes, from
        its local neighborhood alone.

        ``key`` is ``(own state, neighbor states...)`` with neighbor
        states in :meth:`Topology.neighbors` order.  In the
        locally-shared-memory model (Section 2) a process's moves are a
        function of exactly these states, so the result holds in every
        configuration that agrees with ``key`` on the neighborhood.  The
        statements run on a partial configuration with ``None``
        everywhere else, so a read outside the neighborhood fails
        loudly.  :func:`repro.core.encoding.compile_tables` calls this
        once per class-block entry.
        """
        states: list[LocalState | None] = [None] * self.num_processes
        states[process] = key[0]
        for neighbor, state in zip(self._topology.neighbors(process), key[1:]):
            states[neighbor] = state
        configuration: Configuration = tuple(states)  # type: ignore[assignment]
        probe = self.view(configuration, process, writable=False)
        return tuple(
            (
                action,
                tuple(self.outcome_states(configuration, process, action)),
            )
            for action in self._actions
            if action.enabled(probe)
        )

    def step(
        self,
        configuration: Configuration,
        moves: Mapping[int, tuple[Action, int]],
    ) -> Configuration:
        """Apply one atomic step: ``moves[p] = (action, outcome index)``.

        All movers read ``configuration``; their staged writes commit
        simultaneously.  Every chosen action must be enabled.
        """
        if not moves:
            raise SchedulerError("a step needs a non-empty set of movers")
        new_states: dict[int, LocalState] = {}
        for process, (action, outcome_index) in moves.items():
            probe = self.view(configuration, process, writable=False)
            if not action.enabled(probe):
                raise SchedulerError(
                    f"action {action.name!r} is not enabled at process"
                    f" {process}"
                )
            states = self.outcome_states(configuration, process, action)
            if not 0 <= outcome_index < len(states):
                raise ModelError(
                    f"outcome index {outcome_index} out of range for action"
                    f" {action.name!r} at process {process}"
                )
            new_states[process] = states[outcome_index][1]
        return self._commit(configuration, new_states)

    @staticmethod
    def _commit(
        configuration: Configuration, new_states: Mapping[int, LocalState]
    ) -> Configuration:
        """Apply pre-resolved post-states atomically (no re-evaluation).

        Internal step path shared by :meth:`step` and :meth:`sample_step`:
        callers that already resolved each mover's outcome commit it here
        without running guards or statements a second time.
        """
        result = configuration
        for process, state in new_states.items():
            result = replace_local(result, process, state)
        return result

    def resolved_actions(
        self, configuration: Configuration
    ) -> dict[int, list[tuple[Action, list[tuple[float, LocalState]]]]]:
        """Per enabled process: its enabled actions with resolved outcomes.

        Because all reads observe the pre-step configuration, a process's
        post-step local state does not depend on who else moves; resolving
        each (process, action) once therefore determines *every* subset
        step from this configuration.  The state-space explorer and the
        chain builder exploit this to avoid re-running guards and
        statements for each of the exponentially many subsets.
        """
        resolved: dict[
            int, list[tuple[Action, list[tuple[float, LocalState]]]]
        ] = {}
        for process in self.processes:
            enabled = self.enabled_actions(configuration, process)
            if enabled:
                resolved[process] = [
                    (action, self.outcome_states(configuration, process, action))
                    for action in enabled
                ]
        return resolved

    def subset_branches(
        self,
        configuration: Configuration,
        subset: Iterable[int],
        action_mode: str = "all",
    ) -> Iterator[Branch]:
        """All resolved alternatives when ``subset`` moves simultaneously.

        ``action_mode``:

        * ``"all"`` — branch over every enabled action of every mover
          (full nondeterminism; used by the model checker);
        * ``"first"`` — each mover runs its first enabled action in
          declaration order (used when guards are known mutually exclusive).

        Yields :class:`Branch` objects whose probabilities, for a fixed
        action assignment, sum to 1.
        """
        movers = sorted(set(subset))
        if not movers:
            raise SchedulerError("scheduler chose an empty subset")
        per_process_choices: list[list[tuple[int, Action]]] = []
        for process in movers:
            enabled = self.enabled_actions(configuration, process)
            if not enabled:
                raise SchedulerError(
                    f"scheduler chose disabled process {process}"
                )
            if action_mode == "first":
                enabled = enabled[:1]
            elif action_mode != "all":
                raise ModelError(f"unknown action_mode {action_mode!r}")
            per_process_choices.append(
                [(process, action) for action in enabled]
            )
        for assignment in product(*per_process_choices):
            # Resolve each mover's outcome distribution once per assignment.
            distributions: list[list[tuple[int, float, LocalState]]] = []
            for process, action in assignment:
                states = self.outcome_states(configuration, process, action)
                distributions.append(
                    [
                        (index, probability, state)
                        for index, (probability, state) in enumerate(states)
                    ]
                )
            for combo in product(*distributions):
                probability = 1.0
                target = configuration
                moves: list[Move] = []
                for (process, action), (index, p, state) in zip(
                    assignment, combo
                ):
                    probability *= p
                    target = replace_local(target, process, state)
                    moves.append(Move(process, action.name, index))
                yield Branch(probability, tuple(moves), target)

    def successors(
        self,
        configuration: Configuration,
        subsets: Iterable[Sequence[int]],
        action_mode: str = "all",
    ) -> set[Configuration]:
        """Support of the step relation over the given activation subsets."""
        result: set[Configuration] = set()
        for subset in subsets:
            for branch in self.subset_branches(
                configuration, subset, action_mode
            ):
                result.add(branch.target)
        return result

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_step(
        self,
        configuration: Configuration,
        subset: Sequence[int],
        rng: RandomSource,
    ) -> tuple[Configuration, tuple[Move, ...]]:
        """Sample one step: random enabled action per mover, random outcome.

        Each mover's guards and outcome statements run exactly once; the
        sampled post-states commit through the pre-resolved step path
        instead of being re-derived by :meth:`step`.
        """
        if not subset:
            raise SchedulerError("a step needs a non-empty set of movers")
        new_states: dict[int, LocalState] = {}
        resolved: list[Move] = []
        for process in sorted(set(subset)):
            enabled = self.enabled_actions(configuration, process)
            if not enabled:
                raise SchedulerError(
                    f"scheduler chose disabled process {process}"
                )
            action = enabled[rng.randrange(len(enabled))]
            states = self.outcome_states(configuration, process, action)
            outcome_index = rng.weighted_index(
                [probability for probability, _ in states]
            )
            new_states[process] = states[outcome_index][1]
            resolved.append(Move(process, action.name, outcome_index))
        return self._commit(configuration, new_states), tuple(resolved)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"System(algorithm={self._algorithm.name!r},"
            f" processes={self.num_processes})"
        )


def compose_branches(
    configuration: Configuration,
    movers: Sequence[int],
    resolved: Mapping[
        int, Sequence[tuple[Action, Sequence[tuple[float, LocalState]]]]
    ],
    action_mode: str = "all",
) -> Iterator[Branch]:
    """Build the branches of one subset step from per-process resolutions.

    Equivalent to :meth:`System.subset_branches` but using the
    once-per-configuration output of :meth:`System.resolved_actions`;
    hot-path helper for exhaustive exploration and chain building.
    """
    per_process: list[list[tuple[int, Action, Sequence]]] = []
    for process in movers:
        choices = resolved.get(process)
        if not choices:
            raise SchedulerError(
                f"scheduler chose disabled process {process}"
            )
        if action_mode == "first":
            choices = choices[:1]
        elif action_mode != "all":
            raise ModelError(f"unknown action_mode {action_mode!r}")
        per_process.append(
            [(process, action, states) for action, states in choices]
        )
    for assignment in product(*per_process):
        outcome_spaces = [
            [
                (index, probability, state)
                for index, (probability, state) in enumerate(states)
            ]
            for _, _, states in assignment
        ]
        for combo in product(*outcome_spaces):
            probability = 1.0
            target = configuration
            moves: list[Move] = []
            for (process, action, _), (index, p, state) in zip(
                assignment, combo
            ):
                probability *= p
                target = replace_local(target, process, state)
                moves.append(Move(process, action.name, index))
            yield Branch(probability, tuple(moves), target)


def compose_weighted_targets(
    configuration: Configuration,
    movers: Sequence[int],
    resolved: Mapping[
        int, Sequence[tuple[Action, Sequence[tuple[float, LocalState]]]]
    ],
    action_mode: str = "all",
) -> Iterator[tuple[float, Configuration]]:
    """Branch probabilities and targets of one subset step, nothing else.

    Same alternatives in the same order as :func:`compose_branches`, but
    without materializing :class:`Branch`/:class:`Move` objects — the
    explorer and the chain builder only consume ``(probability, target)``
    pairs, and skipping the per-branch allocations is a measurable share
    of their runtime.
    """
    per_process: list[list[tuple[int, Sequence]]] = []
    for process in movers:
        choices = resolved.get(process)
        if not choices:
            raise SchedulerError(
                f"scheduler chose disabled process {process}"
            )
        if action_mode == "first":
            choices = choices[:1]
        elif action_mode != "all":
            raise ModelError(f"unknown action_mode {action_mode!r}")
        per_process.append(
            [(process, states) for _, states in choices]
        )
    if len(per_process) == 1:
        # Singleton subsets dominate (central relation): skip product().
        process = movers[0]
        for _, states in per_process[0]:
            for probability, state in states:
                yield probability, replace_local(
                    configuration, process, state
                )
        return
    for assignment in product(*per_process):
        outcome_spaces = [states for _, states in assignment]
        for combo in product(*outcome_spaces):
            probability = 1.0
            target = configuration
            for (process, _), (p, state) in zip(assignment, combo):
                probability *= p
                target = replace_local(target, process, state)
            yield probability, target
