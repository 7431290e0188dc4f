"""Execution engine: drive a system with a scheduler sampler.

The simulator repeatedly asks a *sampler* (see
:mod:`repro.schedulers.samplers`) for a non-empty subset of the enabled
processes, performs the atomic step (sampling action outcomes through the
given :class:`~repro.random_source.RandomSource`), and records a
:class:`~repro.core.trace.Trace`.

Runs execute through the reference :class:`~repro.core.system.System`
semantics: this is the scalar oracle the lockstep batch engine
(:mod:`repro.markov.batch`) is checked against, not a fast path.  Each
run keeps one cursor that re-derives enabledness only for the movers and
their neighbors after a step, and consumes exactly the random stream of
:meth:`System.sample_step`.  ``record=False`` switches the trace to
compact mode (O(1) memory; only the initial/final configurations and the
step count survive).
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.core.configuration import Configuration
from repro.core.system import Move, System
from repro.core.trace import Step, Trace
from repro.errors import SchedulerError
from repro.random_source import RandomSource

__all__ = ["SchedulerSampler", "run", "run_until", "SimulationResult"]


class SchedulerSampler(Protocol):
    """Strategy choosing which enabled processes move in each step."""

    def choose(
        self,
        system: System,
        configuration: Configuration,
        enabled: Sequence[int],
        rng: RandomSource,
    ) -> Sequence[int]:
        """Return a non-empty subset of ``enabled``."""
        ...  # pragma: no cover - protocol


class SimulationResult:
    """Outcome of :func:`run_until`: the trace plus why it stopped."""

    __slots__ = ("trace", "converged", "hit_terminal", "steps_taken")

    def __init__(
        self,
        trace: Trace,
        converged: bool,
        hit_terminal: bool,
    ) -> None:
        self.trace = trace
        self.converged = converged
        self.hit_terminal = hit_terminal
        self.steps_taken = trace.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult(steps={self.steps_taken},"
            f" converged={self.converged}, terminal={self.hit_terminal})"
        )


class Cursor:
    """Execution state of one simulated run over a :class:`System`.

    A step changes only the movers' local states, so only the movers and
    their neighbors can change enabledness; :meth:`advance` re-derives
    just those flags.  ``enabled`` always equals
    ``system.enabled_processes(configuration)``, and each step consumes
    the random stream of :meth:`System.sample_step`.
    """

    __slots__ = ("_system", "_flags", "configuration", "enabled")

    def __init__(self, system: System, configuration: Configuration) -> None:
        self._system = system
        self.reset(configuration)

    def reset(self, configuration: Configuration) -> None:
        """Re-anchor the cursor at ``configuration`` (full rescan)."""
        is_enabled = self._system.is_enabled
        self.configuration = configuration
        self._flags = [
            is_enabled(configuration, p) for p in self._system.processes
        ]
        self.enabled = tuple(
            p for p, enabled in enumerate(self._flags) if enabled
        )

    def advance(
        self, subset: Sequence[int], rng: RandomSource
    ) -> tuple[Move, ...]:
        """Sample one step from the current configuration and update."""
        system = self._system
        target, moves = system.sample_step(self.configuration, subset, rng)
        neighbors = system.topology.neighbors
        dirty = set(subset)
        for process in subset:
            dirty.update(neighbors(process))
        flags = self._flags
        for process in dirty:
            flags[process] = system.is_enabled(target, process)
        self.configuration = target
        self.enabled = tuple(p for p, enabled in enumerate(flags) if enabled)
        return moves


def _never(configuration: Configuration) -> bool:
    return False


def run(
    system: System,
    sampler: SchedulerSampler,
    initial: Configuration,
    max_steps: int,
    rng: RandomSource,
    record: bool = True,
) -> Trace:
    """Execute up to ``max_steps`` steps (stops early at terminal configs).

    ``initial`` must be a configuration of ``system``
    (:class:`~repro.errors.ModelError` otherwise).  This is
    :func:`run_until` with a stop predicate that never holds: the same
    loop, trace and random stream.
    """
    return run_until(
        system, sampler, initial, _never, max_steps, rng, record
    ).trace


def run_until(
    system: System,
    sampler: SchedulerSampler,
    initial: Configuration,
    stop: Callable[[Configuration], bool],
    max_steps: int,
    rng: RandomSource,
    record: bool = True,
) -> SimulationResult:
    """Execute until ``stop(configuration)`` holds or budgets run out.

    The predicate is also checked on the initial configuration, matching
    the convention that stabilization time from a legitimate configuration
    is zero.  ``initial`` must be a configuration of ``system``
    (:class:`~repro.errors.ModelError` otherwise).
    """
    system.check_configuration(initial)
    trace = Trace.starting_at(initial, keep_configurations=record)
    if stop(initial):
        return SimulationResult(trace, converged=True, hit_terminal=False)
    cursor = Cursor(system, initial)
    for _ in range(max_steps):
        enabled = cursor.enabled
        if not enabled:
            return SimulationResult(
                trace,
                converged=stop(cursor.configuration),
                hit_terminal=True,
            )
        subset = list(
            sampler.choose(system, cursor.configuration, enabled, rng)
        )
        _validate_subset(subset, enabled)
        moves = cursor.advance(subset, rng)
        trace.append(Step(moves) if record else None, cursor.configuration)
        if stop(cursor.configuration):
            return SimulationResult(trace, converged=True, hit_terminal=False)
    # The budget ran out.  A run whose last step reached a terminal
    # configuration is terminal all the same: the lockstep and fault
    # loops check terminality before the budget.
    return SimulationResult(
        trace, converged=False, hit_terminal=not cursor.enabled
    )


def _validate_subset(subset: Sequence[int], enabled: Sequence[int]) -> None:
    if not subset:
        raise SchedulerError("sampler returned an empty subset")
    enabled_set = set(enabled)
    offenders = [p for p in subset if p not in enabled_set]
    if offenders:
        raise SchedulerError(
            f"sampler chose disabled processes {offenders}"
        )
    if len(set(subset)) != len(subset):
        raise SchedulerError("sampler returned duplicate processes")
