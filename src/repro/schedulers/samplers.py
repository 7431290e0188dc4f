"""Scheduler *samplers*: draw an activation subset during simulation.

Samplers implement :class:`repro.core.simulate.SchedulerSampler`.  The
randomized samplers realize Definition 6; the deterministic ones are the
"adversaries" used to exhibit non-converging executions (round-robin,
scripted replays, and the alternating-token adversary of Theorem 6's
proof).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.configuration import Configuration
from repro.core.system import System
from repro.errors import SchedulerError
from repro.random_source import RandomSource

__all__ = [
    "SynchronousSampler",
    "CentralRandomizedSampler",
    "DistributedRandomizedSampler",
    "BernoulliSampler",
    "RoundRobinSampler",
    "ScriptedSampler",
    "GreedySingletonSampler",
    "sampler_by_name",
]


class SynchronousSampler:
    """Choose every enabled process (synchronous scheduler)."""

    name = "synchronous"

    def choose(
        self,
        system: System,
        configuration: Configuration,
        enabled: Sequence[int],
        rng: RandomSource,
    ) -> Sequence[int]:
        return list(enabled)


class CentralRandomizedSampler:
    """Uniform single enabled process (Definition 6, central)."""

    name = "central-randomized"

    def choose(
        self,
        system: System,
        configuration: Configuration,
        enabled: Sequence[int],
        rng: RandomSource,
    ) -> Sequence[int]:
        return [rng.choice(list(enabled))]


class DistributedRandomizedSampler:
    """Uniform non-empty subset of the enabled set (Definition 6)."""

    name = "distributed-randomized"

    def choose(
        self,
        system: System,
        configuration: Configuration,
        enabled: Sequence[int],
        rng: RandomSource,
    ) -> Sequence[int]:
        return rng.sample_nonempty_subset(list(enabled))

class BernoulliSampler:
    """Each enabled process tosses a coin; redraw if everybody loses.

    The redraw makes the sampler a legal scheduler (non-empty subsets);
    the *lazy* variant with self-loops is only meaningful for Markov
    analysis, not simulation, because a no-op step changes nothing.
    """

    def __init__(self, probability: float = 0.5) -> None:
        if not 0.0 < probability < 1.0:
            raise SchedulerError(
                f"activation probability must be in (0, 1), got {probability}"
            )
        self._p = probability
        self.name = f"bernoulli-{probability}"

    def choose(
        self,
        system: System,
        configuration: Configuration,
        enabled: Sequence[int],
        rng: RandomSource,
    ) -> Sequence[int]:
        while True:
            subset = [p for p in enabled if rng.bernoulli(self._p)]
            if subset:
                return subset


class RoundRobinSampler:
    """Cycle through process ids, activating the next enabled one.

    A simple *weakly fair central* scheduler: every continuously enabled
    process is chosen within N steps.
    """

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(
        self,
        system: System,
        configuration: Configuration,
        enabled: Sequence[int],
        rng: RandomSource,
    ) -> Sequence[int]:
        n = system.num_processes
        enabled_set = set(enabled)
        for offset in range(n):
            candidate = (self._cursor + offset) % n
            if candidate in enabled_set:
                self._cursor = (candidate + 1) % n
                return [candidate]
        raise SchedulerError("no enabled process")  # pragma: no cover


class ScriptedSampler:
    """Replay a fixed list of activation subsets (adversary scripts).

    Raises :class:`SchedulerError` when the script runs out or a scripted
    subset is not enabled — scripts must be written for the execution they
    replay.
    """

    name = "scripted"

    def __init__(self, script: Sequence[Sequence[int]]) -> None:
        self._script = [tuple(step) for step in script]
        self._position = 0

    @property
    def remaining(self) -> int:
        """Steps left in the script."""
        return len(self._script) - self._position

    def choose(
        self,
        system: System,
        configuration: Configuration,
        enabled: Sequence[int],
        rng: RandomSource,
    ) -> Sequence[int]:
        if self._position >= len(self._script):
            raise SchedulerError("scripted sampler ran out of steps")
        subset = self._script[self._position]
        self._position += 1
        missing = [p for p in subset if p not in set(enabled)]
        if missing:
            raise SchedulerError(
                f"script step {self._position} activates disabled"
                f" processes {missing}"
            )
        return list(subset)


class GreedySingletonSampler:
    """Central scheduler driven by a priority function (adversary builder).

    ``priority(system, configuration, process)`` — the enabled process with
    the highest value moves.  Ties break toward the smallest id, keeping
    runs deterministic.
    """

    name = "greedy-singleton"

    def __init__(
        self,
        priority: Callable[[System, Configuration, int], float],
    ) -> None:
        self._priority = priority

    def choose(
        self,
        system: System,
        configuration: Configuration,
        enabled: Sequence[int],
        rng: RandomSource,
    ) -> Sequence[int]:
        best = max(
            enabled,
            key=lambda p: (self._priority(system, configuration, p), -p),
        )
        return [best]


_SAMPLERS: dict[str, Callable[[], object]] = {
    "synchronous": SynchronousSampler,
    "central-randomized": CentralRandomizedSampler,
    "distributed-randomized": DistributedRandomizedSampler,
    "round-robin": RoundRobinSampler,
}


def sampler_by_name(name: str):
    """Construct a sampler from its registry name."""
    try:
        return _SAMPLERS[name]()
    except KeyError:
        raise SchedulerError(
            f"unknown sampler {name!r}; known: {sorted(_SAMPLERS)}"
        ) from None
