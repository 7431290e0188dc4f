"""Neighborhood-memoized transition kernel — the execution fast path.

In the paper's locally-shared-memory model a process reads only its own
variables and its neighbors' variables (Section 2), so the enabled actions
of process ``p`` and their resolved outcome states are a pure function of
the *local neighborhood* ``(x_p, x_{q_0}, ..., x_{q_{Δp-1}})``.  The
:class:`~repro.core.system.System` reference semantics nevertheless
re-evaluates guards and outcome statements through freshly allocated
:class:`~repro.core.view.View` objects at every configuration visit.

:class:`TransitionKernel` exploits the locality guarantee: it memoizes the
resolved result of ``(process, own state, neighbor states) →
[(action, [(probability, post state)])]`` so guard and outcome statements
execute **once per distinct local neighborhood** instead of once per
configuration.  Local state spaces are tiny (a handful of values per
process), so the tables saturate almost immediately and every subsequent
visit is a dict lookup — the same idea that makes PRISM-style
local-transition encodings of Herman's ring tractable.

:class:`KernelCursor` adds the simulation-side counterpart: because a step
changes only the movers' local states, only the movers and their neighbors
can change enabledness, so the cursor maintains ``Enabled(γ)``
incrementally instead of re-deriving it from scratch every step.

Division of labor (see :mod:`repro.core`):

* ``System``  — the *semantics*: readable, paper-faithful, validating;
* ``TransitionKernel`` — the *speed*: bit-for-bit equivalent results
  (including the random stream consumed by :meth:`sample_step`), used by
  the state-space explorer, the chain builder, and the simulator.

The kernel is a transparent proxy: every ``System`` attribute it does not
override is delegated, so it can stand in for the system anywhere only
read paths are exercised (e.g. scheduler samplers).
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence, Union

from repro.core.actions import Action
from repro.core.configuration import Configuration, LocalState, replace_local
from repro.core.system import Branch, Move, System, compose_branches
from repro.core.variables import VariableLayout
from repro.errors import ModelError, SchedulerError
from repro.random_source import RandomSource

__all__ = [
    "TransitionKernel",
    "KernelCursor",
    "NeighborhoodEntry",
    "Engine",
    "resolve_engine",
]

#: Default cap on table entries.  :meth:`TransitionKernel.precompute`
#: compares it with the per-process neighborhood space
#: (:meth:`~TransitionKernel.num_neighborhoods`);
#: :func:`repro.core.encoding.compile_tables` compares it with the class
#: entries it actually stores, one block per process class.
DEFAULT_TABLE_BUDGET = 1_000_000


class NeighborhoodEntry:
    """Resolved transitions of one process for one local neighborhood.

    ``actions`` pairs each enabled action with its resolved outcome
    distribution ``((probability, post local state), ...)``;
    ``outcome_probabilities`` carries the probability vectors separately so
    sampling does not rebuild them per step.  Empty ``actions`` means the
    process is disabled in this neighborhood.
    """

    __slots__ = ("actions", "outcome_probabilities")

    def __init__(
        self,
        actions: tuple[
            tuple[Action, tuple[tuple[float, LocalState], ...]], ...
        ],
    ) -> None:
        self.actions = actions
        self.outcome_probabilities = tuple(
            tuple(probability for probability, _ in outcomes)
            for _, outcomes in actions
        )


class TransitionKernel:
    """Memoized drop-in for the hot read/step paths of a :class:`System`.

    Parameters
    ----------
    system:
        The reference system whose semantics the kernel caches.
    precompute:
        Fill the per-process tables eagerly from the full neighborhood
        product space (only sensible when that space is small; see
        :meth:`precompute`).
    """

    def __init__(self, system: System, precompute: bool = False) -> None:
        self._system = system
        topology = system.topology
        self._num_processes = system.num_processes
        self._neighbors: tuple[tuple[int, ...], ...] = tuple(
            topology.neighbors(p) for p in system.processes
        )
        # One (memo table, neighborhood-key extractor) pair per process;
        # itemgetter pulls (own state, neighbor states...) in one C call.
        self._tables: tuple[
            dict[tuple[LocalState, ...], NeighborhoodEntry], ...
        ] = tuple({} for _ in system.processes)
        self._keys: tuple[Callable[[Configuration], Any], ...] = tuple(
            itemgetter(p, *self._neighbors[p])
            if self._neighbors[p]
            else (lambda configuration, p=p: (configuration[p],))
            for p in system.processes
        )
        #: How many distinct neighborhoods were resolved (i.e. how often
        #: algorithm guard/outcome code actually ran).
        self.resolutions = 0
        if precompute:
            self.precompute()

    # ------------------------------------------------------------------
    # proxying
    # ------------------------------------------------------------------
    @property
    def system(self) -> System:
        """The wrapped reference system."""
        return self._system

    @property
    def num_processes(self) -> int:
        """N."""
        return self._num_processes

    def __getattr__(self, name: str) -> Any:
        # Fall through to the reference system for everything the kernel
        # does not accelerate (views, configuration enumeration, ...).
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._system, name)

    # ------------------------------------------------------------------
    # memoization machinery
    # ------------------------------------------------------------------
    def _resolve(
        self, process: int, key: tuple[LocalState, ...]
    ) -> NeighborhoodEntry:
        """Run guards and outcome statements once for this neighborhood.

        The view API guarantees statements read nothing beyond ``process``
        and its neighbors, so a partial configuration (``None`` elsewhere)
        is sufficient — and makes any out-of-neighborhood read crash loudly
        instead of silently poisoning the cache.
        """
        self.resolutions += 1
        system = self._system
        states: list[LocalState | None] = [None] * self._num_processes
        states[process] = key[0]
        for neighbor, state in zip(self._neighbors[process], key[1:]):
            states[neighbor] = state
        configuration: Configuration = tuple(states)  # type: ignore[assignment]
        resolved: list[
            tuple[Action, tuple[tuple[float, LocalState], ...]]
        ] = []
        probe = system.view(configuration, process, writable=False)
        for action in system.actions:
            if action.enabled(probe):
                resolved.append(
                    (
                        action,
                        tuple(
                            system.outcome_states(
                                configuration, process, action
                            )
                        ),
                    )
                )
        return NeighborhoodEntry(tuple(resolved))

    def _entry(
        self, configuration: Configuration, process: int
    ) -> NeighborhoodEntry:
        """Cached transitions of ``process`` in ``configuration``."""
        return self.neighborhood_entry(
            process, self._keys[process](configuration)
        )

    def neighborhood_entry(
        self, process: int, key: tuple[LocalState, ...]
    ) -> NeighborhoodEntry:
        """Resolved transitions of ``process`` for one local neighborhood.

        ``key`` is ``(own state, neighbor states...)`` with neighbor
        states in :meth:`Topology.neighbors` order — the same tuple the
        per-configuration fast paths extract internally.  Returns the
        memoized :class:`NeighborhoodEntry` (resolving and caching it on
        first sight); because the locally-shared-memory model guarantees
        transitions depend on nothing else, the entry is valid in
        *every* configuration agreeing with ``key`` on that
        neighborhood.

        This is the public face of the memo tables: the table compiler
        (:func:`repro.core.encoding.compile_tables`) drives it to
        enumerate the neighborhood product space of one member per
        process class without materializing full configurations, and
        custom analyses can probe individual neighborhoods the same way.
        """
        table = self._tables[process]
        entry = table.get(key)
        if entry is None:
            entry = self._resolve(process, key)
            table[key] = entry
        return entry

    # ------------------------------------------------------------------
    # precomputed table mode
    # ------------------------------------------------------------------
    def num_neighborhoods(self) -> int:
        """Size of the full per-process neighborhood product space."""
        layouts = self._system.layouts
        total = 0
        for process, neighbors in enumerate(self._neighbors):
            size = layouts[process].num_states
            for neighbor in neighbors:
                size *= layouts[neighbor].num_states
            total += size
        return total

    def precompute(self, max_entries: int = DEFAULT_TABLE_BUDGET) -> int:
        """Resolve *every* neighborhood eagerly (full-table mode).

        After this no simulation/exploration step ever runs algorithm
        code; everything is table lookups.  Raises :class:`ModelError`
        when the neighborhood space exceeds ``max_entries``.  Returns the
        total number of table entries.
        """
        total = self.num_neighborhoods()
        if total > max_entries:
            raise ModelError(
                f"neighborhood space has {total} entries, budget is"
                f" {max_entries}; use the lazy kernel instead"
            )
        layouts = self._system.layouts
        for process, neighbors in enumerate(self._neighbors):
            table = self._tables[process]
            spaces = [_local_states(layouts[process])]
            spaces.extend(_local_states(layouts[q]) for q in neighbors)
            for key in product(*spaces):
                if key not in table:
                    table[key] = self._resolve(process, key)
        return self.table_size

    @property
    def table_size(self) -> int:
        """Number of memoized neighborhood entries across all processes."""
        return sum(len(table) for table in self._tables)

    def cache_info(self) -> dict[str, int]:
        """Memoization statistics (for benchmarks and diagnostics)."""
        return {
            "entries": self.table_size,
            "resolutions": self.resolutions,
            "neighborhood_space": self.num_neighborhoods(),
        }

    # ------------------------------------------------------------------
    # fast equivalents of the System read paths
    # ------------------------------------------------------------------
    def enabled_actions(
        self, configuration: Configuration, process: int
    ) -> tuple[Action, ...]:
        """Actions whose guard holds at ``process`` (memoized)."""
        return tuple(
            action for action, _ in self._entry(configuration, process).actions
        )

    def is_enabled(self, configuration: Configuration, process: int) -> bool:
        """Whether at least one action of ``process`` is enabled."""
        return bool(self._entry(configuration, process).actions)

    def enabled_processes(
        self, configuration: Configuration
    ) -> tuple[int, ...]:
        """``Enabled(γ)`` — memoized per neighborhood."""
        result = []
        resolve = self._resolve
        for process, (table, get_key) in enumerate(
            zip(self._tables, self._keys)
        ):
            key = get_key(configuration)
            entry = table.get(key)
            if entry is None:
                entry = resolve(process, key)
                table[key] = entry
            if entry.actions:
                result.append(process)
        return tuple(result)

    def is_terminal(self, configuration: Configuration) -> bool:
        """Whether no process is enabled."""
        return not self.enabled_processes(configuration)

    def outcome_states(
        self, configuration: Configuration, process: int, action: Action
    ) -> list[tuple[float, LocalState]]:
        """Resolved outcome distribution of one action (memoized)."""
        for candidate, outcomes in self._entry(configuration, process).actions:
            if candidate is action or candidate.name == action.name:
                return list(outcomes)
        # Disabled action: defer to the reference semantics (it may still
        # have well-defined outcomes even when the guard is false).
        return self._system.outcome_states(configuration, process, action)

    def resolved_actions(
        self, configuration: Configuration
    ) -> dict[
        int, Sequence[tuple[Action, Sequence[tuple[float, LocalState]]]]
    ]:
        """Per enabled process: enabled actions with resolved outcomes.

        Same structure as :meth:`System.resolved_actions` (tuples instead
        of lists), feeding :func:`repro.core.system.compose_branches` and
        :func:`repro.core.system.compose_weighted_targets` directly.
        """
        resolved: dict[
            int, Sequence[tuple[Action, Sequence[tuple[float, LocalState]]]]
        ] = {}
        resolve = self._resolve
        for process, (table, get_key) in enumerate(
            zip(self._tables, self._keys)
        ):
            key = get_key(configuration)
            entry = table.get(key)
            if entry is None:
                entry = resolve(process, key)
                table[key] = entry
            if entry.actions:
                resolved[process] = entry.actions
        return resolved

    def branches(
        self,
        configuration: Configuration,
        subset: Sequence[int],
        action_mode: str = "all",
    ) -> Iterator[Branch]:
        """Memoized equivalent of :meth:`System.subset_branches`."""
        movers = sorted(set(subset))
        if not movers:
            raise SchedulerError("scheduler chose an empty subset")
        resolved = self.resolved_actions(configuration)
        return compose_branches(configuration, movers, resolved, action_mode)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample_step(
        self,
        configuration: Configuration,
        subset: Sequence[int],
        rng: RandomSource,
    ) -> tuple[Configuration, tuple[Move, ...]]:
        """Sample one step, consuming the *same* random stream as
        :meth:`System.sample_step` — traces are bit-for-bit reproducible
        across the two paths for identical seeds."""
        if not subset:
            raise SchedulerError("a step needs a non-empty set of movers")
        new_states: dict[int, LocalState] = {}
        moves: list[Move] = []
        for process in sorted(set(subset)):
            resolved = self._entry(configuration, process)
            actions = resolved.actions
            if not actions:
                raise SchedulerError(
                    f"scheduler chose disabled process {process}"
                )
            action_index = rng.randrange(len(actions))
            action, outcomes = actions[action_index]
            outcome_index = rng.weighted_index(
                resolved.outcome_probabilities[action_index]
            )
            new_states[process] = outcomes[outcome_index][1]
            moves.append(Move(process, action.name, outcome_index))
        if len(new_states) == 1:
            process, state = next(iter(new_states.items()))
            target = replace_local(configuration, process, state)
        else:
            target = tuple(
                new_states.get(p, configuration[p])
                for p in range(self._num_processes)
            )
        return target, tuple(moves)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransitionKernel(system={self._system!r},"
            f" entries={self.table_size})"
        )


class KernelCursor:
    """Incremental execution state for one simulated run.

    A step changes only the movers' local states, so only the movers and
    their neighbors can change enabledness; the cursor re-derives just
    those flags after each step instead of scanning every process.  The
    visible behavior (``enabled`` tuples, sampled moves, random stream) is
    identical to calling ``enabled_processes`` / ``sample_step`` per step.
    """

    __slots__ = ("_kernel", "_flags", "configuration", "enabled")

    def __init__(
        self, kernel: TransitionKernel, configuration: Configuration
    ) -> None:
        self._kernel = kernel
        self.reset(configuration)

    def reset(self, configuration: Configuration) -> None:
        """Re-anchor the cursor at ``configuration`` (full rescan)."""
        kernel = self._kernel
        self.configuration = configuration
        self._flags = [
            bool(kernel._entry(configuration, p).actions)
            for p in range(kernel.num_processes)
        ]
        self.enabled = tuple(
            p for p, enabled in enumerate(self._flags) if enabled
        )

    def advance(
        self, subset: Sequence[int], rng: RandomSource
    ) -> tuple[Move, ...]:
        """Sample one step from the current configuration and update."""
        kernel = self._kernel
        target, moves = kernel.sample_step(self.configuration, subset, rng)
        flags = self._flags
        neighbors = kernel._neighbors
        dirty = set(subset)
        for process in subset:
            dirty.update(neighbors[process])
        entry = kernel._entry
        for process in dirty:
            flags[process] = bool(entry(target, process).actions)
        self.configuration = target
        self.enabled = tuple(
            p for p, enabled in enumerate(flags) if enabled
        )
        return moves


#: What the hot paths actually drive: the reference semantics or the
#: neighborhood-memoized kernel standing in for it (same interface).
Engine = Union[System, TransitionKernel]


def resolve_engine(
    system: System,
    kernel: TransitionKernel | None,
    use_kernel: bool,
) -> Engine:
    """Single policy for the ``kernel=None, use_kernel=True`` knobs every
    hot path exposes: an explicit kernel wins, otherwise a fresh one is
    built unless the caller opted into the reference :class:`System`."""
    if kernel is not None:
        return kernel
    return TransitionKernel(system) if use_kernel else system


def _local_states(layout: VariableLayout) -> list[LocalState]:
    """All local states of one layout, in domain order."""
    return [tuple(values) for values in product(*(s.domain for s in layout.specs))]
