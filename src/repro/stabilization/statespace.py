"""Exhaustive state-space exploration with subset-labelled edges.

Because stabilizing systems take ``I = C`` and all our domains are finite,
the full transition system is a finite digraph.  :class:`StateSpace`
interns configurations to dense integer ids and records, for every
configuration, the outgoing steps allowed by a scheduler relation — each
edge labelled with the *activation bitmask* of the processes that moved
(needed by the fairness analysis of Theorem 6).

Edges follow possibility semantics: a probabilistic action contributes one
edge per outcome in its support.

Two explorers produce the same digraph (see ``docs/architecture.md``):

* the **compiled explorer** (:mod:`repro.stabilization.sharding`) — the
  default at every shard count: configurations are mixed-radix ranks
  over the compiled NumPy kernel tables, deterministic blocks under the
  central, synchronous and distributed daemons expand as whole-block
  array expressions, and ``shards > 1`` partitions the frontier across
  worker processes;
* the **dict walk** below — a FIFO walk that resolves guards and
  outcomes through the neighborhood-memoized
  :class:`~repro.core.kernel.TransitionKernel` (or the reference
  :class:`~repro.core.system.System` with ``use_kernel=False``).  It is
  the fallback for systems the compiled tables cannot represent and the
  oracle the compiled explorer is tested against.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

from repro.core.configuration import Configuration
from repro.core.kernel import TransitionKernel, resolve_engine
from repro.core.system import System, compose_weighted_targets
from repro.errors import StateSpaceError
from repro.schedulers.relations import SchedulerRelation

__all__ = ["StateSpace", "LabeledEdge", "subset_to_mask", "mask_to_subset"]

#: (activation bitmask, target configuration id)
LabeledEdge = tuple[int, int]

#: Default exploration budget; theorem checks stay far below this.
DEFAULT_MAX_CONFIGURATIONS = 2_000_000


def subset_to_mask(subset: Iterable[int]) -> int:
    """Bitmask of a process subset (bit p set iff p moved)."""
    mask = 0
    for process in subset:
        mask |= 1 << process
    return mask


def mask_to_subset(mask: int) -> tuple[int, ...]:
    """Sorted process ids of a bitmask (O(popcount), not O(bit length))."""
    subset = []
    while mask:
        low = mask & -mask
        subset.append(low.bit_length() - 1)
        mask ^= low
    return tuple(subset)


class StateSpace:
    """The explored digraph of a system under a scheduler relation."""

    def __init__(
        self,
        system: System,
        relation: SchedulerRelation,
        configurations: list[Configuration],
        index: dict[Configuration, int],
        edges: list[list[LabeledEdge]],
        enabled: list[tuple[int, ...]],
    ) -> None:
        self.system = system
        self.relation = relation
        self.configurations = configurations
        self.index = index
        self.edges = edges
        self.enabled = enabled
        self._reverse: list[list[int]] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def explore(
        cls,
        system: System,
        relation: SchedulerRelation,
        initial: Iterable[Configuration] | None = None,
        max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
        action_mode: str = "all",
        kernel: TransitionKernel | None = None,
        use_kernel: bool = True,
        shards: int | str | None = None,
    ) -> "StateSpace":
        """Breadth-first exploration from ``initial`` (default: all of C).

        With the default initial set the explored graph is the complete
        transition system; with a restricted initial set it is the
        reachable fragment (used e.g. for transformed systems whose full
        space is large).

        Guards and outcome statements resolve through a
        :class:`~repro.core.kernel.TransitionKernel` by default, so they
        run once per distinct local neighborhood rather than once per
        configuration; pass ``kernel`` to reuse existing memo tables or
        ``use_kernel=False`` for the reference :class:`System` path.

        ``shards`` selects how the compiled explorer
        (:func:`repro.stabilization.sharding.explore_sharded`) runs:
        ``1`` expands in-process; an int ``> 1`` partitions the frontier
        across that many worker processes; ``"auto"`` sizes the pool from
        the available CPUs; ``None`` (the default) uses the process-wide
        default — 1 unless raised via
        :func:`repro.stabilization.sharding.set_default_shards` or the
        ``--shards`` CLI flag.  Every value yields an identical
        :class:`StateSpace` (same ids, edges, and enabled tuples);
        systems the compiled tables cannot represent fall back to the
        dict walk.  ``use_kernel=False`` runs the dict walk over the
        reference :class:`System` path regardless of ``shards``.
        """
        if use_kernel:
            from repro.stabilization.sharding import (
                explore_sharded,
                resolve_shards,
            )

            return explore_sharded(
                system,
                relation,
                initial,
                max_configurations,
                action_mode,
                kernel,
                resolve_shards(shards),
            )
        return cls._explore_walk(
            system, relation, initial, max_configurations, action_mode,
            kernel, use_kernel=False,
        )

    @classmethod
    def _explore_walk(
        cls,
        system: System,
        relation: SchedulerRelation,
        initial: Iterable[Configuration] | None = None,
        max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
        action_mode: str = "all",
        kernel: TransitionKernel | None = None,
        use_kernel: bool = True,
    ) -> "StateSpace":
        """The FIFO dict walk: the compiled explorer's fallback and oracle.

        Interns configurations in discovery order and resolves each
        source's guards once per local neighborhood (through ``kernel``,
        or the reference :class:`System` with ``use_kernel=False``); every
        subset step composes from those solo resolutions (atomic reads).
        """
        if initial is None:
            space_size = system.num_configurations()
            if space_size > max_configurations:
                raise StateSpaceError(
                    f"configuration space has {space_size} states,"
                    f" budget is {max_configurations}"
                )
            seeds: Iterator[Configuration] | list[Configuration] = (
                system.all_configurations()
            )
        else:
            seeds = list(initial)

        configurations: list[Configuration] = []
        index: dict[Configuration, int] = {}
        queue: deque[int] = deque()

        def intern(configuration: Configuration) -> int:
            existing = index.get(configuration)
            if existing is not None:
                return existing
            if len(configurations) >= max_configurations:
                raise StateSpaceError(
                    f"exploration exceeded {max_configurations}"
                    " configurations"
                )
            fresh = len(configurations)
            index[configuration] = fresh
            configurations.append(configuration)
            queue.append(fresh)
            return fresh

        for seed in seeds:
            intern(seed)

        engine = resolve_engine(system, kernel, use_kernel)
        edges: list[list[LabeledEdge]] = []
        enabled_lists: list[tuple[int, ...]] = []
        # Subset tuples repeat across configurations sharing an enabled
        # set; cache their bitmasks instead of re-walking the bits.
        mask_cache: dict[tuple[int, ...], int] = {}
        processed = 0
        while queue:
            source_id = queue.popleft()
            # Queue order is FIFO over intern order, so source_id == processed.
            assert source_id == processed
            processed += 1
            source = configurations[source_id]
            # Resolve guards/outcomes once per local neighborhood; all
            # subset steps compose from these solo resolutions (atomic
            # reads).
            resolved = engine.resolved_actions(source)
            enabled = tuple(sorted(resolved))
            enabled_lists.append(enabled)
            outgoing: list[LabeledEdge] = []
            seen: set[LabeledEdge] = set()
            if enabled:
                for subset in relation.subsets(enabled):
                    mask = mask_cache.get(subset)
                    if mask is None:
                        mask = subset_to_mask(subset)
                        mask_cache[subset] = mask
                    for _, target in compose_weighted_targets(
                        source, subset, resolved, action_mode
                    ):
                        target_id = intern(target)
                        edge = (mask, target_id)
                        if edge not in seen:
                            seen.add(edge)
                            outgoing.append(edge)
            edges.append(outgoing)

        return cls(system, relation, configurations, index, edges, enabled_lists)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_configurations(self) -> int:
        """Number of explored configurations."""
        return len(self.configurations)

    @property
    def num_edges(self) -> int:
        """Number of labelled edges."""
        return sum(len(outgoing) for outgoing in self.edges)

    def id_of(self, configuration: Configuration) -> int:
        """Dense id of a configuration (must have been explored)."""
        try:
            return self.index[configuration]
        except KeyError:
            raise StateSpaceError(
                f"configuration {configuration!r} was not explored"
            ) from None

    def successors(self, config_id: int) -> list[int]:
        """Target ids of all outgoing edges (possibly with duplicates)."""
        return [target for _, target in self.edges[config_id]]

    def is_terminal(self, config_id: int) -> bool:
        """No enabled process."""
        return not self.enabled[config_id]

    def terminal_ids(self) -> list[int]:
        """All terminal configuration ids."""
        return [
            config_id
            for config_id in range(self.num_configurations)
            if self.is_terminal(config_id)
        ]

    def reverse_adjacency(self) -> list[list[int]]:
        """Predecessor lists (computed lazily, cached)."""
        if self._reverse is None:
            reverse: list[list[int]] = [
                [] for _ in range(self.num_configurations)
            ]
            for source, outgoing in enumerate(self.edges):
                for _, target in outgoing:
                    reverse[target].append(source)
            self._reverse = reverse
        return self._reverse

    def legitimate_mask(
        self, predicate
    ) -> list[bool]:
        """Evaluate a ``(system, configuration) -> bool`` predicate on all
        explored configurations."""
        return [
            predicate(self.system, configuration)
            for configuration in self.configurations
        ]

    def find_edge(
        self, source_id: int, target_id: int
    ) -> LabeledEdge | None:
        """Some edge from ``source_id`` to ``target_id`` (or ``None``)."""
        for edge in self.edges[source_id]:
            if edge[1] == target_id:
                return edge
        return None

    def induced_edges(
        self, keep: Sequence[bool]
    ) -> list[list[LabeledEdge]]:
        """Outgoing edges restricted to configurations with ``keep`` true
        on both endpoints (others get empty lists)."""
        return [
            [
                (mask, target)
                for mask, target in outgoing
                if keep[source] and keep[target]
            ]
            if keep[source]
            else []
            for source, outgoing in enumerate(self.edges)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StateSpace(configs={self.num_configurations},"
            f" edges={self.num_edges}, relation={self.relation.name!r})"
        )
