"""Exhaustive state-space exploration with subset-labelled edges.

Because stabilizing systems take ``I = C`` and all our domains are finite,
the full transition system is a finite digraph.  :class:`StateSpace`
interns configurations to dense integer ids and records, for every
configuration, the outgoing steps allowed by a scheduler relation — each
edge labelled with the *activation bitmask* of the processes that moved
(needed by the fairness analysis of Theorem 6).

Edges follow possibility semantics: a probabilistic action contributes one
edge per outcome in its support.

The digraph is stored as CSR arrays — ``indptr``, ``targets``,
``masks`` and per-configuration ``enabled_bits`` — which the
convergence checks and witnesses read directly (one backward BFS and
one SCC call, :mod:`repro.stabilization.convergence`).  The per-source
``edges`` lists and ``enabled`` tuples are lazy views for callers that
want them.

Two explorers produce the same digraph (see ``docs/architecture.md``):

* the **support view** of the chain builder's one expander
  (:func:`repro.markov.builder._expand`) — the default: the relation
  is the expander's plan with every allowed subset at weight one, so
  the explored edges are exactly the support of the Markov chain of any
  randomized scheduler over the same subsets.  Configurations are
  mixed-radix ranks over the compiled NumPy class tables, and every
  block expands as whole-block array expressions under the central,
  synchronous and distributed relations;
* the **dict walk** below — a FIFO walk that resolves guards and
  outcomes through the reference :class:`~repro.core.system.System`.
  It is the fallback for other relations (a subclass may redefine
  ``subsets``) and for systems the compiled tables cannot represent,
  and the oracle the support view is tested against.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from repro.core.configuration import Configuration
from repro.core.encoding import (
    CompiledKernelTables,
    ranks_fit_int64,
    tables_for,
)
from repro.core.system import System, compose_weighted_targets
from repro.errors import ModelError, StateSpaceError
from repro.markov.batch import mark_states
from repro.markov.builder import (
    _ChainContext,
    _count_groups,
    _enabled_cells,
    _expand,
    _PlanCache,
    _RelationPlan,
)
from repro.schedulers.relations import (
    CentralRelation,
    DistributedRelation,
    SchedulerRelation,
    SynchronousRelation,
)

__all__ = ["StateSpace", "LabeledEdge", "subset_to_mask", "mask_to_subset"]

#: (activation bitmask, target configuration id)
LabeledEdge = tuple[int, int]

#: Default exploration budget; theorem checks stay far below this.
DEFAULT_MAX_CONFIGURATIONS = 2_000_000

#: Activation and enabled bitmasks are int64 up to this many processes;
#: systems with more take the dict walk, whose masks are then Python
#: ints (``dtype=object``).
MAX_MASKED_PROCESSES = 62

#: Relations whose subsets depend only on positions in the sorted enabled
#: tuple (exact types: a subclass may redefine ``subsets``).
_POSITIONAL_RELATIONS = (
    CentralRelation,
    SynchronousRelation,
    DistributedRelation,
)

#: Positional plans, shared by every exploration under an equal relation
#: (keyed by its type and instance state).
_SHARED_PLANS: dict[tuple, _PlanCache] = {}


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


def _check_space_budget(system: System, max_configurations: int) -> None:
    space_size = system.num_configurations()
    if space_size > max_configurations:
        raise StateSpaceError(
            f"configuration space has {space_size} states,"
            f" budget is {max_configurations}"
        )


class StateSpace:
    """The explored digraph of a system under a scheduler relation.

    Edges are stored as CSR arrays: those of configuration ``i`` sit at
    positions ``indptr[i]:indptr[i + 1]`` of ``targets`` (target ids)
    and ``masks`` (activation bitmasks), in exploration order.
    ``enabled_bits[i]`` is the bitmask of the processes enabled at
    ``i`` (0 at a terminal configuration, which has no edges).  Masks
    are int64 for up to :data:`MAX_MASKED_PROCESSES` processes and
    Python ints (``dtype=object``) above.  ``edges`` and ``enabled``
    are lazy list views of these arrays.  The support view also keeps
    the configurations' ``(S, N)`` code matrix and the compiled
    ``tables`` it was expanded over (both ``None`` after the dict
    walk), which :meth:`legitimate_mask` evaluates batch forms on.
    """

    def __init__(
        self,
        system: System,
        relation: SchedulerRelation,
        configurations: list[Configuration],
        index: dict[Configuration, int],
        indptr: np.ndarray,
        targets: np.ndarray,
        masks: np.ndarray,
        enabled_bits: np.ndarray,
        codes: np.ndarray | None = None,
        tables: CompiledKernelTables | None = None,
    ) -> None:
        self.system = system
        self.relation = relation
        self.configurations = configurations
        self.index = index
        self.indptr = indptr
        self.targets = targets
        self.masks = masks
        self.enabled_bits = enabled_bits
        self.codes = codes
        self.tables = tables
        self._edges: list[list[LabeledEdge]] | None = None
        self._enabled: list[tuple[int, ...]] | None = None

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
    ) -> "StateSpace":
        """Breadth-first exploration from ``initial`` (default: all of C).

        With the default initial set the explored graph is the complete
        transition system; with a restricted initial set it is the
        reachable fragment (used e.g. for transformed systems whose full
        space is large).  Explicit seeds must be configurations of
        ``system`` (:class:`~repro.errors.ModelError` otherwise).

        The digraph is the support view of the chain builder's expander
        over the compiled class tables (see the module docstring), with
        the same ids, edges and enabled tuples as the dict walk.
        Relations other than the exact central, synchronous and
        distributed types, and systems the tables cannot represent
        (neighborhood space over the compilation budget, ranks beyond
        int64, or more than :data:`MAX_MASKED_PROCESSES` processes),
        take the dict walk (:meth:`_explore_walk`) over :class:`System`.
        """
        seeds = None if initial is None else list(initial)
        if (
            type(relation) in _POSITIONAL_RELATIONS
            and system.num_processes <= MAX_MASKED_PROCESSES
        ):
            if seeds is None:
                _check_space_budget(system, max_configurations)
            tables = None
            if ranks_fit_int64(system):
                try:
                    tables = tables_for(system)
                except ModelError:
                    pass  # over the compilation budget: take the dict walk
            if tables is not None:
                return _support_view(
                    system, relation, seeds, max_configurations, tables
                )
        return cls._explore_walk(system, relation, seeds, max_configurations)

    @classmethod
    def _explore_walk(
        cls,
        system: System,
        relation: SchedulerRelation,
        initial: Iterable[Configuration] | None = None,
        max_configurations: int = DEFAULT_MAX_CONFIGURATIONS,
    ) -> "StateSpace":
        """The FIFO dict walk: the support view's fallback and oracle.

        Interns configurations in discovery order and resolves each
        source's guards and outcomes once per process through
        :class:`System`; every subset step composes from those solo
        resolutions (atomic reads).
        The edges are packed into the CSR arrays once, at the end.
        """
        if initial is None:
            _check_space_budget(system, max_configurations)
            seeds: Iterator[Configuration] | list[Configuration] = (
                system.all_configurations()
            )
        else:
            seeds = list(initial)
            for seed in seeds:
                system.check_configuration(seed)

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

        ends: list[int] = [0]
        masks: list[int] = []
        targets: list[int] = []
        enabled_bits: list[int] = []
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
            # Resolve guards/outcomes once per process; all subset steps
            # compose from these solo resolutions (atomic reads).
            resolved = system.resolved_actions(source)
            enabled = tuple(sorted(resolved))
            enabled_bits.append(subset_to_mask(enabled))
            seen: set[LabeledEdge] = set()
            if enabled:
                for subset in relation.subsets(enabled):
                    mask = mask_cache.get(subset)
                    if mask is None:
                        mask = subset_to_mask(subset)
                        mask_cache[subset] = mask
                    for _, target in compose_weighted_targets(
                        source, subset, resolved
                    ):
                        target_id = intern(target)
                        edge = (mask, target_id)
                        if edge not in seen:
                            seen.add(edge)
                            masks.append(mask)
                            targets.append(target_id)
            ends.append(len(targets))

        # Bitmasks of more processes than int64 holds stay Python ints.
        bits = (
            np.int64
            if system.num_processes <= MAX_MASKED_PROCESSES
            else object
        )
        return cls(
            system,
            relation,
            configurations,
            index,
            np.array(ends, dtype=np.int64),
            np.array(targets, dtype=np.int64),
            np.array(masks, dtype=bits),
            np.array(enabled_bits, dtype=bits),
        )

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
        return int(self.targets.shape[0])

    @property
    def edges(self) -> list[list[LabeledEdge]]:
        """Per-source ``(mask, target)`` list view (lazy).

        Materialized on first access only; the convergence checks and
        witnesses read the CSR arrays.
        """
        if self._edges is None:
            pairs = list(zip(self.masks.tolist(), self.targets.tolist()))
            bounds = self.indptr.tolist()
            self._edges = [
                pairs[start:stop] for start, stop in zip(bounds, bounds[1:])
            ]
        return self._edges

    @property
    def enabled(self) -> list[tuple[int, ...]]:
        """Per-configuration sorted enabled processes (lazy view of
        ``enabled_bits``)."""
        if self._enabled is None:
            distinct, inverse = np.unique(
                self.enabled_bits, return_inverse=True
            )
            subsets = [mask_to_subset(bits) for bits in distinct.tolist()]
            self._enabled = [subsets[i] for i in inverse.tolist()]
        return self._enabled

    @cached_property
    def sources(self) -> np.ndarray:
        """``(E,)`` source id of each edge."""
        return np.repeat(
            np.arange(self.num_configurations), np.diff(self.indptr)
        )

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
        start, stop = self.indptr[config_id], self.indptr[config_id + 1]
        return self.targets[start:stop].tolist()

    def is_terminal(self, config_id: int) -> bool:
        """No enabled process."""
        return not self.enabled_bits[config_id]

    def terminal_ids(self) -> list[int]:
        """All terminal configuration ids."""
        return np.flatnonzero(self.enabled_bits == 0).tolist()

    def legitimate_mask(self, predicate) -> list[bool]:
        """Legitimacy of every explored configuration.

        ``predicate`` is a
        :class:`~repro.stabilization.specification.Specification`, a
        :class:`~repro.markov.batch.BatchLegitimacy` or a scalar
        ``predicate(system, configuration)``, evaluated by
        :func:`repro.markov.batch.mark_states`: a batch form runs over
        the kept code matrix, and a specification on a dict-walk space
        (no tables) falls back to its scalar predicate.
        """
        return mark_states(
            predicate,
            self.system,
            self.configurations,
            lambda: self.codes,
            None if self.tables is None else lambda: self.tables,
        ).tolist()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StateSpace(configs={self.num_configurations},"
            f" edges={self.num_edges}, relation={self.relation.name!r})"
        )


# ----------------------------------------------------------------------
# the support view of the chain builder's expander
# ----------------------------------------------------------------------
def _activation_masks(
    context, chunk
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """One chunk's enabled sets and edge masks, as bitmasks, and its edge
    choices — ``None`` when its edges are its (source, choice) pairs,
    one each, which leaves nothing to dedup.

    An edge's mask is the plan membership of its ``choice`` mapped onto
    its source's sorted enabled processes: per enabled count, the
    processes' bits times the plan's membership matrix.  A terminal
    source's self-loop gets mask 0.
    """
    enabled = chunk.enabled
    enabled_bits = enabled @ (
        np.int64(1) << np.arange(enabled.shape[1], dtype=np.int64)
    )
    # One mask per (source, subset) pair; an edge reads its pair's
    # (edges are the pairs when every move is deterministic).
    enabled_counts = enabled.sum(axis=1, dtype=np.int64)
    plan = context.plan_table(enabled_counts)
    cell_source, process, position = _enabled_cells(enabled, enabled_counts)
    bits = np.zeros((enabled.shape[0], plan.members.shape[0]), np.int64)
    bits[cell_source, position] = np.int64(1) << process.astype(np.int64)
    pair_counts = plan.num_subsets[enabled_counts]
    pair_starts = np.cumsum(pair_counts) - pair_counts
    pair_masks = np.empty(int(pair_counts.sum()), dtype=np.int64)
    order, groups = _count_groups(enabled_counts)
    bits = bits[order]
    first_slot = pair_starts[order]
    for k, group in groups:
        members = context.subset_plan(k)[1]
        slots = first_slot[group, None] + np.arange(members.shape[0])
        pair_masks[slots] = bits[group, :k] @ members.T
    if np.array_equal(pair_counts, chunk.counts):
        return enabled_bits, pair_masks, None
    pair = np.repeat(pair_starts, chunk.counts) + chunk.choice
    return enabled_bits, pair_masks[pair], chunk.choice


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _support_view(
    system: System,
    relation: SchedulerRelation,
    seeds: list[Configuration] | None,
    max_configurations: int,
    tables: CompiledKernelTables,
) -> StateSpace:
    """``StateSpace.explore`` as a view of the chain builder's expander.

    Keeps each chunk's daemon choice, turns it into activation masks,
    drops the terminal sources' self-loops and dedups edges keep-first
    within each (source, choice) — the dict walk's (mask, target) dedup,
    as distinct subsets have distinct masks.  The expander's arrays,
    filtered, are the state space's CSR arrays.
    """
    key = (type(relation), *sorted(vars(relation).items()))
    plans = _SHARED_PLANS.get(key)
    if plans is None:
        plans = _SHARED_PLANS[key] = _PlanCache()
    context = _ChainContext(
        tables, _RelationPlan(relation), probabilities=False, plans=plans
    )
    configurations, codes, counts, targets, kept = _expand(
        system,
        context,
        seeds,
        max_configurations,
        lambda chunk: _activation_masks(context, chunk),
        overflow=lambda: StateSpaceError(
            f"exploration exceeded {max_configurations} configurations"
        ),
    )
    n = len(configurations)
    if not kept:  # no seeds
        empty = np.zeros(0, dtype=np.int64)
        return StateSpace(
            system, relation, [], {}, np.zeros(1, dtype=np.int64),
            empty, empty, empty,
        )
    enabled_bits, masks = (
        _joined([part[index] for part in kept]) for index in (0, 1)
    )

    # A terminal source's one edge is the expander's self-loop: keep none.
    source = np.repeat(np.arange(n), counts)
    keep = enabled_bits[source] != 0
    if any(part[2] is not None for part in kept):
        # Keep-first dedup of targets within each (source, choice) run;
        # distinct stand-in choices give a chunk of pairs one-edge runs.
        choice = _joined(
            [
                np.arange(part[1].shape[0]) if part[2] is None else part[2]
                for part in kept
            ]
        )
        fresh = np.ones(source.shape[0], dtype=bool)
        fresh[1:] = (source[1:] != source[:-1]) | (choice[1:] != choice[:-1])
        run = np.cumsum(fresh) - 1
        order = np.lexsort((targets, run))
        repeated = (run[order][1:] == run[order][:-1]) & (
            targets[order][1:] == targets[order][:-1]
        )
        keep[order[1:][repeated]] = False

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(source[keep], minlength=n), out=indptr[1:])
    index = {
        configuration: state_id
        for state_id, configuration in enumerate(configurations)
    }
    return StateSpace(
        system, relation, configurations, index, indptr,
        targets[keep], masks[keep], enabled_bits, codes, tables,
    )
