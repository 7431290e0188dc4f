"""The compiled state-space explorer, in-process or sharded across workers.

:meth:`repro.stabilization.statespace.StateSpace.explore` runs this
explorer at every shard count.  It expands the transition digraph
entirely in *code space* over the immutable
:class:`~repro.core.encoding.CompiledKernelTables`: configurations are
mixed-radix ranks over the :class:`~repro.core.encoding.StateEncoding`,
enabledness is one gather per block, and a successor is integer
arithmetic instead of tuple surgery plus dict interning.  Deterministic
blocks (one applicable action with one outcome per enabled cell — the
paper's Algorithms 1 and 2) under the central, synchronous and
distributed daemons are whole-block array expressions; everything else
replays the relation's subsets per source.

The result is **bit-for-bit identical** to the FIFO dict walk
(``StateSpace._explore_walk``, also reached through ``use_kernel=False``)
— same interned ids, edge order and enabled tuples; the dict walk is the
oracle of ``tests/test_sharded_explore.py`` and the fallback for systems
the tables cannot represent (neighborhood space over the compilation
budget, or more than :data:`MAX_SHARDABLE_PROCESSES` processes).

Two modes cover the two exploration modes:

* **full space** (``initial=None``): every configuration is a seed and
  its canonical id *is* its enumeration rank, so the id space needs no
  merge at all — blocks (or workers) take contiguous rank ranges and the
  master concatenates their edge lists;
* **reachable fragment** (explicit ``initial``): a level-synchronous
  BFS; the master interns discovered ranks in (source order, edge order)
  — the exact order the FIFO dict walk would have used.

With ``shards > 1`` the blocks go to ``multiprocessing`` workers, each
receiving the tables once (one cheap pickle, or free copy-on-write under
the ``fork`` start method).  Entry points: :func:`explore_sharded`,
:func:`resolve_shards`, and the process-wide default used by the
``--shards`` CLI flag (:func:`set_default_shards` /
:func:`get_default_shards`).
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from itertools import islice, product
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.core.configuration import Configuration
from repro.core.encoding import (
    CompiledKernelTables,
    ExpansionContext,
    tables_for,
)
from repro.core.kernel import TransitionKernel
from repro.core.system import System
from repro.errors import ModelError, StateSpaceError
from repro.schedulers.relations import (
    CentralRelation,
    DistributedRelation,
    SchedulerRelation,
    SynchronousRelation,
)

# One-way dependency: statespace imports this module only lazily inside
# ``StateSpace.explore``, so importing its helpers here is cycle-free.
from repro.stabilization.statespace import subset_to_mask

if TYPE_CHECKING:  # pragma: no cover - forward reference only
    from repro.stabilization.statespace import StateSpace

__all__ = [
    "ExpansionContext",
    "explore_sharded",
    "resolve_shards",
    "set_default_shards",
    "get_default_shards",
    "MAX_SHARDABLE_PROCESSES",
]

#: Activation bitmasks travel as int64-friendly Python ints; beyond this
#: many processes the compiled explorer defers to the dict walk (whose
#: exploration budget such systems exceed anyway).
MAX_SHARDABLE_PROCESSES = 62

#: Frontiers smaller than this are expanded in-process: the pickle +
#: scheduling overhead of a worker round-trip exceeds the work.
MIN_FRONTIER_FOR_WORKERS = 256

#: Sources per in-process block: bounds the per-block code and edge
#: arrays on large full-space explorations.
IN_PROCESS_BLOCK = 1 << 16

#: Wall-clock budget (seconds) for one pool task batch.  A worker that
#: dies mid-task (OOM kill, SIGKILL) loses its task, and a bare
#: ``Pool.map`` would then block forever; ``map_async(...).get`` with
#: this timeout surfaces the death as a supervisable failure instead.
#: Module-level so tests (and desperate operators) can lower it.
POOL_TASK_TIMEOUT = 600.0

#: Process-wide default shard count, used when ``StateSpace.explore`` is
#: called with ``shards=None`` — set by the ``--shards`` CLI flag.
_DEFAULT_SHARDS = 1

#: Relations whose deterministic-block expansion is a pure array
#: expression (exact types: a subclass may redefine ``subsets``).
_VECTOR_RELATIONS = (
    CentralRelation,
    SynchronousRelation,
    DistributedRelation,
)


def set_default_shards(shards: int | str) -> int:
    """Set the process-wide default shard count (``"auto"`` allowed).

    Returns the resolved count.  ``StateSpace.explore(shards=None)`` —
    i.e. every exploration that does not choose explicitly, including all
    experiment runners — picks this default up, which is how the
    ``--shards`` flag of ``python -m repro.experiments run`` reaches
    exploration without threading a parameter through every runner.
    """
    global _DEFAULT_SHARDS
    _DEFAULT_SHARDS = resolve_shards(shards)
    return _DEFAULT_SHARDS


def get_default_shards() -> int:
    """The process-wide default shard count (1 unless configured)."""
    return _DEFAULT_SHARDS


def resolve_shards(shards: int | str | None) -> int:
    """Normalize a ``shards`` argument to a positive worker count.

    ``None`` → the process-wide default; ``"auto"`` → the number of CPUs
    available to this process (affinity-aware, capped at 8 — exploration
    merge work is serial, so very wide pools stop paying off); an int is
    validated and returned as-is.
    """
    if shards is None:
        return _DEFAULT_SHARDS
    if isinstance(shards, str):
        if shards != "auto":
            raise StateSpaceError(
                f"shards must be a positive int or 'auto', got {shards!r}"
            )
        try:
            available = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            available = os.cpu_count() or 1
        return max(1, min(available, 8))
    if shards < 1:
        raise StateSpaceError(
            f"shards must be a positive int or 'auto', got {shards!r}"
        )
    return int(shards)


# ----------------------------------------------------------------------
# the compiled expansion shared by workers and the in-process fallback
# ----------------------------------------------------------------------
class _ShardContext(ExpansionContext):
    """Per-worker read-only state: shared lookups plus the relation.

    Built once per worker process (or once in the master for small
    frontiers).
    """

    def __init__(
        self,
        tables: CompiledKernelTables,
        relation: SchedulerRelation,
        action_mode: str,
    ) -> None:
        super().__init__(tables)
        self.relation = relation
        self.action_mode = action_mode


#: Wire format a worker sends back, all flat and cheap to pickle:
#: (per-source enabled counts, flat enabled process ids, per-source edge
#:  counts, flat edge masks, flat edge target ranks).  Arrays are int64;
#: ``targets`` degrades to a Python list when ranks exceed int64.
_ChunkResult = tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, "np.ndarray | list[int]"
]


def _distributed_edges(
    relation: DistributedRelation,
    enabled_counts: np.ndarray,
    enabled_cols: np.ndarray,
    rank_array: np.ndarray,
    delta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every non-empty subset edge of a deterministic block at once.

    Sources are grouped by enabled count ``k``; the ``2^k − 1`` subsets
    of a group are the rows of one 0/1 ``indicator`` matrix in
    :meth:`DistributedRelation.subsets` order (subset ``s`` holds the
    ``i``-th enabled process iff bit ``i`` of ``s + 1`` is set), so a
    group's targets are ``rank + delta[:, enabled] @ indicator.T`` and its
    masks ``bits @ indicator.T``.  Distinct subsets have distinct masks
    and one target each, so no dedup is needed.  Returns per-source edge
    counts, flat masks and flat targets.
    """
    if enabled_counts.size and enabled_counts.max() > relation.max_enabled:
        first = int(np.argmax(enabled_counts > relation.max_enabled))
        # Same SchedulerError the dict walk gets from the relation.
        next(relation.subsets(range(int(enabled_counts[first]))))
    edge_counts = np.where(
        enabled_counts > 0, (np.int64(1) << enabled_counts) - 1, 0
    )
    edge_starts = np.cumsum(edge_counts) - edge_counts
    col_starts = np.cumsum(enabled_counts) - enabled_counts
    total = int(edge_counts.sum())
    masks = np.empty(total, dtype=np.int64)
    targets = np.empty(total, dtype=np.int64)
    for k in np.unique(enabled_counts[enabled_counts > 0]).tolist():
        sources = np.flatnonzero(enabled_counts == k)
        positions = np.arange(k, dtype=np.int64)
        movers = enabled_cols[col_starts[sources, None] + positions]
        indicator = (
            np.arange(1, 1 << k, dtype=np.int64)[:, None] >> positions
        ) & 1
        slots = edge_starts[sources, None] + np.arange(
            (1 << k) - 1, dtype=np.int64
        )
        targets[slots] = (
            rank_array[sources, None]
            + delta[sources[:, None], movers] @ indicator.T
        )
        masks[slots] = (np.int64(1) << movers) @ indicator.T
    return edge_counts, masks, targets


def _expand_block(
    context: _ShardContext, codes: np.ndarray, ranks: Sequence[int]
) -> _ChunkResult:
    """Expand one slice of sources entirely in code space.

    Reproduces the dict walk's per-source behavior exactly —
    same ``enabled`` tuples (sorted process ids), same subset enumeration
    through ``relation.subsets``, same branch order as
    :func:`repro.core.system.compose_weighted_targets`, and the same
    keep-first edge dedup — but a successor is ``source rank + Σ (new
    code − old code) · weight`` instead of tuple surgery, and enabledness
    is one vectorized gather for the whole slice.

    Deterministic blocks (every enabled cell has one applicable action
    with one outcome — the paper's Algorithms 1 and 2) under the central,
    synchronous or distributed relation skip the per-source loop
    entirely: edges are emitted as whole-block array expressions.
    """
    tables = context.tables
    keys = tables.pack(codes)
    enabled_matrix = tables.enabled_flat[keys]
    counts_matrix = tables.action_count[keys]
    bases_matrix = tables.action_base[keys]

    enabled_counts = enabled_matrix.sum(axis=1, dtype=np.int64)
    enabled_cols = np.nonzero(enabled_matrix)[1].astype(np.int64)

    relation = context.relation
    first_only = context.action_mode == "first"

    # ------------------------------------------------------------------
    # vectorized layer: deterministic cells, central/synchronous/distributed
    # ------------------------------------------------------------------
    if context.int64_safe and type(relation) in _VECTOR_RELATIONS:
        candidate = enabled_matrix & (
            (counts_matrix == 1) if not first_only else enabled_matrix
        )
        deterministic = candidate & (context.arity[bases_matrix] == 1)
        if np.array_equal(deterministic, enabled_matrix):
            rank_array = np.fromiter(
                ranks, dtype=np.int64, count=len(codes)
            )
            # Post-state delta of each (source, process) solo move:
            # (new code − old code) · weight — zero where disabled.
            delta = np.where(
                enabled_matrix,
                (context.first_outcome[bases_matrix] - codes.astype(np.int64))
                * context.weights_row,
                0,
            )
            if type(relation) is CentralRelation:
                source_idx, movers = np.nonzero(enabled_matrix)
                masks = np.int64(1) << movers
                targets = rank_array[source_idx] + delta[source_idx, movers]
                return (
                    enabled_counts,
                    enabled_cols,
                    enabled_counts,
                    masks,
                    targets,
                )
            if type(relation) is DistributedRelation:
                return (
                    enabled_counts,
                    enabled_cols,
                    *_distributed_edges(
                        relation, enabled_counts, enabled_cols, rank_array,
                        delta,
                    ),
                )
            # synchronous: one edge per non-terminal source, all movers.
            bits = np.int64(1) << np.arange(
                context.num_processes, dtype=np.int64
            )
            nonterminal = enabled_counts > 0
            masks = (enabled_matrix * bits).sum(axis=1)[nonterminal]
            targets = (rank_array + delta.sum(axis=1))[nonterminal]
            return (
                enabled_counts,
                enabled_cols,
                nonterminal.astype(np.int64),
                masks,
                targets,
            )

    # ------------------------------------------------------------------
    # scalar replay layer: any relation, any action/outcome structure
    # ------------------------------------------------------------------
    counts = counts_matrix.tolist()
    bases = bases_matrix.tolist()
    rows = codes.tolist()
    per_row = enabled_counts.tolist()
    flat_enabled = enabled_cols.tolist()
    outcome_codes = context.outcome_codes
    weights = context.config_weights
    # Subset/mask plans repeat across sources sharing an enabled set;
    # enumerate each distinct enabled tuple through the relation once.
    plan_cache: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}

    edge_counts: list[int] = []
    edge_masks: list[int] = []
    edge_targets: list[int] = []

    cursor = 0
    for index, source_rank in enumerate(ranks):
        count = per_row[index]
        enabled = tuple(flat_enabled[cursor : cursor + count])
        cursor += count
        emitted = 0
        if enabled:
            row = rows[index]
            row_counts = counts[index]
            row_bases = bases[index]
            plan = plan_cache.get(enabled)
            if plan is None:
                plan = [
                    (subset_to_mask(subset), subset)
                    for subset in relation.subsets(enabled)
                ]
                plan_cache[enabled] = plan
            for mask, subset in plan:
                # Edges dedup keep-first *within* a subset (distinct
                # subsets have distinct masks, so cross-subset duplicates
                # cannot occur); a subset with a single branch — one
                # applicable action per mover, one outcome each — needs
                # no dedup at all.
                if len(subset) == 1:
                    process = subset[0]
                    base = row_bases[process]
                    stop = base + (1 if first_only else row_counts[process])
                    weight = weights[process]
                    old = row[process] * weight
                    if stop == base + 1 and len(outcome_codes[base]) == 1:
                        edge_masks.append(mask)
                        edge_targets.append(
                            source_rank + outcome_codes[base][0] * weight - old
                        )
                        emitted += 1
                        continue
                    seen: set[int] = set()
                    for action_row in range(base, stop):
                        for code in outcome_codes[action_row]:
                            target = source_rank + code * weight - old
                            if target not in seen:
                                seen.add(target)
                                edge_masks.append(mask)
                                edge_targets.append(target)
                                emitted += 1
                    continue
                choice_lists = [
                    [
                        (
                            weights[process],
                            row[process] * weights[process],
                            outcome_codes[action_row],
                        )
                        for action_row in range(
                            row_bases[process],
                            row_bases[process]
                            + (1 if first_only else row_counts[process]),
                        )
                    ]
                    for process in subset
                ]
                if all(
                    len(choices) == 1 and len(choices[0][2]) == 1
                    for choices in choice_lists
                ):
                    target = source_rank
                    for weight, old, codes_ in (
                        choices[0] for choices in choice_lists
                    ):
                        target += codes_[0] * weight - old
                    edge_masks.append(mask)
                    edge_targets.append(target)
                    emitted += 1
                    continue
                seen = set()
                for assignment in product(*choice_lists):
                    outcome_spaces = [codes_ for _, _, codes_ in assignment]
                    for combo in product(*outcome_spaces):
                        target = source_rank
                        for (weight, old, _), code in zip(assignment, combo):
                            target += code * weight - old
                        if target not in seen:
                            seen.add(target)
                            edge_masks.append(mask)
                            edge_targets.append(target)
                            emitted += 1
        edge_counts.append(emitted)

    if context.int64_safe:
        targets: np.ndarray | list[int] = np.fromiter(
            edge_targets, dtype=np.int64, count=len(edge_targets)
        )
    else:
        targets = edge_targets
    return (
        enabled_counts,
        enabled_cols,
        np.fromiter(edge_counts, dtype=np.int64, count=len(edge_counts)),
        np.fromiter(edge_masks, dtype=np.int64, count=len(edge_masks)),
        targets,
    )


# ----------------------------------------------------------------------
# worker plumbing
# ----------------------------------------------------------------------
_WORKER_CONTEXT: _ShardContext | None = None


def _init_worker(
    tables: CompiledKernelTables,
    relation: SchedulerRelation,
    action_mode: str,
) -> None:
    """Pool initializer: build the per-worker read-only context once."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = _ShardContext(tables, relation, action_mode)


def _expand_rank_range(
    bounds: tuple[int, int], context: _ShardContext | None = None
) -> _ChunkResult:
    """Full-space mode: expand ranks ``[start, stop)``.

    As a pool task ``context`` defaults to the worker's initialized
    global; the master's in-process fallback passes its own.
    """
    if context is None:
        context = _WORKER_CONTEXT
    assert context is not None
    start, stop = bounds
    ranks = range(start, stop)
    codes = context.codes_of_ranks(ranks)
    return _expand_block(context, codes, ranks)


def _expand_rank_list(
    ranks: list[int], context: _ShardContext | None = None
) -> _ChunkResult:
    """Frontier mode: expand an explicit rank slice.

    As a pool task ``context`` defaults to the worker's initialized
    global; the master's in-process fallback passes its own.
    """
    if context is None:
        context = _WORKER_CONTEXT
    assert context is not None
    codes = context.codes_of_ranks(ranks)
    return _expand_block(context, codes, ranks)


def _chunk_bounds(total: int, shards: int) -> list[tuple[int, int]]:
    """Near-equal contiguous ``[start, stop)`` chunks covering ``total``."""
    shards = min(shards, total)
    step, remainder = divmod(total, shards)
    bounds = []
    start = 0
    for shard in range(shards):
        stop = start + step + (1 if shard < remainder else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _make_pool(
    shards: int,
    tables: CompiledKernelTables,
    relation: SchedulerRelation,
    action_mode: str,
):
    """A worker pool, preferring ``fork`` (copy-on-write table sharing)."""
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        mp_context = multiprocessing.get_context()
    return mp_context.Pool(
        processes=shards,
        initializer=_init_worker,
        initargs=(tables, relation, action_mode),
    )


def _warn_pool_failure(error: BaseException, action: str) -> None:
    warnings.warn(
        "sharded exploration worker pool failed"
        f" ({type(error).__name__}: {error}); {action}",
        RuntimeWarning,
        stacklevel=3,
    )


class _SupervisedPool:
    """Pool wrapper that survives worker death.

    ``map`` runs a task batch with a wall-clock budget
    (:data:`POOL_TASK_TIMEOUT` — a killed worker loses its task, which
    a bare ``Pool.map`` would wait on forever).  On the first failure
    the batch is retried once on a fresh pool; on the second the pool
    is written off for good and this batch — and every later one — runs
    in-process through ``fallback``, with a clear warning instead of an
    opaque multiprocessing traceback.  Results are identical on every
    path; only wall-clock changes.
    """

    def __init__(
        self,
        shards: int,
        tables: CompiledKernelTables,
        relation: SchedulerRelation,
        action_mode: str,
        task: Callable,
        fallback: Callable[[list], list[_ChunkResult]],
    ) -> None:
        self._factory = lambda: _make_pool(
            shards, tables, relation, action_mode
        )
        self._task = task
        self._fallback = fallback
        self._pool = None
        self.broken = False

    def map(self, chunks: list) -> list[_ChunkResult]:
        if not self.broken:
            for retry in (False, True):
                if self._pool is None:
                    self._pool = self._factory()
                try:
                    return self._pool.map_async(self._task, chunks).get(
                        POOL_TASK_TIMEOUT
                    )
                except Exception as error:
                    self._close()
                    _warn_pool_failure(
                        error,
                        "falling back to in-process sequential expansion"
                        if retry
                        else "retrying the batch on a fresh pool",
                    )
            self.broken = True
        return self._fallback(chunks)

    def _close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def close(self) -> None:
        """Tear down the pool (idempotent)."""
        self._close()


# ----------------------------------------------------------------------
# the compiled explorer
# ----------------------------------------------------------------------
def explore_sharded(
    system: System,
    relation: SchedulerRelation,
    initial: Iterable[Configuration] | None,
    max_configurations: int,
    action_mode: str,
    kernel: TransitionKernel | None,
    shards: int,
) -> "StateSpace":
    """The compiled ``StateSpace.explore`` (see module docs).

    ``shards == 1`` expands in-process; ``shards > 1`` adds a worker
    pool.  Falls back to the dict walk when the system cannot take the
    compiled tables (neighborhood space over the compilation budget, or
    more than :data:`MAX_SHARDABLE_PROCESSES` processes) — the result is
    identical either way.
    """
    from repro.stabilization.statespace import StateSpace

    if action_mode not in ("all", "first"):
        # Same rejection the dict walk gets from compose_weighted_targets
        # — the compiled path must not relax validation.
        raise ModelError(f"unknown action_mode {action_mode!r}")
    seeds = None if initial is None else list(initial)

    def walk() -> "StateSpace":
        return StateSpace._explore_walk(
            system, relation, seeds, max_configurations, action_mode, kernel
        )

    if system.num_processes > MAX_SHARDABLE_PROCESSES:
        return walk()
    if seeds is None and system.num_configurations() > max_configurations:
        # Same immediate rejection the dict walk gives — don't pay for
        # table compilation first.
        raise StateSpaceError(
            f"configuration space has {system.num_configurations()} states,"
            f" budget is {max_configurations}"
        )
    try:
        tables = tables_for(system if kernel is None else kernel)
    except ModelError:
        # Neighborhood space over the compilation budget: the tables
        # cannot represent this system; take the dict walk.
        return walk()

    if seeds is None:
        return _explore_full(system, relation, action_mode, tables, shards)
    return _explore_frontier(
        system,
        relation,
        seeds,
        max_configurations,
        action_mode,
        tables,
        shards,
    )


def _explore_full(
    system: System,
    relation: SchedulerRelation,
    action_mode: str,
    tables: CompiledKernelTables,
    shards: int,
) -> "StateSpace":
    """Full-space mode: ids are enumeration ranks; no id merge needed."""
    from repro.stabilization.statespace import StateSpace

    space_size = system.num_configurations()
    if shards > 1 and space_size >= MIN_FRONTIER_FOR_WORKERS:
        bounds = _chunk_bounds(space_size, shards)
        # The fallback context is built only if the pool actually breaks.
        local: list[_ShardContext] = []

        def fallback(chunks: list) -> list[_ChunkResult]:
            if not local:
                local.append(_ShardContext(tables, relation, action_mode))
            return [_expand_rank_range(chunk, local[0]) for chunk in chunks]

        pool = _SupervisedPool(
            len(bounds),
            tables,
            relation,
            action_mode,
            _expand_rank_range,
            fallback,
        )
        try:
            results = pool.map(bounds)
        finally:
            pool.close()
    else:
        context = _ShardContext(tables, relation, action_mode)
        results = (
            _expand_rank_range(
                (start, min(start + IN_PROCESS_BLOCK, space_size)), context
            )
            for start in range(0, space_size, IN_PROCESS_BLOCK)
        )

    edges: list[list[tuple[int, int]]] = []
    enabled_lists: list[tuple[int, ...]] = []
    for result in results:
        _append_chunk(result, enabled_lists, edges)

    configurations = list(system.all_configurations())
    index = {
        configuration: rank
        for rank, configuration in enumerate(configurations)
    }
    return StateSpace(
        system, relation, configurations, index, edges, enabled_lists
    )


def _append_chunk(
    result: _ChunkResult,
    enabled_lists: list[tuple[int, ...]],
    edges: list[list[tuple[int, int]]],
    intern=None,
) -> None:
    """Replay one chunk's flat wire arrays into per-source Python lists.

    ``intern`` (frontier mode) maps target ranks to canonical ids while
    preserving (source order, edge order); full-space mode passes
    ``None`` because there the rank *is* the id.
    """
    en_counts, en_cols, edge_counts, masks, targets = result
    cols = iter(en_cols.tolist())
    enabled_lists.extend(
        tuple(islice(cols, count)) for count in en_counts.tolist()
    )
    target_list = targets.tolist() if isinstance(targets, np.ndarray) else targets
    if intern is not None:
        target_list = [intern(rank) for rank in target_list]
    pairs = list(zip(masks.tolist(), target_list))
    stops = np.cumsum(edge_counts).tolist()
    edges.extend(
        pairs[start:stop] for start, stop in zip([0, *stops], stops)
    )


def _explore_frontier(
    system: System,
    relation: SchedulerRelation,
    seeds: list[Configuration],
    max_configurations: int,
    action_mode: str,
    tables: CompiledKernelTables,
    shards: int,
) -> "StateSpace":
    """Reachable-fragment mode: level-synchronous BFS with canonical merge.

    The master owns the rank → id interning; workers only expand.  Each
    level's results are replayed in (source order, edge order), which is
    exactly the order the FIFO dict walk interns targets in, so
    the id space comes out identical.
    """
    from repro.stabilization.statespace import StateSpace

    encoding = tables.encoding
    context = _ShardContext(tables, relation, action_mode)

    rank_to_id: dict[int, int] = {}
    rank_of_id: list[int] = []

    def intern(rank: int) -> int:
        state_id = rank_to_id.get(rank)
        if state_id is not None:
            return state_id
        if len(rank_of_id) >= max_configurations:
            raise StateSpaceError(
                f"exploration exceeded {max_configurations} configurations"
            )
        state_id = len(rank_of_id)
        rank_to_id[rank] = state_id
        rank_of_id.append(rank)
        return state_id

    for seed in seeds:
        intern(context.rank_of(encoding.encode(seed)))

    edges: list[list[tuple[int, int]]] = []
    enabled_lists: list[tuple[int, ...]] = []

    pool: _SupervisedPool | None = None
    try:
        frontier_start = 0
        while frontier_start < len(rank_of_id):
            frontier = rank_of_id[frontier_start:]
            frontier_start = len(rank_of_id)
            if len(frontier) >= MIN_FRONTIER_FOR_WORKERS and shards > 1:
                if pool is None:
                    pool = _SupervisedPool(
                        shards,
                        tables,
                        relation,
                        action_mode,
                        _expand_rank_list,
                        lambda chunks: [
                            _expand_rank_list(chunk, context)
                            for chunk in chunks
                        ],
                    )
                chunks = [
                    frontier[start:stop]
                    for start, stop in _chunk_bounds(len(frontier), shards)
                ]
                results = pool.map(chunks)
            else:
                results = (
                    _expand_rank_list(
                        frontier[start : start + IN_PROCESS_BLOCK], context
                    )
                    for start in range(0, len(frontier), IN_PROCESS_BLOCK)
                )
            for result in results:
                _append_chunk(result, enabled_lists, edges, intern=intern)
    finally:
        if pool is not None:
            pool.close()

    configurations = [
        context.configuration_of_rank(rank) for rank in rank_of_id
    ]
    index = {
        configuration: state_id
        for state_id, configuration in enumerate(configurations)
    }
    return StateSpace(
        system, relation, configurations, index, edges, enabled_lists
    )
