"""Transition-matrix construction from a scheduler distribution.

For every configuration γ with ``Enabled(γ) ≠ ∅``::

    P(γ → δ) = Σ_{subsets s}  w(s) · Π_{p ∈ s}  (1/|A_p|) · q_p(o_p)

where ``w`` is the scheduler distribution over activation subsets, ``A_p``
the enabled actions of mover p (uniform choice when several are enabled —
irrelevant for the paper's algorithms, whose guards are mutually
exclusive), and ``q_p`` the action's outcome distribution.  Terminal
configurations self-loop with probability one, so legitimate terminal
configurations are absorbing.

Execution tier (see ``docs/architecture.md``): two engines build the same
chain, selected via ``engine=``:

* ``"compiled"`` — a probability-carrying extension of the sharded
  explorer's wire format.  Sources are mixed-radix configuration ranks
  over the :class:`~repro.core.encoding.StateEncoding`; a block of rows
  is expanded over the :class:`~repro.core.encoding.CompiledKernelTables`
  as ``(edge count per source, target rank, probability)`` wire arrays.
  Under the four built-in distributions (central-randomized,
  synchronous, distributed-randomized, Bernoulli) every block whose
  enabled cells each have one action — deterministic or coin-flip
  outcomes alike — is a whole-block array expression driven by one
  subset plan per enabled count.  Multi-action cells, custom
  distributions and subclasses take an order-exact scalar replay of
  the oracle's subset and branch enumeration.  The wire triples are
  deduplicated/accumulated into the CSR arrays
  :class:`~repro.markov.chain.MarkovChain` stores natively.
* ``"scalar"`` — the pre-existing dict-walk over the memoized
  :class:`~repro.core.kernel.TransitionKernel` (or the reference
  :class:`System` with ``use_kernel=False``): the bit-for-bit oracle the
  compiled path is tested against (``tests/test_chain_compiled.py``).
* ``"auto"`` (default) — compiled whenever the kernel tables fit the
  compilation budget, scalar otherwise; mirroring
  :class:`~repro.markov.montecarlo.MonteCarloRunner`'s engine knob.

Every engine builds the identical chain: same states in the same order,
same transition support, bit-identical row probabilities (the array
layer multiplies each edge's factors in the replay's order, and
``tests/test_chain_compiled.py`` pins both against each other with
``np.array_equal``).
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from repro.core.configuration import Configuration
from repro.core.encoding import ExpansionContext, compile_tables
from repro.core.kernel import TransitionKernel, resolve_engine
from repro.core.system import System, compose_weighted_targets
from repro.errors import MarkovError, ModelError
from repro.markov.chain import MarkovChain
from repro.schedulers.distributions import (
    BernoulliDistribution,
    CentralRandomizedDistribution,
    DistributedRandomizedDistribution,
    SchedulerDistribution,
    SynchronousDistribution,
)

__all__ = ["build_chain", "CHAIN_ENGINES", "DEFAULT_MAX_STATES"]

#: State-count guard against accidental blow-ups.
DEFAULT_MAX_STATES = 500_000

#: Accepted ``engine`` values.
CHAIN_ENGINES = ("auto", "compiled", "scalar")

#: Distributions whose weighted subsets depend only on positions in the
#: sorted enabled tuple, so one plan per enabled count drives the array
#: layer (exact types: a subclass may redefine ``weighted_subsets``).
_POSITIONAL_DISTRIBUTIONS = (
    CentralRandomizedDistribution,
    SynchronousDistribution,
    DistributedRandomizedDistribution,
    BernoulliDistribution,
)

#: Sources are expanded in blocks of this many ranks so the gather
#: working set stays cache-friendly and memory-bounded.
_CHAIN_BLOCK = 8192


def build_chain(
    system: System,
    distribution: SchedulerDistribution,
    initial: Iterable[Configuration] | None = None,
    max_states: int = DEFAULT_MAX_STATES,
    kernel: TransitionKernel | None = None,
    use_kernel: bool = True,
    engine: str = "auto",
) -> MarkovChain:
    """Build the Markov chain of ``system`` under ``distribution``.

    ``initial=None`` takes the full configuration space as the state set
    (the paper's ``I = C``); otherwise the chain is the forward closure of
    the given configurations.

    ``engine`` selects the execution path (see the module docstring):
    ``"compiled"`` demands the vectorized wire-format builder (raising
    :class:`MarkovError` when the system cannot take it), ``"scalar"``
    forces the dict-walk oracle — exactly the pre-compiled-tier behavior —
    and ``"auto"`` picks compiled when possible.  Pass ``kernel`` to share
    resolution tables across several chains of the same system, or
    ``use_kernel=False`` for the reference :class:`System` path (implies
    scalar).
    """
    if engine not in CHAIN_ENGINES:
        raise MarkovError(
            f"unknown engine {engine!r}; known: {CHAIN_ENGINES}"
        )
    if initial is None:
        total = system.num_configurations()
        if total > max_states:
            raise MarkovError(
                f"configuration space has {total} states, budget is"
                f" {max_states}; pass an explicit initial set"
            )

    if engine != "scalar":
        context = _compile_chain_context(
            system, distribution, kernel, use_kernel,
            require=engine == "compiled",
        )
        if context is not None:
            if initial is None:
                return _build_full(system, context)
            return _build_frontier(
                system, context, list(initial), max_states
            )

    return _build_scalar(
        system, distribution, initial, max_states, kernel, use_kernel
    )


# ----------------------------------------------------------------------
# scalar oracle path (pre-compiled-tier behavior, unchanged)
# ----------------------------------------------------------------------
def _build_scalar(
    system: System,
    distribution: SchedulerDistribution,
    initial: Iterable[Configuration] | None,
    max_states: int,
    kernel: TransitionKernel | None,
    use_kernel: bool,
) -> MarkovChain:
    seeds: Iterable[Configuration] = (
        system.all_configurations() if initial is None else initial
    )

    states: list[Configuration] = []
    index: dict[Configuration, int] = {}
    queue: deque[int] = deque()

    def intern(configuration: Configuration) -> int:
        existing = index.get(configuration)
        if existing is not None:
            return existing
        if len(states) >= max_states:
            raise MarkovError(f"chain exceeded {max_states} states")
        fresh = len(states)
        index[configuration] = fresh
        states.append(configuration)
        queue.append(fresh)
        return fresh

    for seed in seeds:
        intern(seed)

    engine = resolve_engine(system, kernel, use_kernel)
    rows: list[dict[int, float]] = []
    processed = 0
    while queue:
        state_id = queue.popleft()
        assert state_id == processed
        processed += 1
        rows.append(_row(engine, distribution, states[state_id], intern))

    return MarkovChain(system, states, rows, distribution.name)


def _row(
    engine: System | TransitionKernel,
    distribution: SchedulerDistribution,
    configuration: Configuration,
    intern,
) -> dict[int, float]:
    # Resolve guards/outcomes once per local neighborhood; every weighted
    # subset composes from the same per-process solo resolutions
    # (pre-step reads).
    resolved = engine.resolved_actions(configuration)
    enabled = tuple(sorted(resolved))
    row: dict[int, float] = {}
    if not enabled:
        row[intern(configuration)] = 1.0
        return row
    for weight, subset in distribution.weighted_subsets(enabled):
        if weight <= 0.0:
            continue
        if not subset:
            # Lazy daemons (Bernoulli with include_empty) may activate
            # nobody: an explicit self-loop.
            self_id = intern(configuration)
            row[self_id] = row.get(self_id, 0.0) + weight
            continue
        action_choices = 1
        for process in subset:
            action_choices *= len(resolved[process])
        for branch_probability, target in compose_weighted_targets(
            configuration, subset, resolved
        ):
            probability = weight * branch_probability / action_choices
            target_id = intern(target)
            row[target_id] = row.get(target_id, 0.0) + probability
    return row


# ----------------------------------------------------------------------
# compiled wire-format path
# ----------------------------------------------------------------------
class _ChainContext(ExpansionContext):
    """Expansion lookups plus the probability structure of one builder run.

    Extends the sharded explorer's :class:`ExpansionContext` (which
    already carries the per-action outcome codes *and* probabilities)
    with the distribution's subset plans, each enumerated once per
    build: per enabled tuple for the scalar replay (``plan_cache``), and
    per enabled count for the array layer (:meth:`subset_plan`).
    """

    def __init__(self, tables, distribution: SchedulerDistribution) -> None:
        super().__init__(tables)
        self.distribution = distribution
        self.plan_cache: dict[
            tuple[int, ...], list[tuple[float, tuple[int, ...]]]
        ] = {}
        # Terminal sources (k = 0): one self-loop of probability 1.
        self._subset_plans: dict[int, tuple[np.ndarray, np.ndarray]] = {
            0: (np.ones(1), np.zeros((1, 0), dtype=bool))
        }

    def subset_plan(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The distribution over positions ``range(k)``, as arrays.

        Returns the weights ``(S,)`` and the membership matrix ``(S, k)``
        of the plan's subsets in enumeration order, weights ≤ 0 dropped.
        For the built-in distributions this is the plan of every sorted
        enabled tuple of length ``k``, with position ``i`` standing for
        its ``i``-th process.  Enumerating raises the distribution's own
        ``max_enabled`` :class:`SchedulerError`, as the replay would.
        """
        plan = self._subset_plans.get(k)
        if plan is None:
            subsets = [
                (weight, subset)
                for weight, subset in self.distribution.weighted_subsets(
                    tuple(range(k))
                )
                if weight > 0.0
            ]
            members = np.zeros((len(subsets), k), dtype=bool)
            for row, (_, subset) in enumerate(subsets):
                members[row, list(subset)] = True
            plan = (np.array([weight for weight, _ in subsets]), members)
            self._subset_plans[k] = plan
        return plan


def _compile_chain_context(
    system: System,
    distribution: SchedulerDistribution,
    kernel: TransitionKernel | None,
    use_kernel: bool,
    require: bool,
) -> _ChainContext | None:
    """Tables + context for the compiled path, or ``None`` → scalar.

    ``require=True`` (``engine="compiled"``) turns every fallback reason
    into a :class:`MarkovError` instead.
    """
    if not use_kernel:
        if require:
            raise MarkovError(
                "engine='compiled' requires the kernel path"
                " (use_kernel=True)"
            )
        return None
    if kernel is None:
        kernel = TransitionKernel(system)
    try:
        tables = compile_tables(kernel)
    except ModelError as error:
        if require:
            raise MarkovError(
                f"engine='compiled' unavailable: {error}"
            ) from error
        return None
    return _ChainContext(tables, distribution)


#: Wire format of one expanded block, all flat: (edge count per source,
#: flat target ranks, flat edge probabilities).  ``targets`` degrades to
#: a Python list when ranks exceed int64.
_ChainChunk = tuple[np.ndarray, "np.ndarray | list[int]", np.ndarray]


def _expand_chain_block(
    context: _ChainContext, codes: np.ndarray, ranks: Sequence[int]
) -> _ChainChunk:
    """Expand one block of sources into probability-carrying wire arrays.

    Reproduces the scalar ``_row`` per source exactly — same weighted
    subsets in the same order, same branch enumeration as
    :func:`repro.core.system.compose_weighted_targets`, same probability
    expression ``weight · branch / action_choices`` — but a successor is
    ``source rank + Σ (new code − old code) · weight`` instead of tuple
    surgery, and enabledness is one gather for the whole block.  Edges
    are emitted pre-accumulation (duplicate targets within a row are
    summed later, in emission order, by :func:`_csr_from_wire`).

    Blocks in which every enabled cell has exactly one action (any
    outcome arity: deterministic moves and coin flips alike) under a
    built-in distribution take :func:`_array_edges`; everything else
    takes the per-source scalar replay.
    """
    tables = context.tables
    keys = tables.pack(codes)
    enabled_matrix = tables.enabled_flat[keys]
    counts_matrix = tables.action_count[keys]
    bases_matrix = tables.action_base[keys]

    enabled_counts = enabled_matrix.sum(axis=1, dtype=np.int64)

    if (
        context.int64_safe
        and type(context.distribution) in _POSITIONAL_DISTRIBUTIONS
        and np.array_equal(counts_matrix == 1, enabled_matrix)
    ):
        return _array_edges(
            context, codes, ranks, enabled_matrix, bases_matrix,
            enabled_counts,
        )

    # ------------------------------------------------------------------
    # scalar replay layer: any distribution, any action/outcome structure
    # ------------------------------------------------------------------
    distribution = context.distribution
    counts = counts_matrix.tolist()
    bases = bases_matrix.tolist()
    rows = codes.tolist()
    per_row = enabled_counts.tolist()
    flat_enabled = np.nonzero(enabled_matrix)[1].tolist()
    outcome_codes = context.outcome_codes
    outcome_probs = context.outcome_probs
    weights = context.config_weights
    plan_cache = context.plan_cache

    edge_counts: list[int] = []
    edge_targets: list[int] = []
    edge_probs: list[float] = []

    cursor = 0
    for index, source_rank in enumerate(ranks):
        count = per_row[index]
        enabled = tuple(flat_enabled[cursor : cursor + count])
        cursor += count
        emitted = 0
        if not enabled:
            edge_targets.append(source_rank)
            edge_probs.append(1.0)
            edge_counts.append(1)
            continue
        row = rows[index]
        row_counts = counts[index]
        row_bases = bases[index]
        plan = plan_cache.get(enabled)
        if plan is None:
            plan = distribution.weighted_subsets(enabled)
            plan_cache[enabled] = plan
        for weight, subset in plan:
            if weight <= 0.0:
                continue
            if not subset:
                # Lazy daemons: the empty draw is an explicit self-loop.
                edge_targets.append(source_rank)
                edge_probs.append(weight)
                emitted += 1
                continue
            action_choices = 1
            for process in subset:
                action_choices *= row_counts[process]
            if len(subset) == 1:
                process = subset[0]
                base = row_bases[process]
                config_weight = weights[process]
                old = row[process] * config_weight
                for action_row in range(base, base + row_counts[process]):
                    for code, branch in zip(
                        outcome_codes[action_row],
                        outcome_probs[action_row],
                    ):
                        edge_targets.append(
                            source_rank + code * config_weight - old
                        )
                        edge_probs.append(
                            weight * branch / action_choices
                        )
                        emitted += 1
                continue
            choice_lists = [
                [
                    (
                        weights[process],
                        row[process] * weights[process],
                        outcome_codes[action_row],
                        outcome_probs[action_row],
                    )
                    for action_row in range(
                        row_bases[process],
                        row_bases[process] + row_counts[process],
                    )
                ]
                for process in subset
            ]
            for assignment in product(*choice_lists):
                outcome_spaces = [
                    tuple(zip(codes_, probs_))
                    for _, _, codes_, probs_ in assignment
                ]
                for combo in product(*outcome_spaces):
                    branch = 1.0
                    target = source_rank
                    for (config_weight, old, _, _), (code, p) in zip(
                        assignment, combo
                    ):
                        branch *= p
                        target += code * config_weight - old
                    edge_targets.append(target)
                    edge_probs.append(weight * branch / action_choices)
                    emitted += 1
        edge_counts.append(emitted)

    if context.int64_safe:
        targets: np.ndarray | list[int] = np.fromiter(
            edge_targets, dtype=np.int64, count=len(edge_targets)
        )
    else:
        targets = edge_targets
    return (
        np.fromiter(edge_counts, dtype=np.int64, count=len(edge_counts)),
        targets,
        np.fromiter(edge_probs, dtype=float, count=len(edge_probs)),
    )


def _array_edges(
    context: _ChainContext,
    codes: np.ndarray,
    ranks: Sequence[int],
    enabled_matrix: np.ndarray,
    bases_matrix: np.ndarray,
    enabled_counts: np.ndarray,
) -> _ChainChunk:
    """The array layer: one block with one action per enabled cell.

    Sources are grouped by enabled count ``k`` in order of first
    appearance, so plans — and any ``max_enabled`` error — come up in the
    replay's order.  Within a group every (source, subset) pair emits
    ``Π arity`` edges over its members, in source, then plan, then
    :func:`itertools.product` order (first member slowest), with the
    outcome digits read mixed-radix off the edge's index in its pair.  A
    target is the rank plus each mover's ``(new code − old code) ·
    weight``; a probability is ``weight · branch`` with ``branch``
    multiplied left to right from ``1.0`` — the replay's float expression,
    as ``action_choices`` is 1 here.  Non-members read a padding outcome
    slot whose delta is 0 and whose factor is exactly ``1.0``.
    """
    tables = context.tables
    width = tables.outcome_cum.shape[1]
    num_sources = enabled_matrix.shape[0]
    rank_array = np.fromiter(ranks, dtype=np.int64, count=num_sources)
    enabled_cols = np.nonzero(enabled_matrix)[1]
    col_starts = np.cumsum(enabled_counts) - enabled_counts
    counts_seen, first = np.unique(enabled_counts, return_index=True)

    parts = []
    edge_counts = np.empty(num_sources, dtype=np.int64)
    for k in counts_seen[np.argsort(first)].tolist():
        weights, members = context.subset_plan(k)
        sources = np.flatnonzero(enabled_counts == k)
        movers = enabled_cols[col_starts[sources, None] + np.arange(k)]
        action_rows = bases_matrix[sources[:, None], movers]
        arity = context.arity[action_rows]
        # Edges per (source, subset): the product of the members' arities.
        pair_edges = np.ones((sources.shape[0], weights.shape[0]), np.int64)
        for position in range(k):
            pair_edges *= np.where(
                members[:, position], arity[:, position, None], 1
            )
        edge_counts[sources] = pair_edges.sum(axis=1)
        pair_edges = pair_edges.reshape(-1)
        pair = np.repeat(np.arange(pair_edges.shape[0]), pair_edges)
        local = np.arange(pair.shape[0]) - (
            np.cumsum(pair_edges) - pair_edges
        )[pair]
        source, subset = np.divmod(pair, weights.shape[0])
        # Rank delta and branch factor per (position, source, outcome
        # slot), plus the padding slot for "this position does not move",
        # flattened per position so one edge reads slot
        # ``row + digit`` of its position's table.
        old = codes[sources[:, None], movers].astype(np.int64).T
        delta = np.zeros((k, sources.shape[0], width + 1), dtype=np.int64)
        delta[:, :, :width] = (
            tables.outcome_code[action_rows.T].astype(np.int64)
            - old[..., None]
        ) * context.weights_row[movers.T][..., None]
        factor = np.ones((k, sources.shape[0], width + 1))
        factor[:, :, :width] = tables.outcome_prob[action_rows.T]
        row = source * (width + 1)
        # Mixed-radix digits, first member slowest: ``remaining`` is the
        # product of the radices after the current position.
        remaining = pair_edges[pair]
        target = rank_array[sources][source]
        branch = np.ones(pair.shape[0])
        for position in range(k):
            member = members[:, position][subset]
            remaining //= np.where(member, arity[:, position][source], 1)
            digit, local = np.divmod(local, remaining)
            slot = row + np.where(member, digit, width)
            target += delta[position].reshape(-1)[slot]
            branch *= factor[position].reshape(-1)[slot]
        parts.append((sources, target, weights[subset] * branch))

    # Scatter each group's source-major edges into block order.
    edge_starts = np.cumsum(edge_counts) - edge_counts
    targets = np.empty(int(edge_counts.sum()), dtype=np.int64)
    probs = np.empty(targets.shape[0], dtype=float)
    for sources, target, prob in parts:
        group_counts = edge_counts[sources]
        slots = np.arange(target.shape[0]) + np.repeat(
            edge_starts[sources] - (np.cumsum(group_counts) - group_counts),
            group_counts,
        )
        targets[slots] = target
        probs[slots] = prob
    return edge_counts, targets, probs


def _csr_from_wire(
    num_rows: int,
    edge_counts: np.ndarray,
    targets: np.ndarray,
    probs: np.ndarray,
    num_cols: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate flat (row-grouped) wire edges into CSR arrays.

    Duplicate targets within a row are summed **in emission order**
    (stable sort + sequential segment reduction), reproducing the scalar
    oracle's dict-accumulation order bit-for-bit.

    For a square chain matrix ``num_rows == num_cols`` (the default);
    the MDP builder (:mod:`repro.markov.mdp`) reuses this with rows =
    *actions* and columns = states, so ``num_cols`` is independent.
    """
    if num_cols is None:
        num_cols = num_rows
    if targets.size == 0:
        return (
            np.zeros(0, dtype=float),
            np.zeros(0, dtype=np.int64),
            np.zeros(num_rows + 1, dtype=np.int64),
        )
    row_of_edge = np.repeat(
        np.arange(num_rows, dtype=np.int64), edge_counts
    )
    keys = row_of_edge * np.int64(num_cols) + targets
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    boundaries = np.diff(keys_sorted) != 0
    group_starts = np.concatenate(([0], np.flatnonzero(boundaries) + 1))
    if group_starts.size == keys_sorted.size:
        # No duplicate (row, target) pairs — nothing to accumulate.
        data = probs[order]
    else:
        # ``np.add.at`` applies strictly sequentially in index order, so
        # duplicates sum left-to-right exactly as the oracle's dict
        # accumulation does (reduceat's pairwise summation would differ
        # in the last ulp).
        group_of_edge = np.zeros(keys_sorted.size, dtype=np.int64)
        group_of_edge[1:] = np.cumsum(boundaries)
        data = np.zeros(group_starts.size, dtype=float)
        np.add.at(data, group_of_edge, probs[order])
    unique_keys = keys_sorted[group_starts]
    indices = unique_keys % num_cols
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(
            unique_keys // num_cols, minlength=num_rows
        ),
        out=indptr[1:],
    )
    return data, indices, indptr


def _build_full(system: System, context: _ChainContext) -> MarkovChain:
    """Full-space mode: state ids are enumeration ranks."""
    num_states = system.num_configurations()
    counts_parts: list[np.ndarray] = []
    target_parts: list[np.ndarray] = []
    prob_parts: list[np.ndarray] = []
    codes_parts: list[np.ndarray] = []
    for start in range(0, num_states, _CHAIN_BLOCK):
        stop = min(start + _CHAIN_BLOCK, num_states)
        codes = context.codes_of_ranks(range(start, stop))
        counts, targets, probs = _expand_chain_block(
            context, codes, range(start, stop)
        )
        counts_parts.append(counts)
        target_parts.append(np.asarray(targets, dtype=np.int64))
        prob_parts.append(probs)
        codes_parts.append(codes)

    data, indices, indptr = _csr_from_wire(
        num_states,
        np.concatenate(counts_parts) if counts_parts else np.zeros(0, np.int64),
        np.concatenate(target_parts) if target_parts else np.zeros(0, np.int64),
        np.concatenate(prob_parts) if prob_parts else np.zeros(0),
    )
    states = list(system.all_configurations())
    return MarkovChain.from_arrays(
        system,
        states,
        data,
        indices,
        indptr,
        context.distribution.name,
        codes=np.concatenate(codes_parts) if codes_parts else None,
        tables=context.tables,
    )


def _build_frontier(
    system: System,
    context: _ChainContext,
    seeds: list[Configuration],
    max_states: int,
) -> MarkovChain:
    """Reachable-fragment mode: level-synchronous BFS in rank space.

    Targets are interned in (source order, edge order) — the exact order
    the scalar FIFO builder discovers them — so state ids come out
    identical to the oracle's.
    """
    encoding = context.tables.encoding

    rank_to_id: dict[int, int] = {}
    rank_of_id: list[int] = []

    def intern(rank: int) -> int:
        state_id = rank_to_id.get(rank)
        if state_id is not None:
            return state_id
        if len(rank_of_id) >= max_states:
            raise MarkovError(f"chain exceeded {max_states} states")
        state_id = len(rank_of_id)
        rank_to_id[rank] = state_id
        rank_of_id.append(rank)
        return state_id

    for seed in seeds:
        intern(context.rank_of(encoding.encode(seed)))

    counts_parts: list[np.ndarray] = []
    id_parts: list[np.ndarray] = []
    prob_parts: list[np.ndarray] = []

    frontier_start = 0
    while frontier_start < len(rank_of_id):
        frontier = rank_of_id[frontier_start:]
        frontier_start = len(rank_of_id)
        for start in range(0, len(frontier), _CHAIN_BLOCK):
            block = frontier[start : start + _CHAIN_BLOCK]
            counts, targets, probs = _expand_chain_block(
                context, context.codes_of_ranks(block), block
            )
            target_list = (
                targets.tolist()
                if isinstance(targets, np.ndarray)
                else targets
            )
            ids = [intern(rank) for rank in target_list]
            counts_parts.append(counts)
            id_parts.append(
                np.fromiter(ids, dtype=np.int64, count=len(ids))
            )
            prob_parts.append(probs)

    num_states = len(rank_of_id)
    data, indices, indptr = _csr_from_wire(
        num_states,
        np.concatenate(counts_parts) if counts_parts else np.zeros(0, np.int64),
        np.concatenate(id_parts) if id_parts else np.zeros(0, np.int64),
        np.concatenate(prob_parts) if prob_parts else np.zeros(0),
    )
    states = [
        context.configuration_of_rank(rank) for rank in rank_of_id
    ]
    codes = context.codes_of_ranks(rank_of_id) if rank_of_id else None
    return MarkovChain.from_arrays(
        system,
        states,
        data,
        indices,
        indptr,
        context.distribution.name,
        codes=codes,
        tables=context.tables,
    )
