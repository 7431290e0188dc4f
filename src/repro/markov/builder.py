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

* ``"compiled"`` — one probability-carrying expander over the
  :class:`~repro.core.encoding.CompiledKernelTables`.  Sources are
  mixed-radix configuration ranks over the
  :class:`~repro.core.encoding.StateEncoding`; each block of rows is
  expanded (:func:`_expand_block`) into a *symbolic wire chunk*: edge
  count per source, then per edge its daemon choice (the subset's
  position in the plan), target rank, subset weight, ``action_choices``
  divisor and outcome atoms (slots of the raveled outcome-probability
  table, plus one padding slot of exactly ``1.0``).  The plan — one of
  the four built-in distribution types (central-randomized,
  synchronous, distributed-randomized, Bernoulli) or an MDP's or the
  explorer's scheduler relation — depends only on positions in the
  sorted enabled tuple, so every block is one whole-block array
  expression (:func:`_array_edges`) driven by one subset plan per
  enabled count: each (source, subset) pair expands into its movers'
  action assignments, and each assignment into its outcome
  combinations.  Four views read the chunks through :func:`_expand`:
  this module evaluates each block right away as
  ``weight · Π atoms / action_choices`` and deduplicates the edges into
  the CSR arrays :class:`~repro.markov.chain.MarkovChain` stores
  natively; :class:`~repro.markov.parametric.ParametricChain` keeps the
  atoms; :func:`~repro.markov.mdp.build_mdp` groups edges into actions
  by (source, choice); and
  :meth:`~repro.stabilization.statespace.StateSpace.explore` takes a
  scheduler relation as a plan at weight one and keeps only the
  support, each edge labelled with its activation mask.
* ``"scalar"`` — a dict walk over the reference :class:`System`: the
  bit-for-bit oracle the compiled path is tested against
  (``tests/test_chain_compiled.py``).
* ``"auto"`` (default) — compiled whenever it can run, scalar otherwise:
  the scalar walk takes distributions that are not one of the built-in
  types (a subclass may redefine ``weighted_subsets``), class tables
  over the compilation budget and rank spaces beyond int64; mirroring
  the Monte-Carlo engine knob
  (:func:`~repro.markov.montecarlo.resolve_engine`).

Every engine builds the identical chain: same states in the same order,
same transition support, bit-identical row probabilities (the array
layer emits each row's edges in the oracle's order and multiplies each
edge's factors in the oracle's order, and
``tests/test_chain_compiled.py`` pins both against each other with
``np.array_equal``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.configuration import Configuration
from repro.core.encoding import expansion_context, ranks_fit_int64, tables_for
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
from repro.schedulers.relations import SchedulerRelation

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
    engine: str = "auto",
) -> MarkovChain:
    """Build the Markov chain of ``system`` under ``distribution``.

    ``initial=None`` takes the full configuration space as the state set
    (the paper's ``I = C``); otherwise the chain is the forward closure of
    the given configurations.

    ``engine`` selects the execution path (see the module docstring):
    ``"compiled"`` demands the vectorized wire-format builder (raising
    :class:`MarkovError` when the system cannot take it), ``"scalar"``
    forces the dict-walk oracle over :class:`System` — exactly the
    pre-compiled-tier behavior — and ``"auto"`` picks compiled when
    possible.
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
            system, distribution, require=engine == "compiled"
        )
        if context is not None:
            return _build_compiled(
                system,
                context,
                None if initial is None else list(initial),
                max_states,
            )

    return _build_scalar(system, distribution, initial, max_states)


# ----------------------------------------------------------------------
# scalar oracle path (pre-compiled-tier behavior, unchanged)
# ----------------------------------------------------------------------
def _build_scalar(
    system: System,
    distribution: SchedulerDistribution,
    initial: Iterable[Configuration] | None,
    max_states: int,
) -> MarkovChain:
    if initial is None:
        seeds: Iterable[Configuration] = system.all_configurations()
    else:
        seeds = list(initial)
        for seed in seeds:
            system.check_configuration(seed)

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

    rows: list[dict[int, float]] = []
    processed = 0
    while queue:
        state_id = queue.popleft()
        assert state_id == processed
        processed += 1
        rows.append(_row(system, distribution, states[state_id], intern))

    return MarkovChain(system, states, rows, distribution.name)


def _row(
    system: System,
    distribution: SchedulerDistribution,
    configuration: Configuration,
    intern,
) -> dict[int, float]:
    # Resolve guards/outcomes once per process; every weighted subset
    # composes from the same per-process solo resolutions (pre-step
    # reads).
    resolved = system.resolved_actions(configuration)
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
class _PlanTable(NamedTuple):
    """The positional plans of one set of enabled counts, stacked.

    Row ``first_row[k] + j`` is subset ``j`` of the plan over ``k``
    positions, its membership padded with ``False`` to the largest count.
    """

    #: ``(R,)`` subset weights.
    weights: np.ndarray
    #: ``(kmax, R)`` membership, position-major.
    members: np.ndarray
    #: ``(kmax + 1,)`` first row of each count's plan.
    first_row: np.ndarray
    #: ``(kmax + 1,)`` subsets in each count's plan (0 when absent).
    num_subsets: np.ndarray


class _PlanCache:
    """Positional plans of one plan object, as arrays.

    Per enabled count (:meth:`_ChainContext.subset_plan`) and stacked
    per set of enabled counts (:meth:`_ChainContext.plan_table`).  One
    builder run owns one; runs under equal positional plans may share
    one, as the state-space explorer does per relation.
    """

    def __init__(self) -> None:
        # Terminal sources (k = 0): one self-loop of probability 1.
        self.by_count: dict[int, tuple[np.ndarray, np.ndarray]] = {
            0: (np.ones(1), np.zeros((1, 0), dtype=bool))
        }
        self.tables: dict[tuple[int, ...], _PlanTable] = {}


class _RelationPlan:
    """A scheduler relation as a plan: every allowed subset at weight one.

    The plan of the state-space explorer and of an MDP's daemon family.
    """

    def __init__(self, relation: SchedulerRelation) -> None:
        self.relation = relation

    def weighted_subsets(
        self, enabled: Sequence[int]
    ) -> list[tuple[float, tuple[int, ...]]]:
        return [(1.0, subset) for subset in self.relation.subsets(enabled)]


class _ChainContext:
    """Expansion lookups plus the probability structure of one builder run.

    Reads every :class:`~repro.core.encoding.ExpansionContext` lookup
    (ranks, arity, first outcomes, ...) from the tables' shared memo
    (:func:`~repro.core.encoding.expansion_context`) and adds the plan
    — an object whose ``weighted_subsets(enabled)`` lists the daemon
    choices of a sorted enabled tuple with their weights: a scheduler
    distribution for a chain, a daemon family at weight one for an MDP,
    a scheduler relation at weight one for the state-space explorer.
    The plan must be positional — depend only on positions in the
    sorted enabled tuple, as the exact built-in distribution and
    relation types do — and the tables' rank space must fit int64:
    callers check both before building a context, and take the dict
    walk otherwise.  The plan is enumerated once per enabled count
    (:meth:`subset_plan`, kept in a :class:`_PlanCache`).
    ``probabilities=False`` tells the array layer that no view reads
    edge probabilities, so it skips subset weights, divisors and atoms.

    Wire atoms index :attr:`atom_values`: the raveled outcome
    probability table plus one padding slot, :attr:`pad_atom`, of
    exactly ``1.0`` for positions that do not move.
    """

    def __init__(
        self,
        tables,
        distribution: SchedulerDistribution,
        probabilities: bool = True,
        plans: _PlanCache | None = None,
    ) -> None:
        self.expansion = expansion_context(tables)
        self.tables = tables
        self.distribution = distribution
        self.probabilities = probabilities
        self.plans = _PlanCache() if plans is None else plans
        self.pad_atom = tables.outcome_prob.size
        self.atom_values = np.append(tables.outcome_prob.ravel(), 1.0)

    def __getattr__(self, name: str):
        # Only called for names not set here: the expansion lookups.
        return getattr(self.expansion, name)

    def subset_plan(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The plan over positions ``range(k)``, as arrays.

        Returns the weights ``(S,)`` and the membership matrix ``(S, k)``
        of the plan's subsets in enumeration order, weights ≤ 0 dropped.
        For a positional plan this is the plan of every sorted enabled
        tuple of length ``k``, with position ``i`` standing for its
        ``i``-th process.  Enumerating raises the plan's own
        ``max_enabled`` :class:`SchedulerError`, as the dict walk
        would.
        """
        plan = self.plans.by_count.get(k)
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
            self.plans.by_count[k] = plan
        return plan

    def plan_table(self, enabled_counts: np.ndarray) -> _PlanTable:
        """The stacked plans of a block's enabled counts.

        Counts are enumerated in order of first appearance, so any
        ``max_enabled`` error comes up in the dict walk's order.
        """
        key = tuple(np.flatnonzero(np.bincount(enabled_counts)).tolist())
        table = self.plans.tables.get(key)
        if table is None:
            counts_seen, first = np.unique(enabled_counts, return_index=True)
            for k in counts_seen[np.argsort(first)].tolist():
                self.subset_plan(k)
            kmax = key[-1]
            first_row = np.zeros(kmax + 1, dtype=np.int64)
            num_subsets = np.zeros(kmax + 1, dtype=np.int64)
            weights = []
            members = []
            rows = 0
            for k in key:
                plan_weights, plan_members = self.plans.by_count[k]
                first_row[k] = rows
                num_subsets[k] = plan_weights.shape[0]
                rows += plan_weights.shape[0]
                weights.append(plan_weights)
                members.append(
                    np.pad(plan_members, ((0, 0), (0, kmax - k)))
                )
            table = _PlanTable(
                np.concatenate(weights),
                np.ascontiguousarray(np.concatenate(members).T),
                first_row,
                num_subsets,
            )
            self.plans.tables[key] = table
        return table


def _compile_chain_context(
    system: System,
    distribution: SchedulerDistribution,
    require: bool,
) -> _ChainContext | None:
    """Tables + context for the compiled path, or ``None`` → scalar.

    The compiled path needs an exact built-in distribution type (a
    subclass may redefine ``weighted_subsets``), class tables within the
    compilation budget and an int64 rank space.  ``require=True``
    (``engine="compiled"``) turns a fallback into a :class:`MarkovError`
    naming the reason instead.
    """
    cause = None
    if type(distribution) not in _POSITIONAL_DISTRIBUTIONS:
        reason = (
            f"{type(distribution).__name__} is not a built-in"
            " distribution type"
        )
    elif not ranks_fit_int64(system):
        reason = "configuration ranks exceed int64"
    else:
        try:
            tables = tables_for(system)
        except ModelError as error:
            reason, cause = str(error), error
        else:
            return _ChainContext(tables, distribution)
    if require:
        raise MarkovError(
            f"engine='compiled' unavailable: {reason}"
        ) from cause
    return None


class _WireChunk(NamedTuple):
    """One expanded block in the symbolic wire format.

    Edges are grouped by source in block order; within a source they
    follow the plan, then the movers' action assignments, then their
    outcome combinations — the enumeration of
    :func:`repro.core.system.compose_weighted_targets`.  The array layer
    leaves ``weight``, ``divisor`` and ``atoms`` at ``None`` for a
    context that reads no probabilities.
    """

    #: ``(B,)`` edges per source.
    counts: np.ndarray
    #: ``(E,)`` each edge's daemon choice: its subset's position in the
    #: source's plan (weights ≤ 0 skipped).
    choice: np.ndarray
    #: ``(E,)`` target ranks.
    targets: np.ndarray
    #: ``(E,)`` subset weights.
    weight: np.ndarray
    #: ``(E,)`` ``action_choices`` divisors, as floats.
    divisor: np.ndarray
    #: ``(E, k)`` outcome atoms, indices into the context's
    #: ``atom_values``.
    atoms: np.ndarray
    #: ``(B, N)`` enabledness of each source's processes.
    enabled: np.ndarray


def _edge_probs(
    weight: np.ndarray,
    divisor: np.ndarray,
    atoms: np.ndarray,
    atom_values: np.ndarray,
) -> np.ndarray:
    """``weight · Π atoms / divisor`` per edge, atoms multiplied left to
    right from ``1.0`` — the scalar oracle's float expression (padding
    atoms read exactly ``1.0``, which leaves every product unchanged)."""
    branch = np.ones(atoms.shape[0])
    for column in range(atoms.shape[1]):
        branch *= atom_values[atoms[:, column]]
    return weight * branch / divisor


def _expand_block(
    context: _ChainContext, codes: np.ndarray, ranks: Sequence[int]
) -> _WireChunk:
    """Expand one block of sources into the symbolic wire format.

    Reproduces the scalar ``_row`` per source exactly — same weighted
    subsets in the same order, same branch enumeration as
    :func:`repro.core.system.compose_weighted_targets` — but a successor
    is ``source rank + Σ (new code − old code) · weight`` instead of
    tuple surgery, enabledness and action rows are one gather for the
    whole block, and an edge's probability is left as its factors
    (subset weight, ``action_choices`` divisor, outcome atoms) for the
    caller's view to evaluate.  Edges are emitted pre-accumulation
    (duplicate targets within a row are summed later, in emission
    order, by :class:`_DedupPlan`).
    """
    tables = context.tables
    keys = tables.pack(codes)
    enabled_matrix = tables.enabled(keys)
    return _array_edges(
        context, codes, ranks, enabled_matrix, tables.action_count.take(keys),
        tables.action_base.take(keys),
        enabled_matrix.sum(axis=1, dtype=np.int64),
    )


def _enabled_cells(
    enabled_matrix: np.ndarray, enabled_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per enabled cell, row-major: its source, its process, and its
    position among the source's sorted enabled processes."""
    cell_source, process = np.nonzero(enabled_matrix)
    position = np.arange(process.shape[0]) - (
        np.cumsum(enabled_counts) - enabled_counts
    )[cell_source]
    return cell_source, process, position


def _count_groups(
    enabled_counts: np.ndarray,
) -> tuple[np.ndarray, list[tuple[int, slice]]]:
    """Sources sorted by enabled count, and each count's slice of them."""
    order = np.argsort(enabled_counts, kind="stable")
    stop = 0
    groups = []
    for k, size in enumerate(np.bincount(enabled_counts).tolist()):
        if size:
            groups.append((k, slice(stop, stop + size)))
            stop += size
    return order, groups


def _array_edges(
    context: _ChainContext,
    codes: np.ndarray,
    ranks: Sequence[int],
    enabled_matrix: np.ndarray,
    counts_matrix: np.ndarray,
    bases_matrix: np.ndarray,
    enabled_counts: np.ndarray,
) -> _WireChunk:
    """The array layer: one block of sources as whole-block arrays.

    Every source's plan comes from the block's :class:`_PlanTable`, with
    position ``i`` standing for the source's ``i``-th enabled process.
    Every (source, subset) pair expands into the ``Π action_count``
    action assignments of its members, and every assignment into the
    ``Π arity`` outcome combinations of its chosen action rows, both in
    :func:`itertools.product` order (first member slowest): digits read
    mixed-radix off the assignment's index in its pair and off the
    edge's index in its assignment.  A member's chosen row is its
    ``action_base`` plus its action digit.  A target is the rank plus
    each mover's ``(new code − old code) · weight``; position ``i``'s
    atom is its chosen row's outcome slot, or the padding atom when
    position ``i`` is not in the subset; the divisor is the pair's
    ``Π action_count``.  A block without a multi-action cell skips the
    assignment level: each pair is its own one assignment.  A context
    without :attr:`~_ChainContext.probabilities` gets ``None`` for the
    weights, divisors and atoms.
    """
    tables = context.tables
    width = tables.outcome_cum.shape[1]
    pad = context.pad_atom
    num_sources = enabled_matrix.shape[0]
    plan = context.plan_table(enabled_counts)
    kmax = plan.members.shape[0]
    rank_array = (
        np.arange(ranks.start, ranks.stop, dtype=np.int64)
        if isinstance(ranks, range)
        else np.fromiter(ranks, dtype=np.int64, count=num_sources)
    )

    cell_source, movers, position = _enabled_cells(
        enabled_matrix, enabled_counts
    )
    cell_rows = bases_matrix[cell_source, movers]
    cell_actions = counts_matrix[cell_source, movers]
    old = codes[cell_source, movers].astype(np.int64)
    multi_action = bool((cell_actions > 1).any())

    # The (source, subset) pairs, source-major in plan order.
    pair_counts = plan.num_subsets[enabled_counts]
    pair_starts = np.cumsum(pair_counts) - pair_counts
    num_pairs = int(pair_counts.sum())
    probabilities = context.probabilities

    if not multi_action:
        arity = context.arity[cell_rows]
    if not multi_action and (arity == 1).all():
        # One edge per pair.  Per enabled count, the targets are the
        # ranks plus the movers' solo deltas times the plan's membership.
        solo = np.zeros((num_sources, kmax), dtype=np.int64)
        solo[cell_source, position] = (
            context.first_outcome[cell_rows] - old
        ) * context.weights_row[movers]
        targets = np.empty(num_pairs, dtype=np.int64)
        choice = np.empty(num_pairs, dtype=np.int64)
        order, groups = _count_groups(enabled_counts)
        solo = solo[order]
        first_slot = pair_starts[order]
        sorted_ranks = rank_array[order]
        for k, group in groups:
            members = context.subset_plan(k)[1]
            subsets = np.arange(members.shape[0])
            slots = first_slot[group, None] + subsets
            targets[slots] = (
                sorted_ranks[group, None] + solo[group, :k] @ members.T
            )
            choice[slots] = subsets
        if not probabilities:
            return _WireChunk(
                pair_counts, choice, targets, None, None, None,
                enabled_matrix,
            )
        pair_source = np.repeat(np.arange(num_sources), pair_counts)
        pair_row = plan.first_row[enabled_counts][pair_source] + choice
        action_rows = np.zeros((kmax, num_sources), dtype=np.int64)
        action_rows[position, cell_source] = cell_rows * width
        # Position-major, so each position's atoms are one contiguous row.
        atoms = np.empty((kmax, targets.shape[0]), dtype=np.int64)
        for column in range(kmax):
            atoms[column] = np.where(
                plan.members[column][pair_row],
                action_rows[column][pair_source],
                pad,
            )
        return _WireChunk(
            pair_counts, choice, targets, plan.weights[pair_row],
            np.ones(num_pairs), atoms.T, enabled_matrix,
        )

    pair_source = np.repeat(np.arange(num_sources), pair_counts)
    pair_subset = np.arange(num_pairs) - pair_starts[pair_source]
    pair_row = plan.first_row[enabled_counts][pair_source] + pair_subset
    # Each (cell, action) owns one lookup row, ``source · actions +
    # action``; with one action per cell that is the cell's source.
    lookup = cell_source
    num_lookups = num_sources
    if multi_action:
        # Per position and pair, the action radix: the mover's action
        # count if it is a member, else 1.  A pair has the product of
        # its radices as assignments (and as its divisor).
        action_radix = np.ones((kmax, num_sources), dtype=np.int64)
        action_radix[position, cell_source] = cell_actions
        action_radix = np.where(
            plan.members[:, pair_row], action_radix[:, pair_source], 1
        )
        assignments = action_radix.prod(axis=0)
        max_actions = int(cell_actions.max())
        cell = np.repeat(np.arange(cell_actions.shape[0]), cell_actions)
        action = np.arange(cell.shape[0]) - (
            np.cumsum(cell_actions) - cell_actions
        )[cell]
        cell_source, movers, position, old = (
            part[cell] for part in (cell_source, movers, position, old)
        )
        cell_rows = cell_rows[cell] + action
        arity = context.arity[cell_rows]
        lookup = cell_source * max_actions + action
        num_lookups = num_sources * max_actions

    # Per position and lookup row, the rank delta and atom of each
    # outcome, plus a padding slot (delta 0, the padding atom) that a
    # position outside the subset reads: ``row + digit``, or
    # ``row + width``.
    delta = np.zeros((kmax, num_lookups, width + 1), dtype=np.int64)
    delta[position, lookup, :width] = (
        tables.outcome_code[cell_rows].astype(np.int64) - old[:, None]
    ) * context.weights_row[movers, None]
    if probabilities:
        atom_table = np.full((kmax, num_lookups, width + 1), pad)
        atom_table[position, lookup, :width] = (
            cell_rows[:, None] * width + np.arange(width)
        )
    cell_arity = np.ones((kmax, num_lookups), dtype=np.int64)
    cell_arity[position, lookup] = arity

    if multi_action:
        # The (pair, assignment) units, each member's lookup row read
        # off the unit's index in its pair, first member slowest.
        unit_bounds = np.concatenate(([0], np.cumsum(assignments)))
        unit_pair = np.repeat(np.arange(num_pairs), assignments)
        local = np.arange(unit_pair.shape[0]) - unit_bounds[unit_pair]
        unit_lookup = np.empty((kmax, unit_pair.shape[0]), dtype=np.int64)
        first_lookup = pair_source[unit_pair] * max_actions
        for column in reversed(range(kmax)):
            local, digit = np.divmod(local, action_radix[column][unit_pair])
            unit_lookup[column] = first_lookup + digit
        unit_source = pair_source[unit_pair]
        unit_subset = pair_subset[unit_pair]
        unit_row = pair_row[unit_pair]
        unit_starts = unit_bounds[pair_starts]
        unit_stops = unit_bounds[pair_starts + pair_counts]
        cell_arity = np.take_along_axis(cell_arity, unit_lookup, axis=1)
    else:
        unit_source, unit_subset, unit_row = pair_source, pair_subset, pair_row
        unit_starts, unit_stops = pair_starts, pair_starts + pair_counts
        cell_arity = cell_arity[:, unit_source]

    # Per position and unit, the outcome radix: the chosen row's arity
    # if the position is a member, else 1.  A unit emits the product of
    # its radices.
    radix = np.where(plan.members[:, unit_row], cell_arity, 1)
    unit_edges = radix.prod(axis=0)
    edge_bounds = np.concatenate(([0], np.cumsum(unit_edges)))
    edge_counts = edge_bounds[unit_stops] - edge_bounds[unit_starts]
    unit_of_edge = np.repeat(np.arange(unit_edges.shape[0]), unit_edges)
    local = np.arange(unit_of_edge.shape[0]) - edge_bounds[unit_of_edge]
    source = unit_source[unit_of_edge]
    edge_row = unit_row[unit_of_edge]
    # Each position's lookup row is its source's, unless the unit's
    # action assignment picks it (multi-action cells, below).
    row = source * (width + 1)
    targets = rank_array[source]
    if probabilities:
        atoms = np.empty((kmax, targets.shape[0]), dtype=np.int64)
    # Mixed-radix digits of the edge's index in its unit, first member
    # slowest, so they peel off from the last position.
    for column in reversed(range(kmax)):
        local, digit = np.divmod(local, radix[column][unit_of_edge])
        if multi_action:
            row = unit_lookup[column][unit_of_edge] * (width + 1)
        slot = row + np.where(plan.members[column][edge_row], digit, width)
        targets += delta[column].reshape(-1)[slot]
        if probabilities:
            atoms[column] = atom_table[column].reshape(-1)[slot]
    if not probabilities:
        return _WireChunk(
            edge_counts, unit_subset[unit_of_edge], targets, None, None,
            None, enabled_matrix,
        )
    divisor = (
        assignments[unit_pair][unit_of_edge].astype(float)
        if multi_action
        else np.ones(targets.shape[0])
    )
    return _WireChunk(
        edge_counts, unit_subset[unit_of_edge], targets,
        plan.weights[edge_row], divisor, atoms.T, enabled_matrix,
    )


class _DedupPlan:
    """How flat (row-grouped) wire edges accumulate into CSR slots.

    Duplicate targets within a row are summed **in emission order**
    (stable sort + sequential segment reduction), reproducing the scalar
    oracle's dict-accumulation order bit-for-bit.  The plan depends only
    on structure, so a parametric chain freezes it once and
    :meth:`accumulate` reruns per parameter point.

    For a square chain matrix ``num_rows == num_cols`` (the default);
    the MDP builder (:mod:`repro.markov.mdp`) uses rows = *actions* and
    columns = states.
    """

    def __init__(
        self,
        num_rows: int,
        edge_counts: np.ndarray,
        targets: np.ndarray,
        num_cols: int | None = None,
    ) -> None:
        if num_cols is None:
            num_cols = num_rows
        self.indptr = np.zeros(num_rows + 1, dtype=np.int64)
        #: Per sorted edge, its CSR slot; ``None`` when no two edges
        #: share a slot (nothing to accumulate).
        self.group_of_sorted: np.ndarray | None = None
        if targets.size == 0:
            self.order = np.zeros(0, dtype=np.int64)
            self.num_slots = 0
            self.indices = np.zeros(0, dtype=np.int64)
            return
        row_of_edge = np.repeat(
            np.arange(num_rows, dtype=np.int64), edge_counts
        )
        keys = row_of_edge * np.int64(num_cols) + targets
        self.order = np.argsort(keys, kind="stable")
        keys_sorted = keys[self.order]
        boundaries = np.diff(keys_sorted) != 0
        group_starts = np.concatenate(([0], np.flatnonzero(boundaries) + 1))
        self.num_slots = group_starts.size
        if group_starts.size != keys_sorted.size:
            self.group_of_sorted = np.zeros(keys_sorted.size, dtype=np.int64)
            self.group_of_sorted[1:] = np.cumsum(boundaries)
        unique_keys = keys_sorted[group_starts]
        self.indices = unique_keys % num_cols
        np.cumsum(
            np.bincount(unique_keys // num_cols, minlength=num_rows),
            out=self.indptr[1:],
        )

    def accumulate(self, probs: np.ndarray) -> np.ndarray:
        """The CSR ``data`` vector of per-edge ``probs``."""
        if self.group_of_sorted is None:
            return probs[self.order]
        # ``np.add.at`` applies strictly sequentially in index order, so
        # duplicates sum left-to-right exactly as the oracle's dict
        # accumulation does (reduceat's pairwise summation would differ
        # in the last ulp).
        data = np.zeros(self.num_slots, dtype=float)
        np.add.at(data, self.group_of_sorted, probs[self.order])
        return data


def _concat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _expand(
    system: System,
    context: _ChainContext,
    initial: list[Configuration] | None,
    max_states: int,
    view: Callable[[_WireChunk], object],
    overflow: Callable[[], Exception] | None = None,
) -> tuple[list[Configuration], np.ndarray | None, np.ndarray, np.ndarray, list]:
    """Expand a state set block by block and hand each chunk to ``view``.

    ``initial=None`` expands the full space, with enumeration ranks as
    state ids.  Otherwise a level-synchronous BFS in rank space takes the
    forward closure of ``initial``, interning targets in (source order,
    edge order) — the exact order the scalar FIFO builder discovers
    them — so state ids come out identical to the oracle's.  ``view``
    keeps what its caller needs of each chunk, so at most one block of
    symbolic edges is alive at a time.  Interning more than
    ``max_states`` states raises ``overflow()`` (default: the chain
    builder's :class:`MarkovError`).

    Returns the states, their code matrix (``None`` when empty), the
    edge count per state, the flat target ids and the kept views in
    block order.
    """
    counts_parts: list[np.ndarray] = []
    target_parts: list[np.ndarray] = []
    kept: list = []
    if initial is None:
        num_states = system.num_configurations()
        codes_parts: list[np.ndarray] = []
        for start in range(0, num_states, _CHAIN_BLOCK):
            block = range(start, min(start + _CHAIN_BLOCK, num_states))
            codes = context.codes_of_ranks(block)
            chunk = _expand_block(context, codes, block)
            counts_parts.append(chunk.counts)
            target_parts.append(chunk.targets)
            kept.append(view(chunk))
            codes_parts.append(codes)
        states = list(system.all_configurations())
        all_codes = np.concatenate(codes_parts) if codes_parts else None
        return (
            states, all_codes, _concat(counts_parts, np.int64),
            _concat(target_parts, np.int64), kept,
        )

    encoding = context.tables.encoding
    rank_to_id: dict[int, int] = {}
    rank_of_id: list[int] = []

    def intern(rank: int) -> int:
        state_id = rank_to_id.get(rank)
        if state_id is not None:
            return state_id
        if len(rank_of_id) >= max_states:
            if overflow is not None:
                raise overflow()
            raise MarkovError(f"chain exceeded {max_states} states")
        state_id = len(rank_of_id)
        rank_to_id[rank] = state_id
        rank_of_id.append(rank)
        return state_id

    for seed in initial:
        intern(context.rank_of(encoding.encode(seed)))

    frontier_start = 0
    while frontier_start < len(rank_of_id):
        frontier = rank_of_id[frontier_start:]
        frontier_start = len(rank_of_id)
        for start in range(0, len(frontier), _CHAIN_BLOCK):
            block = frontier[start : start + _CHAIN_BLOCK]
            chunk = _expand_block(
                context, context.codes_of_ranks(block), block
            )
            ids = [intern(rank) for rank in chunk.targets.tolist()]
            counts_parts.append(chunk.counts)
            target_parts.append(
                np.fromiter(ids, dtype=np.int64, count=len(ids))
            )
            kept.append(view(chunk))

    states = [context.configuration_of_rank(rank) for rank in rank_of_id]
    codes = context.codes_of_ranks(rank_of_id) if rank_of_id else None
    return (
        states, codes, _concat(counts_parts, np.int64),
        _concat(target_parts, np.int64), kept,
    )


def _build_compiled(
    system: System,
    context: _ChainContext,
    initial: list[Configuration] | None,
    max_states: int,
) -> MarkovChain:
    """The chain view: each chunk's probabilities evaluated right away."""
    atom_values = context.atom_values
    states, codes, counts, targets, probs = _expand(
        system, context, initial, max_states,
        lambda chunk: _edge_probs(
            chunk.weight, chunk.divisor, chunk.atoms, atom_values
        ),
    )
    plan = _DedupPlan(len(states), counts, targets)
    return MarkovChain.from_arrays(
        system,
        states,
        plan.accumulate(_concat(probs, float)),
        plan.indices,
        plan.indptr,
        context.distribution.name,
        codes=codes,
        tables=context.tables,
    )
