"""Parametric chains: build CSR structure once, re-instantiate per point.

A chain whose outcome probabilities are affine in declared coin
parameters (:mod:`repro.core.parametric`) has **parameter-independent
structure**: which configurations exist, which successors each one has,
and how duplicate wire edges accumulate into CSR slots are all decided
by guards and post-states, never by the numeric value of a coin.  Only
the CSR ``data`` vector changes with the parameter point.

:class:`ParametricChain` exploits that split.  It replays the compiled
chain builder's expansion (:mod:`repro.markov.builder`) **symbolically**
— every wire edge is recorded as ``(target, weight, action_choices,
outcome atoms)`` where an *atom* is one slot of the compiled outcome
table — and freezes the builder's stable-argsort dedup once.  Per
parameter point, instantiation is then:

1. evaluate the affine outcome table at the assignment
   (:meth:`~repro.core.encoding.CompiledKernelTables.evaluate_outcome_probs`);
2. per edge, multiply its atoms left-to-right and apply the oracle's
   probability expression ``weight · Π atoms / action_choices``;
3. scatter-accumulate into the frozen CSR slots exactly like
   :func:`repro.markov.builder._csr_from_wire`.

Because every arithmetic step mirrors the concrete builder's, a chain
instantiated at a concrete assignment is **bit-for-bit identical** —
``data``, ``indices``, ``indptr``, and downstream hitting times — to
``build_chain(engine="compiled")`` on a system constructed with those
coin values (``tests/test_parametric_chain.py`` enforces this on every
conformance-registry system).

For parameter sweeps, :meth:`ParametricChain.expected_times` bypasses
chain construction entirely: the transient block's sparsity pattern is
also parameter-independent, so the hitting solver picks its
factorization from that structure once
(:func:`~repro.markov.hitting.dense_structure`, the policy every
transient solve shares) and reuses the plan for every point.  Dense
blocks scatter into a preallocated ``I − Q``; sparse blocks compute a
reverse Cuthill–McKee ordering and the permuted CSC assembly plan once,
so per point only the numeric factorization runs.  Each point is one
residual-checked :class:`~repro.markov.hitting.TransientFactor`.
``benchmarks/bench_parametric_sweep.py`` measures the resulting speedup
over rebuilding the chain per point on a 64-point bias grid.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro.core.configuration import Configuration
from repro.core.kernel import TransitionKernel
from repro.core.parametric import CoinParameter
from repro.core.system import System
from repro.errors import MarkovError
from repro.markov.builder import (
    DEFAULT_MAX_STATES,
    _CHAIN_BLOCK,
    _ChainContext,
    _compile_chain_context,
)
from repro.markov.chain import MarkovChain, concat_ranges
from repro.markov.hitting import TransientFactor, dense_structure
from repro.schedulers.distributions import SchedulerDistribution

__all__ = ["ParametricChain", "build_parametric_chain"]


#: Wire format of one symbolically expanded block: per-source edge
#: counts, flat target ranks, flat subset weights, flat action-choice
#: divisors, and per-edge outcome-atom tuples (flat indices into the
#: raveled outcome-probability table; empty for self-loop edges whose
#: probability is the weight itself).
_SymbolicChunk = tuple[
    "list[int]", "list[int]", "list[float]", "list[float]", "list[tuple]"
]


def _expand_symbolic_block(
    context: _ChainContext, codes: np.ndarray, ranks: Sequence[int]
) -> _SymbolicChunk:
    """Symbolic twin of :func:`repro.markov.builder._expand_chain_block`.

    Emits the same edges in the same order with the same ``weight`` and
    ``action_choices`` factors, but keeps each edge's outcome-probability
    *atoms* (flat table slots) instead of multiplying them out — the
    builder's probability ``weight · Π atoms / action_choices`` is
    recovered per parameter point by :meth:`ParametricChain.edge_probs`.
    The builder's array layer needs no twin: it emits the replay's
    edges in the replay's order with the replay's floats (tested
    bit-for-bit in ``tests/test_chain_compiled.py``), so one symbolic
    path covers every block.

    Must stay in lockstep with the builder's scalar replay; the
    conformance-registry bit-equality suite (``tests/test_parametric_chain.py``)
    is the guard.
    """
    tables = context.tables
    keys = tables.pack(codes)
    counts_matrix = tables.action_count[keys]
    bases_matrix = tables.action_base[keys]
    enabled_matrix = tables.enabled_flat[keys]

    enabled_counts = enabled_matrix.sum(axis=1, dtype=np.int64)
    enabled_cols = np.nonzero(enabled_matrix)[1].astype(np.int64)

    distribution = context.distribution
    width_out = tables.outcome_cum.shape[1]

    counts = counts_matrix.tolist()
    bases = bases_matrix.tolist()
    rows = codes.tolist()
    per_row = enabled_counts.tolist()
    flat_enabled = enabled_cols.tolist()
    outcome_codes = context.outcome_codes
    weights = context.config_weights
    plan_cache = context.plan_cache

    edge_counts: list[int] = []
    edge_targets: list[int] = []
    edge_weights: list[float] = []
    edge_choices: list[float] = []
    edge_atoms: list[tuple] = []

    cursor = 0
    for index, source_rank in enumerate(ranks):
        count = per_row[index]
        enabled = tuple(flat_enabled[cursor : cursor + count])
        cursor += count
        emitted = 0
        if not enabled:
            edge_targets.append(source_rank)
            edge_weights.append(1.0)
            edge_choices.append(1.0)
            edge_atoms.append(())
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
                edge_targets.append(source_rank)
                edge_weights.append(weight)
                edge_choices.append(1.0)
                edge_atoms.append(())
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
                    atom_base = action_row * width_out
                    for slot, code in enumerate(outcome_codes[action_row]):
                        edge_targets.append(
                            source_rank + code * config_weight - old
                        )
                        edge_weights.append(weight)
                        edge_choices.append(float(action_choices))
                        edge_atoms.append((atom_base + slot,))
                        emitted += 1
                continue
            choice_lists = [
                [
                    (
                        weights[process],
                        row[process] * weights[process],
                        action_row,
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
                    tuple(
                        (code, action_row * width_out + slot)
                        for slot, code in enumerate(
                            outcome_codes[action_row]
                        )
                    )
                    for _, _, action_row in assignment
                ]
                for combo in product(*outcome_spaces):
                    target = source_rank
                    atoms = []
                    for (config_weight, old, _), (code, atom) in zip(
                        assignment, combo
                    ):
                        atoms.append(atom)
                        target += code * config_weight - old
                    edge_targets.append(target)
                    edge_weights.append(weight)
                    edge_choices.append(float(action_choices))
                    edge_atoms.append(tuple(atoms))
                    emitted += 1
        edge_counts.append(emitted)

    return edge_counts, edge_targets, edge_weights, edge_choices, edge_atoms


class _HittingStructure:
    """Per-target transient-solve plan, reused across the whole sweep.

    Everything here depends only on the chain's sparsity pattern and the
    target mask — never on a parameter point: the transient index set,
    the ``I − Q`` scatter plan, and (sparse path) the reverse
    Cuthill–McKee ordering plus the permuted CSC assembly, i.e. the
    symbolic half of the LU work.  :meth:`solve` then does only numeric
    work per point.
    """

    def __init__(
        self,
        indices: np.ndarray,
        indptr: np.ndarray,
        target: np.ndarray,
    ) -> None:
        n = target.shape[0]
        self.target = target
        # Backward closure over the structural support (edge probabilities
        # are strictly positive on the open parameter box, so structural
        # reachability equals probabilistic reachability at every point).
        support = sparse.csr_matrix(
            (np.ones(len(indices)), indices, indptr), shape=(n, n)
        )
        transpose = support.T.tocsr()
        t_indptr, t_indices = transpose.indptr, transpose.indices
        reached = np.array(target, dtype=bool)
        frontier = np.flatnonzero(target)
        while frontier.size:
            predecessors = t_indices[
                concat_ranges(t_indptr[frontier], t_indptr[frontier + 1])
            ]
            fresh = np.unique(predecessors[~reached[predecessors]])
            reached[fresh] = True
            frontier = fresh
        if not reached.all():
            raise MarkovError(
                f"{int((~reached).sum())} states cannot reach the target"
                " set; parametric hitting sweeps need absorption"
                " probability one everywhere"
            )

        transient_ids = np.flatnonzero(~target)
        self.transient_ids = transient_ids
        m = transient_ids.shape[0]
        self.num_transient = m
        if m == 0:
            return

        position = np.full(n, -1, dtype=np.int64)
        position[transient_ids] = np.arange(m, dtype=np.int64)
        row_of_entry = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(indptr)
        )
        inside = ~target[row_of_entry] & ~target[indices]
        #: CSR data slots that land in the transient Q block.
        self.entry_sel = np.flatnonzero(inside)
        q_rows = position[row_of_entry[self.entry_sel]]
        q_cols = position[indices[self.entry_sel]]

        self.dense = dense_structure(m, q_rows.shape[0])
        if self.dense:
            self.q_rows = q_rows
            self.q_cols = q_cols
            return

        # Sparse path: symmetric RCM on the |I − Q| pattern, computed
        # once; per point SuperLU factors the pre-permuted matrix in its
        # NATURAL order, skipping an ordering phase of its own.
        pattern = sparse.csr_matrix(
            (
                np.ones(q_rows.shape[0] + m),
                (
                    np.concatenate([q_rows, np.arange(m)]),
                    np.concatenate([q_cols, np.arange(m)]),
                ),
            ),
            shape=(m, m),
        )
        perm = np.asarray(
            reverse_cuthill_mckee(
                (pattern + pattern.T).tocsr(), symmetric_mode=True
            ),
            dtype=np.int64,
        )
        pos = np.empty(m, dtype=np.int64)
        pos[perm] = np.arange(m, dtype=np.int64)
        self._pos = pos
        # Assembly plan: stacked (Q entries, then unit diagonal) in
        # permuted coordinates, deduplicated into CSC order once.
        rows_p = np.concatenate([pos[q_rows], np.arange(m, dtype=np.int64)])
        cols_p = np.concatenate([pos[q_cols], np.arange(m, dtype=np.int64)])
        keys = cols_p * np.int64(m) + rows_p
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        boundaries = np.diff(keys_sorted) != 0
        group_starts = np.concatenate(([0], np.flatnonzero(boundaries) + 1))
        group_of_input = np.zeros(keys_sorted.shape[0], dtype=np.int64)
        group_of_input[1:] = np.cumsum(boundaries)
        unique_keys = keys_sorted[group_starts]
        self._assembly_order = order
        self._assembly_group = group_of_input
        self._csc_indices = (unique_keys % m).astype(np.int32)
        csc_indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(
            np.bincount(unique_keys // m, minlength=m), out=csc_indptr[1:]
        )
        self._csc_indptr = csc_indptr
        self._num_slots = group_starts.shape[0]

    def solve(self, data: np.ndarray) -> np.ndarray:
        """Expected hitting times for one instantiated ``data`` vector."""
        n = self.target.shape[0]
        times = np.zeros(n, dtype=float)
        m = self.num_transient
        if m == 0:
            return times
        q_data = data[self.entry_sel]
        ones = np.ones(m, dtype=float)
        if self.dense:
            a = np.zeros((m, m), dtype=float)
            a[self.q_rows, self.q_cols] = -q_data
            a[np.arange(m), np.arange(m)] += 1.0
            t = TransientFactor(a).solve(ones)
        else:
            values = np.concatenate([-q_data, ones])
            slot_data = np.zeros(self._num_slots, dtype=float)
            np.add.at(
                slot_data, self._assembly_group, values[self._assembly_order]
            )
            matrix = sparse.csc_matrix(
                (slot_data, self._csc_indices, self._csc_indptr),
                shape=(m, m),
            )
            t = TransientFactor(matrix).solve(ones)[self._pos]
        times[self.transient_ids] = np.maximum(t, 0.0)
        return times


class ParametricChain:
    """Structure-once, data-per-point view of a compiled chain family.

    Built like ``build_chain(engine="compiled")`` (raising
    :class:`MarkovError` under the same conditions the compiled engine
    is unavailable), but the expansion is symbolic: per-edge weights,
    action-choice divisors, and outcome-table atoms.  The CSR
    ``indices``/``indptr`` and the dedup scatter plan are frozen at
    construction; :meth:`data_vector` re-instantiates only the ``data``
    vector at a parameter assignment, and :meth:`instantiate` wraps it
    into a full :class:`~repro.markov.chain.MarkovChain`.
    """

    def __init__(
        self,
        system: System,
        distribution: SchedulerDistribution,
        initial: Iterable[Configuration] | None = None,
        max_states: int = DEFAULT_MAX_STATES,
        kernel: TransitionKernel | None = None,
    ) -> None:
        if initial is None:
            total = system.num_configurations()
            if total > max_states:
                raise MarkovError(
                    f"configuration space has {total} states, budget is"
                    f" {max_states}; pass an explicit initial set"
                )
        context = _compile_chain_context(
            system, distribution, kernel, use_kernel=True, require=True
        )
        self.system = system
        self.distribution = distribution
        self._tables = context.tables
        self.param_names: tuple[str, ...] = context.tables.param_names
        declared = tuple(
            getattr(system.algorithm, "coin_parameters", ()) or ()
        )
        by_name = {coin.name: coin for coin in declared}
        missing = [name for name in self.param_names if name not in by_name]
        if missing:
            raise MarkovError(
                f"compiled tables use coin parameters {missing} that"
                f" {system.algorithm.name} does not declare in"
                " .coin_parameters"
            )
        #: Declared coins for the table's parameters, table order.
        self.parameters: tuple[CoinParameter, ...] = tuple(
            by_name[name] for name in self.param_names
        )

        if initial is None:
            self._expand_full(context)
        else:
            self._expand_frontier(context, list(initial), max_states)
        self._freeze_structure()
        self._solvers: dict[bytes, _HittingStructure] = {}
        self._reference_chain: MarkovChain | None = None

    # ------------------------------------------------------------------
    # construction: symbolic expansion + frozen dedup plan
    # ------------------------------------------------------------------
    def _expand_full(self, context: _ChainContext) -> None:
        system = self.system
        num_states = system.num_configurations()
        counts: list[int] = []
        targets: list[int] = []
        weights: list[float] = []
        choices: list[float] = []
        atoms: list[tuple] = []
        codes_parts: list[np.ndarray] = []
        for start in range(0, num_states, _CHAIN_BLOCK):
            stop = min(start + _CHAIN_BLOCK, num_states)
            codes = context.codes_of_ranks(range(start, stop))
            chunk = _expand_symbolic_block(
                context, codes, range(start, stop)
            )
            counts.extend(chunk[0])
            targets.extend(chunk[1])
            weights.extend(chunk[2])
            choices.extend(chunk[3])
            atoms.extend(chunk[4])
            codes_parts.append(codes)
        self.num_states = num_states
        self.states = list(system.all_configurations())
        self._codes = (
            np.concatenate(codes_parts) if codes_parts else None
        )
        self._edge_counts = counts
        self._edge_targets = targets
        self._edge_weights = np.asarray(weights, dtype=float)
        self._edge_choices = np.asarray(choices, dtype=float)
        self._edge_atoms = atoms

    def _expand_frontier(
        self,
        context: _ChainContext,
        seeds: list[Configuration],
        max_states: int,
    ) -> None:
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

        counts: list[int] = []
        ids: list[int] = []
        weights: list[float] = []
        choices: list[float] = []
        atoms: list[tuple] = []

        frontier_start = 0
        while frontier_start < len(rank_of_id):
            frontier = rank_of_id[frontier_start:]
            frontier_start = len(rank_of_id)
            for start in range(0, len(frontier), _CHAIN_BLOCK):
                block = frontier[start : start + _CHAIN_BLOCK]
                chunk = _expand_symbolic_block(
                    context, context.codes_of_ranks(block), block
                )
                counts.extend(chunk[0])
                ids.extend(intern(rank) for rank in chunk[1])
                weights.extend(chunk[2])
                choices.extend(chunk[3])
                atoms.extend(chunk[4])

        self.num_states = len(rank_of_id)
        self.states = [
            context.configuration_of_rank(rank) for rank in rank_of_id
        ]
        self._codes = (
            context.codes_of_ranks(rank_of_id) if rank_of_id else None
        )
        self._edge_counts = counts
        self._edge_targets = ids
        self._edge_weights = np.asarray(weights, dtype=float)
        self._edge_choices = np.asarray(choices, dtype=float)
        self._edge_atoms = atoms

    def _freeze_structure(self) -> None:
        """Replay ``_csr_from_wire``'s dedup once, keeping the plan.

        Identical stable argsort and group boundaries; per point only
        the scatter-accumulation of probabilities reruns, so the
        resulting ``data`` matches the concrete builder's bit-for-bit
        (``np.add.at`` applies sequentially in sorted-emission order,
        exactly like the builder and the scalar oracle's dict walk).
        """
        num_rows = self.num_states
        edge_counts = np.fromiter(
            self._edge_counts, dtype=np.int64, count=len(self._edge_counts)
        )
        targets = np.fromiter(
            self._edge_targets, dtype=np.int64, count=len(self._edge_targets)
        )
        if targets.size == 0:
            self._order = np.zeros(0, dtype=np.int64)
            self._group_of_sorted = None
            self._num_slots = 0
            self.indices = np.zeros(0, dtype=np.int64)
            self.indptr = np.zeros(num_rows + 1, dtype=np.int64)
            self._atom_groups = []
            self._plain_edges = np.zeros(0, dtype=np.int64)
            return
        row_of_edge = np.repeat(
            np.arange(num_rows, dtype=np.int64), edge_counts
        )
        keys = row_of_edge * np.int64(num_rows) + targets
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        boundaries = np.diff(keys_sorted) != 0
        group_starts = np.concatenate(([0], np.flatnonzero(boundaries) + 1))
        if group_starts.size == keys_sorted.size:
            group_of_sorted = None
        else:
            group_of_sorted = np.zeros(keys_sorted.size, dtype=np.int64)
            group_of_sorted[1:] = np.cumsum(boundaries)
        unique_keys = keys_sorted[group_starts]
        self._order = order
        self._group_of_sorted = group_of_sorted
        self._num_slots = group_starts.size
        self.indices = unique_keys % num_rows
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(unique_keys // num_rows, minlength=num_rows),
            out=indptr[1:],
        )
        self.indptr = indptr

        # Group edges by atom count for vectorized per-point products.
        atom_counts = np.fromiter(
            (len(a) for a in self._edge_atoms),
            dtype=np.int64,
            count=len(self._edge_atoms),
        )
        self._plain_edges = np.flatnonzero(atom_counts == 0)
        self._atom_groups = []
        for k in sorted(set(atom_counts.tolist()) - {0}):
            edge_ids = np.flatnonzero(atom_counts == k)
            matrix = np.empty((edge_ids.shape[0], k), dtype=np.int64)
            for position, edge in enumerate(edge_ids.tolist()):
                matrix[position] = self._edge_atoms[edge]
            self._atom_groups.append((edge_ids, matrix))
        self.num_edges = int(atom_counts.shape[0])

    # ------------------------------------------------------------------
    # per-point instantiation
    # ------------------------------------------------------------------
    @property
    def default_assignment(self) -> dict[str, float]:
        """The construction-time coin values (the reference point)."""
        return {coin.name: coin.default for coin in self.parameters}

    def edge_probs(self, assignment: Mapping[str, float] | None) -> np.ndarray:
        """Pre-dedup edge probabilities at one assignment.

        ``None`` evaluates at the raw construction-time table
        (``outcome_prob`` itself); an explicit assignment evaluates the
        affine forms.  Either way each edge applies the oracle's exact
        expression: plain edges carry their weight verbatim, one-atom
        edges compute ``weight · atom / choices``, multi-atom edges fold
        their atoms left-to-right from ``1.0`` first.
        """
        tables = self._tables
        if assignment is None:
            atom_values = tables.outcome_prob.ravel()
        else:
            atom_values = tables.evaluate_outcome_probs(
                dict(assignment)
            ).ravel()
        probs = np.empty(self.num_edges, dtype=float)
        if self._plain_edges.size:
            probs[self._plain_edges] = self._edge_weights[self._plain_edges]
        for edge_ids, matrix in self._atom_groups:
            branch = atom_values[matrix[:, 0]]
            for column in range(1, matrix.shape[1]):
                branch = branch * atom_values[matrix[:, column]]
            probs[edge_ids] = (
                self._edge_weights[edge_ids] * branch
            ) / self._edge_choices[edge_ids]
        return probs

    def data_vector(
        self, assignment: Mapping[str, float] | None = None
    ) -> np.ndarray:
        """The CSR ``data`` vector at one assignment (frozen structure)."""
        probs = self.edge_probs(assignment)
        if self._group_of_sorted is None:
            return probs[self._order]
        data = np.zeros(self._num_slots, dtype=float)
        np.add.at(data, self._group_of_sorted, probs[self._order])
        return data

    def data_bounds(
        self, lows: Mapping[str, float], highs: Mapping[str, float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot probability intervals over a parameter box.

        Atoms are affine (exact interval endpoints by coefficient sign);
        products and dedup sums combine the non-negative intervals
        conservatively.  Used by the region-refinement optimizer
        (:mod:`repro.analysis.bias`) for certified bounds.
        """
        atom_lo, atom_hi = self._tables.outcome_prob_bounds(
            dict(lows), dict(highs)
        )
        atom_lo = np.maximum(atom_lo.ravel(), 0.0)
        atom_hi = np.maximum(atom_hi.ravel(), 0.0)
        lo = np.empty(self.num_edges, dtype=float)
        hi = np.empty(self.num_edges, dtype=float)
        if self._plain_edges.size:
            lo[self._plain_edges] = self._edge_weights[self._plain_edges]
            hi[self._plain_edges] = self._edge_weights[self._plain_edges]
        for edge_ids, matrix in self._atom_groups:
            branch_lo = atom_lo[matrix[:, 0]]
            branch_hi = atom_hi[matrix[:, 0]]
            for column in range(1, matrix.shape[1]):
                branch_lo = branch_lo * atom_lo[matrix[:, column]]
                branch_hi = branch_hi * atom_hi[matrix[:, column]]
            scale = self._edge_weights[edge_ids] / self._edge_choices[edge_ids]
            lo[edge_ids] = scale * branch_lo
            hi[edge_ids] = scale * branch_hi
        if self._group_of_sorted is None:
            return lo[self._order], hi[self._order]
        data_lo = np.zeros(self._num_slots, dtype=float)
        data_hi = np.zeros(self._num_slots, dtype=float)
        np.add.at(data_lo, self._group_of_sorted, lo[self._order])
        np.add.at(data_hi, self._group_of_sorted, hi[self._order])
        return data_lo, data_hi

    def instantiate(
        self, assignment: Mapping[str, float] | None = None
    ) -> MarkovChain:
        """A full :class:`MarkovChain` at one assignment.

        Bit-identical to ``build_chain(engine="compiled")`` of the
        concrete system constructed with the same coin values.
        """
        return MarkovChain.from_arrays(
            self.system,
            self.states,
            self.data_vector(assignment),
            self.indices,
            self.indptr,
            self.distribution.name,
            codes=self._codes,
            tables=self._tables,
        )

    # ------------------------------------------------------------------
    # target marking + cached-structure hitting sweeps
    # ------------------------------------------------------------------
    def mark(self, predicate) -> np.ndarray:
        """Boolean target mask (parameter-independent; see ``MarkovChain.mark``)."""
        if self._reference_chain is None:
            self._reference_chain = self.instantiate(None)
        return self._reference_chain.mark(predicate)

    def _solver(self, target: np.ndarray) -> _HittingStructure:
        target = np.asarray(target, dtype=bool)
        if target.shape != (self.num_states,):
            raise MarkovError(
                f"target mask has shape {target.shape},"
                f" expected ({self.num_states},)"
            )
        if not target.any():
            raise MarkovError("target set is empty")
        key = target.tobytes()
        solver = self._solvers.get(key)
        if solver is None:
            solver = _HittingStructure(self.indices, self.indptr, target)
            self._solvers[key] = solver
        return solver

    def expected_times(
        self,
        assignment: Mapping[str, float] | None,
        target: np.ndarray,
    ) -> np.ndarray:
        """Expected steps to the target per state, at one assignment.

        Requires absorption probability one everywhere (raises
        :class:`MarkovError` otherwise); reuses the per-target cached
        solve structure, so calling this across a sweep pays the
        symbolic work once.
        """
        return self._solver(target).solve(self.data_vector(assignment))

    def hitting_sweep(
        self,
        assignments: Sequence[Mapping[str, float]],
        target: np.ndarray,
        objective: str = "mean",
    ) -> list[float]:
        """Mean (or worst) expected hitting time per assignment."""
        if objective not in ("mean", "worst"):
            raise MarkovError(
                f"unknown objective {objective!r}; known: mean, worst"
            )
        solver = self._solver(target)
        transient = ~solver.target
        values: list[float] = []
        for assignment in assignments:
            times = solver.solve(self.data_vector(assignment))
            if not transient.any():
                values.append(0.0)
            elif objective == "mean":
                values.append(float(times[transient].mean()))
            else:
                values.append(float(times[transient].max()))
        return values


def build_parametric_chain(
    system: System,
    distribution: SchedulerDistribution,
    initial: Iterable[Configuration] | None = None,
    max_states: int = DEFAULT_MAX_STATES,
    kernel: TransitionKernel | None = None,
) -> ParametricChain:
    """Functional spelling of the :class:`ParametricChain` constructor."""
    return ParametricChain(
        system, distribution, initial=initial, max_states=max_states,
        kernel=kernel,
    )
