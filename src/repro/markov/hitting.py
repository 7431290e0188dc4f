"""Absorption probabilities and expected hitting times.

Implements the classic absorbing-chain analysis used to *measure*
Theorems 7-9 and the paper's future-work question (expected stabilization
time of transformed algorithms):

* :func:`absorption_probabilities` — probability of ever reaching the
  target set, per state.  Probabilistic self-stabilization (Definition 2)
  means this is 1 everywhere.
* :func:`expected_hitting_times` — mean number of steps to reach the
  target, per state (``inf`` where absorption is uncertain).
* :func:`hitting_summary` — the aggregate a paper table would report:
  worst-case and average expected time over all initial configurations.

All three consume the chain's CSR arrays directly — the backward
closure (:func:`backward_closure`) is a sparse-transpose BFS over
``(indices, indptr)``, and the transient-submatrix solves slice the
cached scipy matrix with fancy indexing (:func:`_transient_solve`) — no
per-state Python dict walking.  The BFS and the strongly connected
components (:func:`strong_components`) are the package's only ones:
the explored digraph's convergence checks and witnesses
(:mod:`repro.stabilization.convergence`) read them too.

Every transient solve in the package — these three and the parametric
sweeps of :mod:`repro.markov.parametric` — goes through one
structure-only :class:`TransientPlan`.  Stabilizing protocols converge
downhill (in Herman's ring the token count never grows), so the
transient chain splits into strongly connected levels whose edges lead
only to the same level or a lower one, and ``I − Q`` is
block-triangular.  The plan orders the strongly connected components
sinks first.  A component of more than :data:`DENSE_MAX_STATES` states
is a super-block of its own, and each run of smaller components between
them merges into one.  Each super-block's factorization is chosen from
its own structure (:func:`dense_structure`).  A :class:`TransientFactor`
factors the super-blocks at one value vector and solves by block
forward substitution; every solve checks the whole system's normwise
residual.  A transient block with one strongly connected level, or of
at most :data:`DENSE_MAX_STATES` states, is one super-block: one
factorization of the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from repro.errors import MarkovError
from repro.markov.chain import MarkovChain, concat_ranges

__all__ = [
    "absorption_probabilities",
    "expected_hitting_times",
    "HittingSummary",
    "hitting_summary",
    "backward_closure",
    "strong_components",
    "TransientPlan",
    "TransientFactor",
    "dense_structure",
    "ABSORPTION_TOLERANCE",
    "RESIDUAL_TOLERANCE",
]

#: States with absorption probability below ``1 - ABSORPTION_TOLERANCE``
#: are treated as having infinite expected hitting time.
ABSORPTION_TOLERANCE = 1e-8

#: Transient blocks of at most this many states factor densely; strongly
#: connected components of at most this many states merge into
#: super-blocks (:class:`TransientPlan`).
DENSE_MAX_STATES = 128

#: Larger blocks factor densely when ``nnz(Q) / m²`` exceeds this.
DENSE_MIN_DENSITY = 0.05

#: Largest normwise relative residual ``‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)``
#: a transient solve may return; measured residuals sit near 1e-15.
RESIDUAL_TOLERANCE = 1e-10


def dense_structure(m: int, nnz: int) -> bool:
    """Whether an ``m × m`` transient block with ``nnz`` entries in ``Q``
    factors densely (LAPACK LU) rather than sparsely (SuperLU).

    The choice depends on structure only.  Small or dense blocks go
    dense.  Everything else goes to SuperLU with the ``NATURAL`` column
    order: chain states are BFS or enumeration ordered, so ``I − Q`` is
    near banded already, and the fill-reducing orderings cost more than
    they save — on the 4072-state ring-6 blocks ``MMD_AT_PLUS_A`` takes
    about ten times longer with seven times the fill.
    """
    return m <= DENSE_MAX_STATES or nnz > DENSE_MIN_DENSITY * m * m


def _pattern(indices: np.ndarray, indptr: np.ndarray) -> sparse.csr_matrix:
    """The ``m × m`` support digraph of the CSR pattern ``(indices,
    indptr)`` as a scipy matrix (duplicate entries allowed)."""
    m = indptr.shape[0] - 1
    return sparse.csr_matrix(
        (np.ones(indices.shape[0], dtype=np.int8), indices, indptr),
        shape=(m, m),
    )


def backward_closure(
    indices: np.ndarray, indptr: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """BFS level of every state in the support digraph of the CSR
    pattern ``(indices, indptr)``: the length of its shortest path into
    the target, ``-1`` where no path exists.

    The states that can reach the target are ``level >= 0``.  A
    multi-source BFS over the *transposed* support — predecessors of
    each frontier are one fancy-indexed gather into the transpose's CSR
    arrays per level.  The transpose is one stable argsort of the
    targets plus a bincount, without a scipy round trip.
    """
    m = indptr.shape[0] - 1
    t_indices = np.repeat(np.arange(m), np.diff(indptr))[
        np.argsort(indices, kind="stable")
    ]
    t_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=m), out=t_indptr[1:])
    level = np.full(target.shape[0], -1, dtype=np.int64)
    frontier = np.flatnonzero(target)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        predecessors = t_indices[
            concat_ranges(t_indptr[frontier], t_indptr[frontier + 1])
        ]
        frontier = np.unique(predecessors[level[predecessors] < 0])
        depth += 1
    return level


def strong_components(
    indices: np.ndarray, indptr: np.ndarray
) -> tuple[int, np.ndarray]:
    """The strongly connected components of the CSR pattern ``(indices,
    indptr)``: their count and each state's component label (scipy's
    ``connected_components``)."""
    return connected_components(
        _pattern(indices, indptr), directed=True, connection="strong"
    )


def _super_blocks(
    indices: np.ndarray, indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """States in solve order and the super-block bounds into it.

    The strongly connected components of ``Q``'s pattern are ordered
    sinks first.  A component of more than :data:`DENSE_MAX_STATES`
    states is a super-block of its own; each run of consecutive smaller
    components merges into one super-block.  Inside a super-block the
    states stay in component order, so a merged run is block-triangular
    itself and its LU fills only inside components.

    scipy labels strong components so that every edge between two of
    them runs from a higher label to a lower one.  That order is not
    documented, so an O(nnz) check guards it; when it fails, or the
    block has at most :data:`DENSE_MAX_STATES` states, all states form
    one super-block in their own order.
    """
    m = indptr.shape[0] - 1
    single = (np.arange(m), np.array([0, m]))
    if m <= DENSE_MAX_STATES:
        return single
    count, labels = strong_components(indices, indptr)
    if count == 1 or not (labels[indices] <= labels[rows]).all():
        return single
    sizes = np.bincount(labels, minlength=count)
    large = sizes > DENSE_MAX_STATES
    starts = large.copy()
    starts[0] = True
    starts[1:] |= large[:-1]
    reach = np.cumsum(sizes)
    bounds = np.concatenate(([0], reach[np.flatnonzero(starts[1:])], [m]))
    return np.argsort(labels, kind="stable"), bounds


class _SuperBlock:
    """One diagonal block of the block-triangular ``I − Q``.

    ``ids`` are its states (solve-set positions, in solve order) and
    ``entries`` the ``Q`` entries of its rows.  ``inner`` selects those
    inside the block and ``outer`` those leading to earlier super-blocks,
    whose solutions feed its right-hand side.
    """

    def __init__(
        self,
        ids: np.ndarray,
        entries: np.ndarray,
        inside: np.ndarray,
        local: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> None:
        k = ids.shape[0]
        self.ids = ids
        self.inner = entries[inside[entries]]
        self.outer = entries[~inside[entries]]
        self.outer_rows = local[rows[self.outer]]
        self.outer_cols = cols[self.outer]
        inner_rows = local[rows[self.inner]]
        inner_cols = local[cols[self.inner]]
        self.dense = dense_structure(k, self.inner.shape[0])
        if self.dense:
            self.flat = inner_rows * k + inner_cols
            return
        # CSC assembly of I − Q_BB: the Q entries, then the unit
        # diagonal, summed into their (sorted, unique) slots.
        diagonal = np.arange(k)
        keys = np.concatenate([inner_cols, diagonal]) * k + np.concatenate(
            [inner_rows, diagonal]
        )
        unique_keys, self.slot = np.unique(keys, return_inverse=True)
        self.csc_indices = unique_keys % k
        self.csc_indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(unique_keys // k, minlength=k),
            out=self.csc_indptr[1:],
        )

    def factor(self, q: np.ndarray):
        """LU of ``I − Q_BB`` at the entry values ``q``."""
        k = self.ids.shape[0]
        if self.dense:
            a = np.zeros((k, k), dtype=float)
            a.ravel()[self.flat] = -q[self.inner]
            a.ravel()[:: k + 1] += 1.0
            return lu_factor(a)
        data = np.bincount(
            self.slot,
            weights=np.concatenate([-q[self.inner], np.ones(k)]),
            minlength=self.csc_indices.shape[0],
        )
        matrix = sparse.csc_matrix(
            (data, self.csc_indices, self.csc_indptr), shape=(k, k)
        )
        return splu(matrix, permc_spec="NATURAL")


class TransientPlan:
    """Structure-only solve plan for ``(I − Q) x = b`` on one transient
    block, built from ``Q``'s ``m × m`` CSR pattern ``(indices, indptr)``.

    The strongly connected components of the pattern, sinks first,
    merge into super-blocks (:func:`_super_blocks`); each keeps the
    factorization :func:`dense_structure` picks for its own size and
    fill.  Nothing here depends on the values of ``Q``: a
    :class:`TransientFactor` does the numeric work for one value vector.
    """

    def __init__(self, indices: np.ndarray, indptr: np.ndarray) -> None:
        m = indptr.shape[0] - 1
        self.num_states = m
        self.rows = np.repeat(np.arange(m), np.diff(indptr))
        self.cols = np.asarray(indices, dtype=np.int64)
        order, bounds = _super_blocks(self.cols, indptr, self.rows)
        # Super-block number and position inside it, per state; the Q
        # entries grouped by the super-block of their row.
        number = np.repeat(np.arange(bounds.shape[0] - 1), np.diff(bounds))
        block_of = np.empty(m, dtype=np.int64)
        block_of[order] = number
        local = np.empty(m, dtype=np.int64)
        local[order] = np.arange(m) - bounds[number]
        row_block = block_of[self.rows]
        entry_order = np.argsort(row_block, kind="stable")
        entry_bounds = np.searchsorted(
            row_block[entry_order], np.arange(bounds.shape[0])
        )
        inside = row_block == block_of[self.cols]
        self.blocks = [
            _SuperBlock(
                order[bounds[b] : bounds[b + 1]],
                entry_order[entry_bounds[b] : entry_bounds[b + 1]],
                inside,
                local,
                self.rows,
                self.cols,
            )
            for b in range(bounds.shape[0] - 1)
        ]


class TransientFactor:
    """LU factorizations of ``A = I − Q``, one per super-block of
    ``plan``, at the entry values ``q`` (aligned with its pattern).

    :meth:`solve` runs block forward substitution — each super-block's
    right-hand side is ``b_B + Q[B, earlier] · x[earlier]`` — then
    raises :class:`MarkovError` when the whole system's normwise
    residual exceeds :data:`RESIDUAL_TOLERANCE`.  ``dense`` says whether
    every super-block factored densely.
    """

    def __init__(self, plan: TransientPlan, q: np.ndarray) -> None:
        self.plan = plan
        self.q = q
        self.dense = all(block.dense for block in plan.blocks)
        self._lus = [block.factor(q) for block in plan.blocks]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``A⁻¹ rhs``, after checking ``‖rhs − A x‖``."""
        plan, q = self.plan, self.q
        x = np.empty(plan.num_states, dtype=float)
        for block, lu in zip(plan.blocks, self._lus):
            local_rhs = rhs[block.ids]
            if block.outer.size:
                local_rhs = local_rhs + np.bincount(
                    block.outer_rows,
                    weights=q[block.outer] * x[block.outer_cols],
                    minlength=block.ids.shape[0],
                )
            x[block.ids] = (
                lu_solve(lu, local_rhs) if block.dense else lu.solve(local_rhs)
            )
        self._check_residual(rhs, x)
        return x

    def _check_residual(self, rhs: np.ndarray, x: np.ndarray) -> None:
        plan, q = self.plan, self.q
        m = plan.num_states
        error = float(
            np.abs(
                rhs
                - x
                + np.bincount(plan.rows, weights=q * x[plan.cols], minlength=m)
            ).max()
        )
        rhs_norm = float(np.abs(rhs).max())
        # The normwise denominator is at least ‖rhs‖∞, so a solve within
        # tolerance of that passes without computing ‖A‖∞.
        if error <= RESIDUAL_TOLERANCE * rhs_norm:
            return
        matrix = sparse.identity(m, format="csr") - sparse.csr_matrix(
            (q, (plan.rows, plan.cols)), shape=(m, m)
        )
        matrix_norm = float(abs(matrix).sum(axis=1).max())
        residual = error / (matrix_norm * np.abs(x).max() + rhs_norm)
        if not residual <= RESIDUAL_TOLERANCE:
            kinds = " + ".join(
                sorted({"dense" if b.dense else "sparse" for b in plan.blocks})
            )
            raise MarkovError(
                f"transient solve residual {residual:.3g} exceeds"
                f" {RESIDUAL_TOLERANCE:g} ({kinds} LU, {m} states)"
            )


def _target_vector(chain: MarkovChain, target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=bool)
    if target.shape != (chain.num_states,):
        raise MarkovError(
            f"target mask has shape {target.shape},"
            f" expected ({chain.num_states},)"
        )
    if not target.any():
        raise MarkovError("target set is empty")
    return target


def _transient_solve(
    chain: MarkovChain, solve_ids: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve ``(I - Q) x = rhs`` on the transient block ``solve_ids``.

    ``Q`` is the ``solve_ids × solve_ids`` submatrix of the transition
    matrix, sliced from the cached CSR export — the one assembly both
    :func:`absorption_probabilities` and :func:`expected_hitting_times`
    share.  The factorization is cached on the chain keyed by the solve
    set: absorption and expected-time solves over the same transient
    block — every probability-1 chain — plan and factor once and
    back-substitute twice.
    """
    return _transient_factorization(chain, solve_ids).solve(rhs)


def _transient_factorization(
    chain: MarkovChain, solve_ids: np.ndarray
) -> TransientFactor:
    """Cached :class:`TransientFactor` of ``I - Q`` for one solve set."""
    key = solve_ids.tobytes()
    cached = chain._transient_lu
    if cached is not None and cached[0] == key:
        return cached[1]
    q = chain.sparse_matrix()[solve_ids][:, solve_ids]
    factor = TransientFactor(TransientPlan(q.indices, q.indptr), q.data)
    chain._transient_lu = (key, factor)
    return factor


def absorption_probabilities(
    chain: MarkovChain, target: np.ndarray
) -> np.ndarray:
    """P[ever reach target | start in state i] for every i.

    Solves ``(I - Q) h = b`` on the transient block, where ``Q`` is the
    transient-to-transient submatrix and ``b`` the one-step mass into the
    target.  States that cannot reach the target at all are exactly the
    zeros of the solution (we pre-filter them for numerical stability).
    """
    target = _target_vector(chain, target)
    n = chain.num_states
    result = np.zeros(n, dtype=float)
    result[target] = 1.0

    _, indices, indptr = chain.transition_arrays()
    can_reach = backward_closure(indices, indptr, target) >= 0
    transient = ~target & can_reach
    if not transient.any():
        return result

    transient_ids = np.flatnonzero(transient)
    b = np.asarray(
        chain.sparse_matrix()[transient_ids][:, np.flatnonzero(target)].sum(
            axis=1
        )
    ).ravel()
    h = _transient_solve(chain, transient_ids, b)
    result[transient_ids] = np.clip(h, 0.0, 1.0)
    return result


def expected_hitting_times(
    chain: MarkovChain,
    target: np.ndarray,
    absorption: np.ndarray | None = None,
) -> np.ndarray:
    """Expected steps to reach the target; ``inf`` where absorption < 1.

    Pass ``absorption`` (a vector previously returned by
    :func:`absorption_probabilities` for the same chain and target) to
    skip recomputing it — :func:`hitting_summary` and
    :func:`repro.stabilization.probabilistic.classify_probabilistic`
    compute absorption exactly once this way.
    """
    target = _target_vector(chain, target)
    if absorption is None:
        absorption = absorption_probabilities(chain, target)
    certain = absorption >= 1.0 - ABSORPTION_TOLERANCE

    n = chain.num_states
    times = np.full(n, np.inf, dtype=float)
    times[target] = 0.0

    solve_ids = np.flatnonzero(certain & ~target)
    if solve_ids.size == 0:
        return times
    ones = np.ones(len(solve_ids), dtype=float)
    t = _transient_solve(chain, solve_ids, ones)
    times[solve_ids] = np.maximum(t, 0.0)
    return times


@dataclass(frozen=True)
class HittingSummary:
    """Aggregate convergence report over all initial configurations."""

    num_states: int
    num_target: int
    min_absorption: float
    converges_with_probability_one: bool
    worst_expected_steps: float
    mean_expected_steps: float

    def row(self) -> dict[str, object]:
        """Dict form for tables."""
        return {
            "states": self.num_states,
            "target": self.num_target,
            "min_absorption": round(self.min_absorption, 10),
            "prob1": self.converges_with_probability_one,
            "worst_E[steps]": round(self.worst_expected_steps, 4),
            "mean_E[steps]": round(self.mean_expected_steps, 4),
        }


def hitting_summary(chain: MarkovChain, target: np.ndarray) -> HittingSummary:
    """Absorption + expected-time aggregate for one chain and target set."""
    target = _target_vector(chain, target)
    absorption = absorption_probabilities(chain, target)
    min_absorption = float(absorption.min())
    converges = bool(min_absorption >= 1.0 - ABSORPTION_TOLERANCE)
    if converges:
        times = expected_hitting_times(chain, target, absorption=absorption)
        transient = ~target
        if transient.any():
            worst = float(times[transient].max())
            mean = float(times[transient].mean())
        else:
            worst = 0.0
            mean = 0.0
    else:
        worst = float("inf")
        mean = float("inf")
    return HittingSummary(
        num_states=chain.num_states,
        num_target=int(target.sum()),
        min_absorption=min_absorption,
        converges_with_probability_one=converges,
        worst_expected_steps=worst,
        mean_expected_steps=mean,
    )
