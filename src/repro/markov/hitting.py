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
closure is a sparse-transpose BFS over ``(indices, indptr)``, and the
transient-submatrix solves slice the cached scipy matrix with fancy
indexing (:func:`_transient_solve`) — no per-state Python dict walking.

Every transient solve in the package — these three and the parametric
sweeps of :mod:`repro.markov.parametric` — goes through one policy,
:class:`TransientFactor`: the factorization is chosen from the block's
structure alone (:func:`dense_structure`), and every solve checks its
normwise residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import splu

from repro.errors import MarkovError
from repro.markov.chain import MarkovChain, concat_ranges

__all__ = [
    "absorption_probabilities",
    "expected_hitting_times",
    "HittingSummary",
    "hitting_summary",
    "TransientFactor",
    "dense_structure",
    "ABSORPTION_TOLERANCE",
    "RESIDUAL_TOLERANCE",
]

#: States with absorption probability below ``1 - ABSORPTION_TOLERANCE``
#: are treated as having infinite expected hitting time.
ABSORPTION_TOLERANCE = 1e-8

#: Transient blocks of at most this many states factor densely.
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


class TransientFactor:
    """One LU factorization of ``A = I − Q``, residual-checked per solve.

    ``matrix`` is a dense array (factored by LAPACK) or a scipy CSC
    matrix (factored by SuperLU, ``NATURAL`` order); callers pick the
    form with :func:`dense_structure`.  :meth:`solve` raises
    :class:`MarkovError` when the normwise residual exceeds
    :data:`RESIDUAL_TOLERANCE`.
    """

    def __init__(self, matrix) -> None:
        self.matrix = matrix
        self.dense = isinstance(matrix, np.ndarray)
        if self.dense:
            self._lu = lu_factor(matrix)
        else:
            self._lu = splu(matrix, permc_spec="NATURAL")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``A⁻¹ rhs``, after checking ``‖rhs − A x‖``."""
        x = lu_solve(self._lu, rhs) if self.dense else self._lu.solve(rhs)
        error = float(np.abs(rhs - self.matrix @ x).max())
        rhs_norm = float(np.abs(rhs).max())
        # The normwise denominator is at least ‖rhs‖∞, so a solve within
        # tolerance of that passes without computing ‖A‖∞.
        if not error <= RESIDUAL_TOLERANCE * rhs_norm:
            matrix_norm = float(abs(self.matrix).sum(axis=1).max())
            residual = error / (matrix_norm * np.abs(x).max() + rhs_norm)
            if not residual <= RESIDUAL_TOLERANCE:
                raise MarkovError(
                    f"transient solve residual {residual:.3g} exceeds"
                    f" {RESIDUAL_TOLERANCE:g}"
                    f" ({'dense' if self.dense else 'sparse'} LU,"
                    f" {len(rhs)} states)"
                )
        return x


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
    block — every probability-1 chain — factor once and back-substitute
    twice.
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
    m = len(solve_ids)
    q = chain.sparse_matrix()[solve_ids][:, solve_ids]
    if dense_structure(m, q.nnz):
        factor = TransientFactor(np.eye(m) - q.toarray())
    else:
        factor = TransientFactor(
            (sparse.identity(m, format="csc") - q.tocsc()).tocsc()
        )
    chain._transient_lu = (key, factor)
    return factor


def _backward_closure(
    chain: MarkovChain, target: np.ndarray
) -> np.ndarray:
    """States that can reach the target in the support digraph.

    A multi-source BFS over the *transposed* support — predecessors of
    each frontier are one fancy-indexed gather into the transpose's CSR
    arrays per level.
    """
    transpose = chain.sparse_matrix().T.tocsr()
    indptr, indices = transpose.indptr, transpose.indices
    reached = np.array(target, dtype=bool)
    frontier = np.flatnonzero(target)
    while frontier.size:
        predecessors = indices[
            concat_ranges(indptr[frontier], indptr[frontier + 1])
        ]
        fresh = np.unique(predecessors[~reached[predecessors]])
        reached[fresh] = True
        frontier = fresh
    return reached


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

    can_reach = _backward_closure(chain, target)
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
