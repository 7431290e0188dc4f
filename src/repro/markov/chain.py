"""Finite Markov chains over configuration spaces.

Under a *scheduler distribution* (Definition 6) plus the outcome
probabilities of probabilistic actions, a system becomes a finite Markov
chain over ``C``.  :class:`MarkovChain` stores the chain **CSR-native**:
one flat ``(data, indices, indptr)`` triple, columns sorted and unique
per row — the representation the hitting solvers
(:mod:`repro.markov.hitting`) slice directly and the scipy/numpy matrix
exports wrap without copying.  The legacy ``{target: probability}`` dict
view (``chain.rows``) is materialized lazily for callers that still walk
rows in Python.

Construction comes in two flavors matching the two chain builders:

* :meth:`MarkovChain.from_arrays` — the compiled builder hands over wire
  arrays directly (plus, optionally, the state-code matrix and compiled
  tables, which make :meth:`mark` with a vectorized predicate free);
* ``MarkovChain(system, states, rows, name)`` — the scalar oracle path,
  unchanged signature; the dict rows are converted to CSR once here.
"""

from __future__ import annotations

from typing import Callable, Sequence, TYPE_CHECKING

import numpy as np
from scipy import sparse

from repro.core.configuration import Configuration
from repro.core.system import System
from repro.errors import MarkovError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.encoding import CompiledKernelTables, StateEncoding
    from repro.markov.batch import BatchLegitimacy
    from repro.stabilization.specification import Specification

__all__ = ["MarkovChain", "ROW_SUM_TOLERANCE", "concat_ranges"]


def concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], stops[i])`` without a loop.

    The CSR gather idiom shared by the hitting solvers and the
    probabilistic classifier: ``indices[concat_ranges(indptr[ids],
    indptr[ids + 1])]`` is the multiset of successors of ``ids``.
    """
    lengths = stops - starts
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(starts, lengths) + np.arange(total) - offsets

#: Maximum allowed deviation of a row sum from one.
ROW_SUM_TOLERANCE = 1e-9

#: Chains at most this large keep their dense matrix cached; bigger ones
#: rebuild it on demand so the cache cannot dominate memory.
DENSE_CACHE_LIMIT = 2048


class MarkovChain:
    """A finite Markov chain whose states are system configurations."""

    def __init__(
        self,
        system: System,
        states: list[Configuration],
        rows: list[dict[int, float]],
        scheduler_name: str,
    ) -> None:
        if len(states) != len(rows):
            raise MarkovError("states and rows disagree in length")
        lengths = np.fromiter(
            (len(row) for row in rows), dtype=np.int64, count=len(rows)
        )
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        data = np.empty(int(indptr[-1]), dtype=float)
        cursor = 0
        for row in rows:
            for target in sorted(row):
                indices[cursor] = target
                data[cursor] = row[target]
                cursor += 1
        self._init_from_arrays(
            system, states, data, indices, indptr, scheduler_name
        )
        self._rows: list[dict[int, float]] | None = rows

    @classmethod
    def from_arrays(
        cls,
        system: System,
        states: list[Configuration],
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        scheduler_name: str,
        codes: np.ndarray | None = None,
        tables: "CompiledKernelTables | None" = None,
    ) -> "MarkovChain":
        """CSR-native constructor (columns sorted and unique per row).

        ``codes`` (the ``(num_states, N)`` state-code matrix) and
        ``tables`` are optional carry-overs from a compiled build: with
        them, :meth:`mark` with a vectorized predicate needs no re-encode
        and no re-compilation.
        """
        chain = cls.__new__(cls)
        chain._init_from_arrays(
            system, states, data, indices, indptr, scheduler_name
        )
        chain._rows = None
        chain._codes = codes
        chain._tables = tables
        return chain

    def _init_from_arrays(
        self,
        system: System,
        states: list[Configuration],
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        scheduler_name: str,
    ) -> None:
        self.system = system
        self.states = states
        self.scheduler_name = scheduler_name
        self._data = np.asarray(data, dtype=float)
        self._indices = np.asarray(indices, dtype=np.int64)
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self.index: dict[Configuration, int] = {
            state: i for i, state in enumerate(states)
        }
        self._rows = None
        self._codes: np.ndarray | None = None
        self._tables: "CompiledKernelTables | None" = None
        self._encoding: "StateEncoding | None" = None
        self._sparse: sparse.csr_matrix | None = None
        self._dense: np.ndarray | None = None
        #: (solve-set key, TransientFactor) memo owned by repro.markov.hitting.
        self._transient_lu: tuple | None = None
        self._check_arrays()

    def _check_arrays(self) -> None:
        n = len(self.states)
        if self._indptr.shape != (n + 1,) or self._indptr[-1] != len(
            self._data
        ):
            raise MarkovError("CSR arrays are inconsistent")
        lengths = np.diff(self._indptr)
        empty = np.flatnonzero(lengths == 0)
        if empty.size:
            raise MarkovError(f"state {int(empty[0])} has no transitions")
        if self._data.size and float(self._data.min()) < 0.0:
            position = int(np.flatnonzero(self._data < 0.0)[0])
            row = int(
                np.searchsorted(self._indptr, position, side="right") - 1
            )
            raise MarkovError(f"row {row} has negative probability")
        if n:
            sums = np.add.reduceat(self._data, self._indptr[:-1])
            bad = np.flatnonzero(
                np.abs(sums - 1.0)
                > ROW_SUM_TOLERANCE * np.maximum(lengths, 1)
            )
            if bad.size:
                state_id = int(bad[0])
                raise MarkovError(
                    f"row {state_id} sums to {float(sums[state_id])!r},"
                    f" expected 1"
                )

    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of states."""
        return len(self.states)

    @property
    def rows(self) -> list[dict[int, float]]:
        """Legacy per-state ``{target: probability}`` dict view (lazy).

        Compiled chains materialize it on first access only; the solvers
        and matrix exports never touch it.
        """
        if self._rows is None:
            indptr, indices, data = self._indptr, self._indices, self._data
            self._rows = [
                dict(
                    zip(
                        indices[start:stop].tolist(),
                        data[start:stop].tolist(),
                    )
                )
                for start, stop in zip(indptr[:-1], indptr[1:])
            ]
        return self._rows

    def transition_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw CSR triple ``(data, indices, indptr)``.

        Columns are sorted and unique within each row; treat all three as
        read-only (the matrix caches alias them).
        """
        return self._data, self._indices, self._indptr

    def id_of(self, configuration: Configuration) -> int:
        """Dense id of a configuration."""
        try:
            return self.index[configuration]
        except KeyError:
            raise MarkovError(
                f"configuration {configuration!r} is not a chain state"
            ) from None

    def probability(self, source: int, target: int) -> float:
        """One transition probability."""
        start, stop = self._indptr[source], self._indptr[source + 1]
        position = start + np.searchsorted(
            self._indices[start:stop], target
        )
        if position < stop and self._indices[position] == target:
            return float(self._data[position])
        return 0.0

    # ------------------------------------------------------------------
    # predicate marking
    # ------------------------------------------------------------------
    def mark(
        self,
        predicate: (
            "Specification | BatchLegitimacy"
            " | Callable[[System, Configuration], bool]"
        ),
    ) -> np.ndarray:
        """Boolean array evaluating a predicate on every state.

        Accepts a :class:`~repro.stabilization.specification.Specification`
        (its exact batch form when it has one, else its scalar
        predicate), a vectorized
        :class:`~repro.markov.batch.BatchLegitimacy` strategy, or a
        scalar ``predicate(system, configuration)`` applied per state —
        see :func:`repro.markov.batch.mark_states`.  Batch forms run in
        one shot over the whole state-code matrix
        (``EnabledCountLegitimacy`` marks 500k states in a few gathers).
        Systems whose class tables exceed the table-compilation budget
        fall back to the scalar predicate, and an explicit strategy to a
        walk over the system for the enabled matrix — like every other
        ``"auto"`` tier, over-budget tables degrade, never fail.
        """
        from repro.markov.batch import mark_states

        return mark_states(
            predicate,
            self.system,
            self.states,
            self.state_codes,
            self._compiled_tables,
            self._enabled_matrix_scalar,
        )

    @property
    def encoding(self) -> "StateEncoding":
        """The chain's :class:`StateEncoding` (built on first use)."""
        if self._encoding is None:
            if self._tables is not None:
                self._encoding = self._tables.encoding
            else:
                from repro.core.encoding import StateEncoding

                self._encoding = StateEncoding(self.system)
        return self._encoding

    def state_codes(self) -> np.ndarray:
        """``(num_states, N)`` code matrix of the chain's states (cached)."""
        if self._codes is None:
            self._codes = self.encoding.encode_batch(self.states)
        return self._codes

    def _compiled_tables(self) -> "CompiledKernelTables":
        if self._tables is None:
            from repro.core.encoding import tables_for

            self._tables = tables_for(self.system)
        return self._tables

    def _enabled_matrix_scalar(self) -> np.ndarray:
        """``(num_states, N)`` enabled matrix via the system (the
        over-table-budget fallback for vectorized marks)."""
        system = self.system
        enabled = np.zeros((self.num_states, system.num_processes), dtype=bool)
        for state_id, state in enumerate(self.states):
            enabled[state_id, list(system.enabled_processes(state))] = True
        return enabled

    # ------------------------------------------------------------------
    # matrix exports
    # ------------------------------------------------------------------
    def dense_matrix(self) -> np.ndarray:
        """Dense row-stochastic matrix (small chains only).

        Cached up to :data:`DENSE_CACHE_LIMIT` states; treat the result
        as read-only.
        """
        if self._dense is not None:
            return self._dense
        dense = self.sparse_matrix().toarray()
        if self.num_states <= DENSE_CACHE_LIMIT:
            self._dense = dense
        return dense

    def sparse_matrix(self) -> sparse.csr_matrix:
        """CSR row-stochastic matrix (built once, then cached).

        Wraps the chain's own arrays without copying them — treat the
        result as read-only.
        """
        if self._sparse is None:
            n = self.num_states
            self._sparse = sparse.csr_matrix(
                (self._data, self._indices, self._indptr), shape=(n, n)
            )
        return self._sparse

    def step_distribution(
        self, distribution: Sequence[float]
    ) -> np.ndarray:
        """One push of a row distribution through the chain."""
        vector = np.asarray(distribution, dtype=float)
        if vector.shape != (self.num_states,):
            raise MarkovError("distribution length mismatch")
        return vector @ self.sparse_matrix()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MarkovChain(states={self.num_states},"
            f" scheduler={self.scheduler_name!r})"
        )
