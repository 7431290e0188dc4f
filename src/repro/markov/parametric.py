"""Parametric chains: build CSR structure once, re-instantiate per point.

A chain whose outcome probabilities are affine in declared coin
parameters (:mod:`repro.core.parametric`) has **parameter-independent
structure**: which configurations exist, which successors each one has,
and how duplicate wire edges accumulate into CSR slots are all decided
by guards and post-states, never by the numeric value of a coin.  Only
the CSR ``data`` vector changes with the parameter point.

:class:`ParametricChain` exploits that split.  It is the symbolic view
of the compiled chain builder's one expander
(:func:`repro.markov.builder._expand`, the same array layer
``build_chain`` evaluates): it keeps every wire edge as
``(target, weight, action_choices, outcome atoms)`` — an *atom* is one
slot of the compiled outcome table — and freezes the builder's
stable-argsort dedup plan (:class:`repro.markov.builder._DedupPlan`)
once.  Per parameter point, instantiation is then:

1. evaluate the affine outcome table at the assignment
   (:meth:`~repro.core.encoding.CompiledKernelTables.evaluate_outcome_probs`);
2. per edge, multiply its atoms left-to-right and apply the oracle's
   probability expression ``weight · Π atoms / action_choices``;
3. scatter-accumulate into the frozen CSR slots.

Because every arithmetic step mirrors the concrete builder's, a chain
instantiated at a concrete assignment is **bit-for-bit identical** —
``data``, ``indices``, ``indptr``, and downstream hitting times — to
``build_chain(engine="compiled")`` on a system constructed with those
coin values (``tests/test_parametric_chain.py`` enforces this on every
conformance-registry system).

For parameter sweeps, :meth:`ParametricChain.expected_times` bypasses
chain construction entirely: the transient block's sparsity pattern is
also parameter-independent, so the hitting solver builds its
:class:`~repro.markov.hitting.TransientPlan` — the strongly connected
super-blocks of ``I − Q``, each with the factorization
:func:`~repro.markov.hitting.dense_structure` picks and its assembly
plan — once per target, the plan every transient solve shares.  Per
point only the numeric factorizations and the block forward
substitution run, and the whole solve's residual is checked.
``benchmarks/bench_parametric_sweep.py`` measures the resulting speedup
over rebuilding the chain per point on a 64-point bias grid.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.configuration import Configuration
from repro.core.parametric import CoinParameter
from repro.core.system import System
from repro.errors import MarkovError, ModelError
from repro.markov.builder import (
    DEFAULT_MAX_STATES,
    _ChainContext,
    _compile_chain_context,
    _concat,
    _DedupPlan,
    _edge_probs,
    _expand,
)
from repro.markov.chain import ROW_SUM_TOLERANCE, MarkovChain
from repro.markov.hitting import (
    TransientFactor,
    TransientPlan,
    backward_closure,
)
from repro.schedulers.distributions import SchedulerDistribution

__all__ = ["ParametricChain", "build_parametric_chain"]


class _HittingStructure:
    """Per-target transient-solve plan, reused across the whole sweep.

    Everything here depends only on the chain's sparsity pattern and the
    target mask — never on a parameter point: the transient index set,
    the CSR slots of ``Q`` and its :class:`~repro.markov.hitting.TransientPlan`
    (strongly connected super-blocks and their assembly plans).
    :meth:`solve` then does only numeric work per point.
    """

    def __init__(
        self,
        indices: np.ndarray,
        indptr: np.ndarray,
        target: np.ndarray,
    ) -> None:
        n = target.shape[0]
        self.target = target
        # Edge probabilities are strictly positive on the open parameter
        # box, so structural reachability equals probabilistic
        # reachability at every point.
        reached = backward_closure(indices, indptr, target) >= 0
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
        #: CSR data slots that land in the transient Q block, in the CSR
        #: order of Q itself (transient positions keep the state order).
        self.entry_sel = np.flatnonzero(inside)
        q_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(position[row_of_entry[self.entry_sel]], minlength=m),
            out=q_indptr[1:],
        )
        self.plan = TransientPlan(position[indices[self.entry_sel]], q_indptr)

    def solve(self, data: np.ndarray) -> np.ndarray:
        """Expected hitting times for one instantiated ``data`` vector."""
        times = np.zeros(self.target.shape[0], dtype=float)
        if self.num_transient == 0:
            return times
        factor = TransientFactor(self.plan, data[self.entry_sel])
        t = factor.solve(np.ones(self.num_transient, dtype=float))
        times[self.transient_ids] = np.maximum(t, 0.0)
        return times


class ParametricChain:
    """Structure-once, data-per-point view of a compiled chain family.

    Built like ``build_chain(engine="compiled")`` (raising
    :class:`MarkovError` under the same conditions the compiled engine
    is unavailable) by the same expander, but keeping the wire format
    symbolic: per-edge weights, action-choice divisors, and
    outcome-table atoms.  The CSR
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
    ) -> None:
        if initial is None:
            total = system.num_configurations()
            if total > max_states:
                raise MarkovError(
                    f"configuration space has {total} states, budget is"
                    f" {max_states}; pass an explicit initial set"
                )
        context = _compile_chain_context(
            system, distribution, require=True
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

        self._freeze_structure(
            context,
            *_expand(
                system,
                context,
                None if initial is None else list(initial),
                max_states,
                lambda chunk: (chunk.weight, chunk.divisor, chunk.atoms),
            ),
        )
        self._solvers: dict[bytes, _HittingStructure] = {}
        self._reference_chain: MarkovChain | None = None

    # ------------------------------------------------------------------
    # construction: frozen dedup plan over the symbolic wire edges
    # ------------------------------------------------------------------
    def _freeze_structure(
        self,
        context: _ChainContext,
        states: list[Configuration],
        codes: np.ndarray | None,
        counts: np.ndarray,
        targets: np.ndarray,
        kept: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        """Keep the symbolic edges and freeze the builder's dedup plan.

        Per point only the scatter-accumulation of probabilities reruns
        (:meth:`_DedupPlan.accumulate`), so the resulting ``data`` matches
        the concrete builder's bit-for-bit.  Each edge's real atoms move
        left in order and all-padding columns are dropped: removing a
        factor of exactly ``1.0`` leaves every product unchanged.
        """
        self.num_states = len(states)
        self.states = states
        self._codes = codes
        self._edge_weights = _concat([part[0] for part in kept], float)
        self._edge_divisors = _concat([part[1] for part in kept], float)
        self.num_edges = self._edge_weights.shape[0]
        width = max((part[2].shape[1] for part in kept), default=0)
        atoms = np.full(
            (self.num_edges, width), context.pad_atom, dtype=np.int64
        )
        start = 0
        for _, _, block_atoms in kept:
            stop = start + block_atoms.shape[0]
            atoms[start:stop, : block_atoms.shape[1]] = block_atoms
            start = stop
        real = atoms != context.pad_atom
        atoms = np.take_along_axis(
            atoms, np.argsort(~real, axis=1, kind="stable"), axis=1
        )
        self._edge_atoms = atoms[:, : int(real.sum(axis=1).max(initial=0))]
        self._plan = _DedupPlan(self.num_states, counts, targets)
        self.indices = self._plan.indices
        self.indptr = self._plan.indptr

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
        expression ``weight · Π atoms / action_choices``, its atoms
        multiplied left to right from ``1.0`` (see
        :func:`repro.markov.builder._edge_probs`).
        """
        tables = self._tables
        if assignment is None:
            atom_values = tables.outcome_prob
        else:
            atom_values = tables.evaluate_outcome_probs(dict(assignment))
        return _edge_probs(
            self._edge_weights,
            self._edge_divisors,
            self._edge_atoms,
            np.append(atom_values.ravel(), 1.0),
        )

    def data_vector(
        self, assignment: Mapping[str, float] | None = None
    ) -> np.ndarray:
        """The CSR ``data`` vector at one assignment (frozen structure).

        The seam under :meth:`instantiate`, :meth:`expected_times` and
        :meth:`hitting_sweep`: raises :class:`ModelError` on a coin name
        the chain does not use, and :class:`MarkovError` when the
        assignment is no probability point of this chain — a negative
        slot, or a row whose mass is off one by more than
        :data:`~repro.markov.chain.ROW_SUM_TOLERANCE`.
        """
        if assignment is not None:
            unknown = sorted(set(assignment) - set(self.param_names))
            if unknown:
                raise ModelError(
                    f"unknown coin parameters {unknown}; the chain uses"
                    f" {list(self.param_names)}"
                )
        data = self._plan.accumulate(self.edge_probs(assignment))
        if data.size:
            mass = np.add.reduceat(data, self.indptr[:-1])
            low, drift = data.min(), np.abs(mass - 1.0).max()
            if low < 0.0 or drift > ROW_SUM_TOLERANCE:
                problem = (
                    f"a negative transition probability ({low:.4g})"
                    if low < 0.0
                    else f"a row mass off one by {drift:.3g}"
                )
                raise MarkovError(
                    f"coin assignment {dict(assignment or {})} gives"
                    f" {problem}"
                )
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
        atom_lo = np.append(np.maximum(atom_lo.ravel(), 0.0), 1.0)
        atom_hi = np.append(np.maximum(atom_hi.ravel(), 0.0), 1.0)
        branch_lo = np.ones(self.num_edges)
        branch_hi = np.ones(self.num_edges)
        for column in self._edge_atoms.T:
            branch_lo = branch_lo * atom_lo[column]
            branch_hi = branch_hi * atom_hi[column]
        scale = self._edge_weights / self._edge_divisors
        return (
            self._plan.accumulate(scale * branch_lo),
            self._plan.accumulate(scale * branch_hi),
        )

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
) -> ParametricChain:
    """Functional spelling of the :class:`ParametricChain` constructor."""
    return ParametricChain(
        system, distribution, initial=initial, max_states=max_states
    )
