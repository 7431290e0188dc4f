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

That per-target structure solves the chain's **rotation quotient**.
An anonymous ring's step commutes with rotating the ring (the symmetry
argument of the paper's Theorem 3, which the same
:class:`~repro.stabilization.symmetry.Automorphism` decides on the
compiled tables), so when the rotation also permutes the state set and
the target is invariant, the chain lumps exactly onto its rotation
orbits: a Herman ring of 9 has 512 states but 60 orbits.  Sweeps then
evaluate only the orbit representatives' edges and factor the orbit
chain; a chain without the symmetry is its own quotient, one state per
orbit (:class:`_HittingStructure` records which, and why).
"""

from __future__ import annotations

from functools import cached_property
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
from repro.markov.chain import ROW_SUM_TOLERANCE, MarkovChain, concat_ranges
from repro.markov.hitting import (
    TransientFactor,
    TransientPlan,
    backward_closure,
)
from repro.schedulers.distributions import SchedulerDistribution
from repro.stabilization.symmetry import Automorphism

__all__ = ["ParametricChain", "build_parametric_chain"]


class _HittingStructure:
    """Per-target transient-solve plan, reused across the whole sweep.

    Everything here depends only on the chain's symbolic structure and
    the target mask — never on a parameter point.  Rows and columns are
    the chain's **rotation orbits** (:meth:`ParametricChain._rotation`):
    when turning every configuration by one process is an automorphism
    of the symbolic chain and the target is invariant under it, the
    chain lumps exactly onto its orbits (the anonymity argument of the
    paper's Theorem 3), and hitting times are constant on each orbit.
    Otherwise every orbit is one state, and the quotient is the full
    chain itself.  Either way one code path holds:

    * each row is an orbit's representative (its minimum-rank state),
      its wire edges the representative's, accumulated by a frozen
      :class:`~repro.markov.builder._DedupPlan` into the full chain's
      slots of those rows (:meth:`data`, checked like
      :meth:`ParametricChain.data_vector`);
    * :meth:`solve` folds those slots into orbit columns and runs one
      residual-checked :class:`~repro.markov.hitting.TransientFactor`
      over the transient orbits' :class:`~repro.markov.hitting.TransientPlan`.

    :attr:`num_orbits` counts the rows; :attr:`declined` names why the
    rotation was not used (``None`` when it was).
    """

    def __init__(self, chain: "ParametricChain", target: np.ndarray) -> None:
        n = target.shape[0]
        representative, self.declined = chain._rotation
        if self.declined is None and not np.array_equal(
            target[representative], target
        ):
            self.declined = "target not invariant"
        if self.declined is not None:
            representative = np.arange(n, dtype=np.int64)
        reps, orbit_of = np.unique(representative, return_inverse=True)
        k = reps.shape[0]
        self.num_orbits = k
        #: Orbit of each state, and each orbit's number of states.
        self.orbit_of = orbit_of.reshape(n)
        self.orbit_size = np.bincount(self.orbit_of, minlength=k)
        self.orbit_target = orbit_target = target[reps]

        counts = chain._edge_counts[reps]
        starts = (np.cumsum(chain._edge_counts) - chain._edge_counts)[reps]
        edges = concat_ranges(starts, starts + counts)
        self._weights = chain._edge_weights[edges]
        self._divisors = chain._edge_divisors[edges]
        self._atoms = chain._edge_atoms[edges]
        self._rows = _DedupPlan(
            k, counts, chain._edge_targets[edges], num_cols=n
        )
        #: Row pointers of the representatives' slots in :meth:`data`.
        self.row_indptr = self._rows.indptr
        row_of_slot = np.repeat(
            np.arange(k, dtype=np.int64), np.diff(self.row_indptr)
        )
        slot_keys, fold = np.unique(
            row_of_slot * np.int64(k) + self.orbit_of[self._rows.indices],
            return_inverse=True,
        )
        self._fold = fold.reshape(-1)
        #: The orbit chain's CSR pattern (rows and columns are orbits).
        self.indices = slot_keys % k
        self.indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(slot_keys // k, minlength=k), out=self.indptr[1:]
        )

        # Edge probabilities are strictly positive on the open parameter
        # box, so structural reachability equals probabilistic
        # reachability at every point.
        level = backward_closure(self.indices, self.indptr, orbit_target)
        reached = level >= 0
        if not reached.all():
            raise MarkovError(
                f"{int(self.orbit_size[~reached].sum())} states cannot"
                " reach the target set; parametric hitting sweeps need"
                " absorption probability one everywhere"
            )

        transient_ids = np.flatnonzero(~orbit_target)
        self.transient_ids = transient_ids
        m = transient_ids.shape[0]
        self.num_transient = m
        if m == 0:
            return

        position = np.full(k, -1, dtype=np.int64)
        position[transient_ids] = np.arange(m, dtype=np.int64)
        row_of_entry = np.repeat(
            np.arange(k, dtype=np.int64), np.diff(self.indptr)
        )
        inside = ~orbit_target[row_of_entry] & ~orbit_target[self.indices]
        #: Orbit-chain slots that land in the transient Q block, in the
        #: CSR order of Q itself (transient positions keep orbit order).
        self.entry_sel = np.flatnonzero(inside)
        q_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(position[row_of_entry[self.entry_sel]], minlength=m),
            out=q_indptr[1:],
        )
        self.plan = TransientPlan(
            position[self.indices[self.entry_sel]], q_indptr
        )

    def data(self, atom_values: np.ndarray) -> np.ndarray:
        """The representatives' rows of the chain's ``data`` vector."""
        return self._rows.accumulate(
            _edge_probs(
                self._weights, self._divisors, self._atoms, atom_values
            )
        )

    def lower_bounds(self, atom_lows: np.ndarray) -> np.ndarray:
        """Orbit-chain slot probabilities' lower bounds, from per-atom
        lower bounds (products and sums of non-negative intervals)."""
        branch = np.ones(self._weights.shape[0])
        for column in self._atoms.T:
            branch = branch * atom_lows[column]
        return self._folded(
            self._rows.accumulate(self._weights / self._divisors * branch)
        )

    def _folded(self, slot_values: np.ndarray) -> np.ndarray:
        return np.bincount(
            self._fold, weights=slot_values, minlength=self.indices.shape[0]
        )

    def solve(self, data: np.ndarray) -> np.ndarray:
        """Expected hitting time per orbit for one :meth:`data` vector."""
        times = np.zeros(self.num_orbits, dtype=float)
        if self.num_transient == 0:
            return times
        factor = TransientFactor(self.plan, self._folded(data)[self.entry_sel])
        t = factor.solve(np.ones(self.num_transient, dtype=float))
        times[self.transient_ids] = np.maximum(t, 0.0)
        return times

    def objective_value(
        self, orbit_values: np.ndarray, objective: str
    ) -> float:
        """Mean (weighted by orbit size) or worst value over the
        transient states."""
        if self.num_transient == 0:
            return 0.0
        values = orbit_values[self.transient_ids]
        if objective == "mean":
            sizes = self.orbit_size[self.transient_ids]
            return float((values * sizes).sum() / sizes.sum())
        return float(values.max())


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
        #: Wire edges are grouped by source state, in state order.
        self._edge_counts = counts
        self._edge_targets = targets
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
        return _edge_probs(
            self._edge_weights,
            self._edge_divisors,
            self._edge_atoms,
            self._atom_values(assignment),
        )

    def _atom_values(
        self, assignment: Mapping[str, float] | None
    ) -> np.ndarray:
        """The raveled outcome table at one assignment, plus the padding
        atom's ``1.0``; :class:`ModelError` on a coin name the chain
        does not use."""
        tables = self._tables
        if assignment is None:
            return np.append(tables.outcome_prob.ravel(), 1.0)
        unknown = sorted(set(assignment) - set(self.param_names))
        if unknown:
            raise ModelError(
                f"unknown coin parameters {unknown}; the chain uses"
                f" {list(self.param_names)}"
            )
        atom_values = tables.evaluate_outcome_probs(dict(assignment))
        return np.append(atom_values.ravel(), 1.0)

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
        data = self._plan.accumulate(self.edge_probs(assignment))
        _check_probabilities(data, self.indptr, assignment)
        return data

    def atom_lower_bounds(
        self, lows: Mapping[str, float], highs: Mapping[str, float]
    ) -> np.ndarray:
        """Per-atom probability lower bounds over a parameter box.

        Atoms are affine, so the endpoints are exact (by coefficient
        sign); negative lows clip to zero, and the padding atom reads
        ``1.0``.  :meth:`_HittingStructure.lower_bounds` combines them
        into slot bounds for the certified optimizer
        (:mod:`repro.analysis.bias`).
        """
        atom_lo, _ = self._tables.outcome_prob_bounds(dict(lows), dict(highs))
        return np.append(np.maximum(atom_lo.ravel(), 0.0), 1.0)

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

    @cached_property
    def _rotation(self) -> tuple[np.ndarray | None, str | None]:
        """Orbit representatives under rotation by one process, or why not.

        Rotation σ moves process ``i``'s local state to process
        ``i + 1`` (mod N).  It is used only when it is an
        :class:`~repro.stabilization.symmetry.Automorphism` whose
        :meth:`~repro.stabilization.symmetry.Automorphism.equivariant`
        holds — decided on the compiled tables before any wire edge is
        read: every neighborhood and its image enable the same number of
        actions, with equal outcome forms (construction value and affine
        ``(constant, coefficients)`` row, not table slot, so a ring whose
        port numbering splits it into several process classes keeps its
        symmetry).  Equal forms evaluate to equal floats at every point
        and the built-in schedulers weigh enabled processes
        exchangeably, so σ then preserves every transition probability
        at every assignment — provided it also permutes the state set.

        Returns ``(representative, None)`` — per state, the minimum-rank
        state of its orbit — or ``(None, reason)`` with reason
        ``"not equivariant"`` (also when rotation is no graph
        automorphism) or ``"state set not closed"``.  Computed once per
        chain.
        """
        n = self.system.num_processes
        try:
            rotation = Automorphism(
                self.system, [(p + 1) % n for p in range(n)]
            )
        except ModelError:
            return None, "not equivariant"
        if not rotation.equivariant():
            return None, "not equivariant"
        representative = rotation.representatives(self._codes)
        if representative is None:
            return None, "state set not closed"
        return representative, None

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
            solver = _HittingStructure(self, target)
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
        symbolic work once.  The solve runs on the rotation orbits
        (:class:`_HittingStructure`) and is lifted back to the states.
        """
        solver = self._solver(target)
        return solver.solve(self._orbit_data(solver, assignment))[
            solver.orbit_of
        ]

    def _orbit_data(
        self,
        solver: _HittingStructure,
        assignment: Mapping[str, float] | None,
    ) -> np.ndarray:
        """:meth:`_HittingStructure.data` at one assignment, checked like
        :meth:`data_vector` (every slot of the chain is the image of a
        representative's slot, so the same assignments fail)."""
        data = solver.data(self._atom_values(assignment))
        _check_probabilities(data, solver.row_indptr, assignment)
        return data

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
        return [
            solver.objective_value(
                solver.solve(self._orbit_data(solver, assignment)), objective
            )
            for assignment in assignments
        ]


def _check_probabilities(
    data: np.ndarray,
    indptr: np.ndarray,
    assignment: Mapping[str, float] | None,
) -> None:
    """Raise :class:`MarkovError` on a negative slot or a row whose mass
    is off one by more than :data:`~repro.markov.chain.ROW_SUM_TOLERANCE`."""
    if not data.size:
        return
    mass = np.add.reduceat(data, indptr[:-1])
    low, drift = data.min(), np.abs(mass - 1.0).max()
    if low < 0.0 or drift > ROW_SUM_TOLERANCE:
        problem = (
            f"a negative transition probability ({low:.4g})"
            if low < 0.0
            else f"a row mass off one by {drift:.3g}"
        )
        raise MarkovError(
            f"coin assignment {dict(assignment or {})} gives {problem}"
        )


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
