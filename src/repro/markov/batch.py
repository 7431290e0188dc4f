"""Vectorized Monte-Carlo batch engine over dense code matrices.

A sweep point's trials are advanced *in lockstep*: the batch state is one
``(trials × processes)`` integer code matrix (see
:class:`repro.core.encoding.StateEncoding`), enabledness is a table gather
(:class:`repro.core.encoding.CompiledKernelTables`), scheduler draws and
outcome sampling are vectorized NumPy RNG, legitimacy is a compiled
predicate over the code matrix, and converged/terminal rows are retired in
place (the active matrix shrinks as trials finish).  Per simulated step
the Python interpreter executes a constant number of array operations
regardless of the trial count — this is what makes the N = 20–50 Q1/Q2/Q3
presets affordable.

The engine reproduces the scalar path's *distributions*, not its random
streams: action choice is uniform over the neighborhood's enabled actions
and outcomes follow the resolved probability rows, exactly as
:meth:`repro.core.system.System.sample_step`, but the draws come
from a NumPy generator.  ``engine="scalar"`` in
:class:`repro.markov.montecarlo.MonteCarloRunner` keeps the loop-per-trial
path as the equivalence oracle; the statistical agreement of the two
engines is asserted by ``tests/test_batch_engine.py``.

**Legitimacy compilation.**  Arbitrary global predicates cannot be tabled
per neighborhood, so legitimacy is expressed as a :class:`BatchLegitimacy`
strategy:

* :class:`EnabledCountLegitimacy` — ``legitimate(γ) ⇔ |Enabled(γ)| = k``.
  Free (the enabled matrix is computed every step anyway) and exact for
  the paper's workloads: token circulation (token ⇔ enabled, Section 3.1),
  Dijkstra's ring (privilege ⇔ enabled), and leader election on trees
  (``LC ⇔ terminal``, Lemma 10) — all preserved by the coin-toss
  transformer because ``Trans(A)`` keeps the guard ``G_A``.
* :class:`ActionCountLegitimacy` — ``legitimate(γ)`` ⇔ exactly ``k``
  processes have one of the named actions enabled (Herman's token is
  the enabled ``T`` action); one gather into
  :meth:`~repro.core.encoding.CompiledKernelTables.entries_with_action`.
* :class:`DecodingLegitimacy` — fallback for arbitrary predicates:
  decodes each active row (memoized per code vector) and calls the Python
  predicate.  Correct for everything, slower, still leaves the stepping
  itself vectorized.

A :class:`~repro.stabilization.specification.Specification` may carry
one of these as its exact batch form
(:meth:`~repro.stabilization.specification.Specification.batch_legitimacy`);
:func:`mark_states` — the one helper behind ``StateSpace.legitimate_mask``
and the chains' and MDPs' ``mark`` — evaluates it over a state code
matrix and falls back to the scalar predicate when there is no form or
the tables do not fit.

**One lockstep loop.**  :meth:`BatchEngine.lockstep` is the only step
loop of the lockstep tiers: it advances a code matrix whose rows carry
a point id and a step budget, dispatches legitimacy and scheduler draws
per point, and runs the fault timeline of
:mod:`repro.stabilization.faults` for points that carry a fault.
:meth:`BatchEngine.run` (and :meth:`BatchEngine.run_with_fault`, its
alias with a fault) is the one-point call to it, and the fused sweep
engine (:mod:`repro.markov.sweep_engine`) calls it with many points.
Its scalar twin is the trial loop of
:class:`~repro.markov.montecarlo.MonteCarloRunner`
(``engine="scalar"``), which follows the same timeline.  Each step
classifies its rows once (converged, illegitimate terminal, over
budget) and compacts them once.  Uniforms are drawn only where they are
read: scheduler coins at enabled cells, two uniforms per mover for the
action choice and outcome
(:meth:`~repro.core.encoding.CompiledKernelTables.sample`), so two runs
with the same inputs leave the generator in the same state.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.configuration import Configuration
from repro.core.encoding import (
    DEFAULT_TABLE_BUDGET,
    CompiledKernelTables,
    StateEncoding,
    tables_for,
)
from repro.core.system import System
from repro.errors import MarkovError, ModelError
from repro.schedulers.samplers import (
    BernoulliSampler,
    CentralRandomizedSampler,
    DistributedRandomizedSampler,
    SynchronousSampler,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stabilization.specification import Specification

__all__ = [
    "BatchLegitimacy",
    "EnabledCountLegitimacy",
    "ActionCountLegitimacy",
    "DecodingLegitimacy",
    "MarkContext",
    "compile_legitimacy",
    "mark_states",
    "BatchSamplerStrategy",
    "batch_strategy_for",
    "BatchEngine",
    "BatchRunResult",
    "PROFILE_PHASES",
]

#: Per-phase keys of a profiled lockstep run (milliseconds on
#: :attr:`BatchRunResult.profile`).
PROFILE_PHASES = ("gather", "legitimacy", "retire", "draw")


# ----------------------------------------------------------------------
# legitimacy predicates over code matrices
# ----------------------------------------------------------------------
class BatchLegitimacy:
    """Strategy interface: legitimacy of every active trial at once."""

    def evaluate(
        self,
        codes: np.ndarray,
        enabled: np.ndarray,
        engine: "BatchEngine",
    ) -> np.ndarray:
        """Boolean vector over the rows of ``codes``."""
        raise NotImplementedError  # pragma: no cover - interface


class EnabledCountLegitimacy(BatchLegitimacy):
    """``legitimate(γ) ⇔ |Enabled(γ)| = count`` — gather-free.

    The engine only counts true bits in the enabled matrix it already
    computed.  As a specification's batch form it is exact by
    definition where legitimacy *is* an enabled count: Dijkstra's
    privilege is enabledness on any system, and Algorithm 1's token
    predicate is its one action's guard.  Where the equivalence is a
    theorem instead (Lemma 10's ``LC`` ⇔ terminal for Algorithm 2) it
    is no specification's form — the experiment verifying the theorem
    must not assume it — and a batch tier that passes it explicitly
    (Q2's ``EnabledCountLegitimacy(0)``) relies on that verification.
    """

    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        if count < 0:
            raise MarkovError("enabled count must be non-negative")
        self.count = count

    def evaluate(self, codes, enabled, engine):
        return enabled.sum(axis=1) == self.count


class ActionCountLegitimacy(BatchLegitimacy):
    """``legitimate(γ)`` ⇔ exactly ``count`` processes have one of
    ``actions`` (positions in ``System.actions``) enabled.

    Reads the compiled tables' per-row action index through
    ``engine.tables`` (:meth:`~repro.core.encoding.CompiledKernelTables.entries_with_action`).
    """

    __slots__ = ("actions", "count")

    def __init__(self, actions: Sequence[int], count: int) -> None:
        if count < 0:
            raise MarkovError("action count must be non-negative")
        self.actions = tuple(actions)
        self.count = count

    def evaluate(self, codes, enabled, engine):
        tables = engine.tables
        cells = tables.entries_with_action(self.actions).take(
            tables.pack(codes)
        )
        return cells.sum(axis=1) == self.count


class DecodingLegitimacy(BatchLegitimacy):
    """Fallback: decode each row and call a Python predicate (memoized).

    The memo is keyed by the raw code-vector bytes, so revisited
    configurations — common near convergence — skip both the decode and
    the predicate.
    """

    __slots__ = ("_predicate", "_cache")

    def __init__(
        self, predicate: Callable[[Configuration], bool]
    ) -> None:
        self._predicate = predicate
        self._cache: dict[bytes, bool] = {}

    def evaluate(self, codes, enabled, engine):
        cache = self._cache
        decode = engine.encoding.decode
        predicate = self._predicate
        result = np.empty(codes.shape[0], dtype=bool)
        for row in range(codes.shape[0]):
            key = codes[row].tobytes()
            verdict = cache.get(key)
            if verdict is None:
                verdict = bool(predicate(decode(codes[row])))
                cache[key] = verdict
            result[row] = verdict
        return result


def compile_legitimacy(
    legitimate: Callable[[Configuration], bool] | BatchLegitimacy,
) -> BatchLegitimacy:
    """Accept a ready strategy or wrap a plain predicate in the fallback."""
    if isinstance(legitimate, BatchLegitimacy):
        return legitimate
    return DecodingLegitimacy(legitimate)


class MarkContext:
    """The ``engine`` a :class:`BatchLegitimacy` reads outside a running
    :class:`BatchEngine`: the encoding, and the tables (``None`` on the
    over-budget fallback)."""

    __slots__ = ("encoding", "tables")

    def __init__(
        self,
        encoding: StateEncoding,
        tables: CompiledKernelTables | None,
    ) -> None:
        self.encoding = encoding
        self.tables = tables


def mark_states(
    predicate: (
        "Specification | BatchLegitimacy"
        " | Callable[[System, Configuration], bool]"
    ),
    system: System,
    states: Sequence[Configuration],
    codes: Callable[[], np.ndarray],
    tables: Callable[[], CompiledKernelTables] | None,
    scalar_enabled: Callable[[], np.ndarray] | None = None,
) -> np.ndarray:
    """Boolean legitimacy of every state, over the code matrix when it can.

    ``predicate`` is a specification (anything with
    ``legitimate(system, configuration)``), a :class:`BatchLegitimacy`
    or a scalar ``predicate(system, configuration)``.  A specification's
    exact batch form
    (:meth:`~repro.stabilization.specification.Specification.batch_legitimacy`)
    and an explicit strategy are evaluated in one shot over
    ``codes()``, the states' ``(S, N)`` code matrix, with the enabled
    matrix gathered from ``tables()``.  A specification falls back to
    its scalar predicate when it has no form, ``tables`` is ``None`` or
    ``tables()`` raises :class:`~repro.errors.ModelError` (over the
    compilation budget); an explicit strategy then takes its enabled
    matrix from ``scalar_enabled()``, a walk over the system.
    """
    if isinstance(predicate, BatchLegitimacy):
        form, scalar = predicate, None
    elif hasattr(predicate, "legitimate"):  # a specification, duck-typed
        batch_form = getattr(predicate, "batch_legitimacy", None)
        form = None if batch_form is None else batch_form(system)
        scalar = predicate.legitimate
    else:
        form, scalar = None, predicate
    compiled = None
    if form is not None and tables is not None:
        try:
            compiled = tables()
        except ModelError:
            if scalar is None and scalar_enabled is None:
                raise
    if compiled is not None:
        state_codes = codes()
        enabled = compiled.enabled(compiled.pack(state_codes))
        context = MarkContext(compiled.encoding, compiled)
    elif scalar is not None:
        return np.fromiter(
            (bool(scalar(system, state)) for state in states),
            dtype=bool,
            count=len(states),
        )
    elif scalar_enabled is not None:
        state_codes = codes()
        enabled = scalar_enabled()
        context = MarkContext(StateEncoding(system), None)
    else:
        raise MarkovError(
            "a batch legitimacy needs the states' compiled tables"
        )
    return np.asarray(form.evaluate(state_codes, enabled, context), dtype=bool)


# ----------------------------------------------------------------------
# vectorized scheduler samplers
# ----------------------------------------------------------------------
class BatchSamplerStrategy:
    """Vectorized counterpart of a scalar scheduler sampler."""

    def choose(
        self, enabled: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        """Mover mask (subset of ``enabled``, non-empty per row)."""
        raise NotImplementedError  # pragma: no cover - interface


class _SynchronousBatch(BatchSamplerStrategy):
    """Every enabled process moves."""

    def choose(self, enabled, generator):
        return enabled


class _CentralRandomizedBatch(BatchSamplerStrategy):
    """Uniform single enabled process per trial (Definition 6, central)."""

    def choose(self, enabled, generator):
        counts = enabled.sum(axis=1)
        target = (generator.random(enabled.shape[0]) * counts).astype(
            np.int64
        )
        target = np.minimum(target, np.maximum(counts - 1, 0))
        ranks = np.cumsum(enabled, axis=1)
        return enabled & (ranks == (target + 1)[:, None])


class _IndependentCoinBatch(BatchSamplerStrategy):
    """Per-process coin, redrawn per trial until non-empty.

    With probability ½ this is the distributed randomized scheduler
    (uniform over non-empty subsets of the enabled set — the rejection
    sampling matches
    :meth:`repro.random_source.RandomSource.sample_nonempty_subset`); other
    biases give the Bernoulli sampler.  Coins are drawn only at enabled
    cells, in row-major order, and a redraw draws only at the enabled
    cells of the rows it redraws.
    """

    __slots__ = ("_p",)

    def __init__(self, probability: float) -> None:
        self._p = probability

    def _coins(self, enabled, generator):
        cells = np.flatnonzero(enabled)
        movers = np.zeros(enabled.shape, dtype=bool)
        movers.reshape(-1)[cells] = generator.random(cells.shape[0]) < self._p
        return movers

    def choose(self, enabled, generator):
        movers = self._coins(enabled, generator)
        empty = np.flatnonzero(~movers.any(axis=1))
        while empty.size:
            redraw = self._coins(enabled[empty], generator)
            movers[empty] = redraw
            empty = empty[~redraw.any(axis=1)]
        return movers


_BATCH_STRATEGIES: dict[type, Callable[[object], BatchSamplerStrategy]] = {
    SynchronousSampler: lambda sampler: _SynchronousBatch(),
    CentralRandomizedSampler: lambda sampler: _CentralRandomizedBatch(),
    DistributedRandomizedSampler: lambda sampler: _IndependentCoinBatch(0.5),
    BernoulliSampler: lambda sampler: _IndependentCoinBatch(sampler._p),
}


def batch_strategy_for(sampler: object) -> BatchSamplerStrategy | None:
    """Vectorized strategy for a scalar sampler, or ``None`` (stateful
    samplers like round-robin or scripted adversaries have no lockstep
    equivalent and keep the scalar engine)."""
    factory = _BATCH_STRATEGIES.get(type(sampler))
    return factory(sampler) if factory is not None else None


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class BatchRunResult:
    """Per-row outcome vectors of one lockstep run (or of the scalar
    trial loop, which fills the same vectors one trial at a time).

    ``times[r]`` is meaningful only where ``converged[r]``;
    ``hit_terminal`` marks rows retired in an illegitimate terminal
    configuration (they can never converge — the scalar path counts them
    as censored, and so do we) and ``timed_out`` rows that exhausted
    their step budget.

    Faulted points additionally fill the robustness vectors of the fault
    timeline (see :mod:`repro.stabilization.faults`): ``fault_times[r]``
    is the step at which row ``r``'s fault fired (``-1`` if it never
    did), ``legit_counts``/``observations`` feed the availability
    fraction, and ``max_runs[r]`` is the longest contiguous run of
    illegitimate observations (the *maximum excursion*).  Rows of
    fault-free points keep ``-1`` and zeros there.

    ``profile`` is ``None`` unless the run was profiled, in which case
    it maps phase name (:data:`PROFILE_PHASES`) → milliseconds.
    """

    __slots__ = (
        "times",
        "converged",
        "hit_terminal",
        "timed_out",
        "fault_times",
        "legit_counts",
        "observations",
        "max_runs",
        "profile",
    )

    def __init__(self, rows: int) -> None:
        self.times = np.zeros(rows, dtype=np.int64)
        self.converged = np.zeros(rows, dtype=bool)
        self.hit_terminal = np.zeros(rows, dtype=bool)
        self.timed_out = np.zeros(rows, dtype=bool)
        self.fault_times = np.full(rows, -1, dtype=np.int64)
        self.legit_counts = np.zeros(rows, dtype=np.int64)
        self.observations = np.zeros(rows, dtype=np.int64)
        self.max_runs = np.zeros(rows, dtype=np.int64)
        self.profile: dict[str, float] | None = None

    @property
    def stabilization_times(self) -> list[float]:
        """Converged rows' times, row order, as floats."""
        return [float(t) for t in self.times[self.converged]]


class BatchEngine:
    """Compiled encoding + tables for one system, reusable across runs.

    Compile once per system, then every sweep point's batch is pure
    array work.  The
    tables come from the process-wide cache
    (:func:`~repro.core.encoding.tables_for`), and ``encoding`` is
    theirs; ``max_entries`` bounds the class entries even on a cache
    hit (see :func:`~repro.core.encoding.compile_tables`).
    """

    def __init__(
        self,
        system: System,
        max_entries: int = DEFAULT_TABLE_BUDGET,
    ) -> None:
        self.system = system
        self.tables = tables_for(system, max_entries)
        self.encoding = self.tables.encoding

    def run(
        self,
        strategy: BatchSamplerStrategy,
        legitimacy: BatchLegitimacy,
        initial_codes: np.ndarray,
        max_steps: int,
        generator: np.random.Generator,
        fault=None,
        *,
        profile: bool = False,
    ) -> BatchRunResult:
        """One-point :meth:`lockstep` run of ``initial_codes``' trials.

        Semantics per trial match :func:`repro.core.simulate.run_until`:
        legitimacy is tested on the initial configuration (time 0) and
        after every step; an illegitimate terminal configuration retires
        the trial as censored; ``max_steps`` bounds the sampler calls.
        ``fault`` (a :class:`repro.stabilization.faults.CompiledFault`)
        injects one transient corruption event per trial; the scalar
        oracle (:class:`~repro.markov.montecarlo.MonteCarloRunner`
        ``engine="scalar"``) implements the identical timeline, so
        deterministic cells agree bit-for-bit.  ``profile=True``
        attaches per-phase millisecond totals to the result.
        """
        trials = initial_codes.shape[0]
        everyone = np.ones(1, dtype=bool)
        return self.lockstep(
            np.array(initial_codes, copy=True),
            np.zeros(trials, dtype=np.int64),
            np.full(trials, max_steps, dtype=np.int64),
            [(legitimacy, everyone)],
            [(strategy, everyone)],
            generator,
            faults=None if fault is None else [fault],
            profile=profile,
        )

    def run_with_fault(
        self,
        strategy: BatchSamplerStrategy,
        legitimacy: BatchLegitimacy,
        initial_codes: np.ndarray,
        max_steps: int,
        generator: np.random.Generator,
        fault,
    ) -> BatchRunResult:
        """:meth:`run` with one transient corruption event per trial."""
        return self.run(
            strategy, legitimacy, initial_codes, max_steps, generator, fault
        )

    def lockstep(
        self,
        codes: np.ndarray,
        point: np.ndarray,
        budget: np.ndarray,
        legit_groups: Sequence[tuple[BatchLegitimacy, np.ndarray]],
        strategy_groups: Sequence[tuple[BatchSamplerStrategy, np.ndarray]],
        generator: np.random.Generator,
        faults: Sequence | None = None,
        profile: bool = False,
    ) -> BatchRunResult:
        """Advance every row of ``codes`` in lockstep until it retires.

        Each row is one trial: ``point[r]`` is its point id and
        ``budget[r]`` its step budget.  A point's rows are contiguous
        and in trial order.  ``legit_groups`` and ``strategy_groups``
        pair one vectorized legitimacy or scheduler strategy with a
        boolean mask over point ids; points sharing a signature share
        one call per step.  ``faults`` holds one
        :class:`~repro.stabilization.faults.CompiledFault` or ``None``
        per point, or is ``None`` when no point has a fault.  ``codes``
        is consumed.

        Per-row semantics match :func:`repro.core.simulate.run_until`:
        legitimacy is tested at time 0 and after every step, legitimacy
        wins over terminal retirement, an illegitimate terminal row
        retires as censored, and a row whose budget is spent retires as
        timed out, after retirement and before the scheduler draw.
        Faulted points follow the fault timeline of
        :mod:`repro.stabilization.faults`: a pending fault blocks
        convergence retirement, a pending fixed-step fault parks terminal
        rows in place (the corruption may re-enable them; time still
        passes), and every observation feeds the availability and
        excursion counters.  The corruption itself is one scatter into
        the code matrix.  Each step is gather → legitimacy → fault
        trigger → retire (one classification, one compaction) → draw,
        for every row; ``profile=True`` attaches per-phase millisecond
        totals to the result.
        """
        result = BatchRunResult(codes.shape[0])
        codes = np.ascontiguousarray(codes)  # ``sample`` writes in place
        timing = (
            {phase: 0.0 for phase in PROFILE_PHASES} if profile else None
        )
        tables = self.tables
        times = result.times
        converged = result.converged
        hit_terminal = result.hit_terminal
        timed_out = result.timed_out
        fault_times = result.fault_times
        active = np.arange(codes.shape[0])

        any_fault = faults is not None
        pending_count = 0
        if any_fault:
            # ``step_of_point`` encodes each point's trigger: -2 no fault,
            # -1 at-convergence, >= 0 fixed step; ``offsets`` maps a row
            # to its trial index within its point.
            step_of_point = np.array(
                [
                    -2
                    if fault is None
                    else (-1 if fault.at_convergence else fault.step)
                    for fault in faults
                ],
                dtype=np.int64,
            )
            offsets = np.searchsorted(point, np.arange(len(faults)))
            # Aligned with ``active`` and compacted together with it; the
            # observation counters (one row each: observations, legitimate
            # observations, current illegitimate run, its peak) are
            # scattered into the result vectors only when rows retire,
            # keeping the per-step bookkeeping free of fancy indexing.
            pending = step_of_point[point] != -2
            pending_count = int(pending.sum())
            counters = np.zeros((4, active.size), dtype=np.int64)

        def evaluate_legit(
            codes_m: np.ndarray, enabled_m: np.ndarray, point_m: np.ndarray
        ) -> np.ndarray:
            # Homogeneous runs (one legitimacy/sampler signature — every
            # one-point run and the Q1/Q2 sweep shape) skip the row
            # masking entirely: dispatch cost is only paid when points
            # actually differ.
            if len(legit_groups) == 1:
                return legit_groups[0][0].evaluate(codes_m, enabled_m, self)
            legit_m = np.zeros(len(point_m), dtype=bool)
            for legitimacy, mask in legit_groups:
                rows = mask[point_m]
                if rows.any():
                    legit_m[rows] = legitimacy.evaluate(
                        codes_m[rows], enabled_m[rows], self
                    )
            return legit_m

        def choose(
            enabled_m: np.ndarray, point_m: np.ndarray
        ) -> np.ndarray:
            if len(strategy_groups) == 1:
                return strategy_groups[0][0].choose(enabled_m, generator)
            movers_m = np.zeros_like(enabled_m)
            for strategy, mask in strategy_groups:
                rows = mask[point_m]
                if rows.any():
                    movers_m[rows] = strategy.choose(
                        enabled_m[rows], generator
                    )
            return movers_m

        # Rows only leave, so no budget runs out before the smallest.
        deadline = int(budget.min()) if budget.size else 0
        tick = time.perf_counter if timing is not None else None
        step = 0
        while active.size:
            if tick:
                t0 = tick()
            keys = tables.pack(codes)
            enabled = tables.enabled(keys)
            if tick:
                t1 = tick()
                timing["gather"] += t1 - t0
            legit = evaluate_legit(codes, enabled, point)
            if tick:
                t2 = tick()
                timing["legitimacy"] += t2 - t1
            if pending_count:
                trigger = step_of_point[point]
                fire = pending & (
                    (trigger == step) | ((trigger == -1) & legit)
                )
                if fire.any():
                    for member, fault in enumerate(faults):
                        if fault is None:
                            continue
                        rows = np.flatnonzero(fire & (point == member))
                        if not rows.size:
                            continue
                        trial_ids = active[rows] - offsets[member]
                        fault.scatter(codes, rows, trial_ids)
                        fault_times[active[rows]] = step
                    pending[fire] = False
                    # Re-derive the corrupted rows' state post-corruption.
                    rows = np.flatnonzero(fire)
                    pending_count -= rows.size
                    keys[rows] = tables.pack(codes[rows])
                    enabled[rows] = tables.enabled(keys[rows])
                    legit[rows] = evaluate_legit(
                        codes[rows], enabled[rows], point[rows]
                    )
            if any_fault:
                observations, legit_seen, run, peak = counters
                observations += 1
                legit_seen += legit
                run += 1
                run[legit] = 0
                np.maximum(peak, run, out=peak)
                done = legit & ~pending if pending_count else legit
            else:
                done = legit
            # One classification, one compaction: converged rows first;
            # then illegitimate terminal rows, censored (they can never
            # converge) unless a pending fixed-step fault may re-enable
            # them, in which case they idle in place (time still passes);
            # then rows whose budget is spent.
            terminal = ~enabled.any(axis=1)
            frozen = None
            if pending_count:
                frozen = terminal & pending & (trigger >= 0)
                terminal &= ~frozen
            gone = done | terminal
            if step >= deadline:
                over = budget <= step
                gone |= over
            if gone.any():
                times[active[done]] = step
                converged[active[done]] = True
                hit_terminal[active[terminal & ~done]] = True
                if step >= deadline:
                    timed_out[active[over & ~(done | terminal)]] = True
                keep = ~gone
                if any_fault:
                    retired = active[gone]
                    result.observations[retired] = counters[0, gone]
                    result.legit_counts[retired] = counters[1, gone]
                    result.max_runs[retired] = counters[3, gone]
                    counters = counters[:, keep]
                    pending = pending[keep]
                    if pending_count:
                        # Rows can retire with their fault still pending
                        # (illegitimate terminal, or out of budget).
                        pending_count = int(pending.sum())
                active = active[keep]
                if not active.size:
                    break
                codes = codes[keep]
                point = point[keep]
                budget = budget[keep]
                keys = keys[keep]
                enabled = enabled[keep]
                if frozen is not None:
                    frozen = frozen[keep]
            if tick:
                t3 = tick()
                timing["retire"] += t3 - t2
            if frozen is not None and frozen.any():
                move = ~frozen
                movers = np.zeros_like(enabled)
                movers[move] = choose(enabled[move], point[move])
            else:
                movers = choose(enabled, point)
            tables.sample(codes, keys, movers, generator)
            step += 1
            if tick:
                timing["draw"] += tick() - t3
        if timing is not None:
            result.profile = {
                phase: seconds * 1000.0 for phase, seconds in timing.items()
            }
        return result


def encode_initials(
    encoding: StateEncoding,
    initial_configurations: Sequence[Configuration],
    trials: int,
) -> np.ndarray:
    """Tile explicit initial configurations over the trial axis, matching
    the scalar path's ``trial % len(initial_configurations)`` cycling."""
    base = encoding.encode_batch(list(initial_configurations))
    repeats = -(-trials // base.shape[0])  # ceil division
    return np.tile(base, (repeats, 1))[:trials]
