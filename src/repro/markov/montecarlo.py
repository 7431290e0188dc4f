"""Monte-Carlo estimation of stabilization times.

Exact hitting-time analysis needs the full chain in memory; for larger
networks we instead sample executions under a scheduler sampler and
measure the number of steps until the specification's legitimate predicate
first holds.  Initial configurations are drawn uniformly from ``C``
(the paper's "arbitrary initial configuration") unless given explicitly.

Two execution engines share this interface (selected per runner or per
call via ``engine``):

* ``"scalar"`` — one :class:`repro.core.simulate.Cursor` trial loop
  over the reference :class:`~repro.core.system.System`, the scalar twin
  of :meth:`BatchEngine.lockstep <repro.markov.batch.BatchEngine.lockstep>`
  (same fault timeline, rounds counted as it steps).  Supports every
  sampler, round counting, and is the equivalence oracle for the batch
  path.
* ``"batch"`` — all trials advance in lockstep as a ``(trials ×
  processes)`` code matrix through :class:`repro.markov.batch.BatchEngine`
  (same sampling distributions, NumPy random stream).  Needs a
  vectorizable sampler and no round measurement.
* ``"auto"`` (default) — batch when supported, scalar otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.stats import SummaryStats, summarize
from repro.core.configuration import Configuration
from repro.core.simulate import Cursor, SchedulerSampler, _validate_subset
from repro.core.system import System
from repro.errors import MarkovError, ModelError
from repro.markov.batch import (
    BatchEngine,
    BatchLegitimacy,
    BatchRunResult,
    batch_strategy_for,
    compile_legitimacy,
    encode_initials,
)
from repro.random_source import RandomSource
from repro.stabilization.faults import CompiledFault, FaultPlan, compile_fault

__all__ = ["MonteCarloResult", "MonteCarloRunner", "TrialOutcomes",
           "TrialSink", "estimate_stabilization_time",
           "fault_result_from_arrays", "lockstep_point_result",
           "random_configuration", "random_configurations"]

#: Accepted ``engine`` values.
ENGINES = ("auto", "batch", "scalar")


def _domain_table(system: System) -> list[list[tuple[tuple, int]]]:
    """Per-process ``(domain, size)`` pairs, hoisted for repeated draws."""
    return [
        [(spec.domain, spec.size) for spec in layout.specs]
        for layout in system.layouts
    ]


def _draw_configuration(
    domains: list[list[tuple[tuple, int]]], rng: RandomSource
) -> Configuration:
    """One uniform configuration from a precomputed domain table."""
    return tuple(
        tuple(domain[rng.randrange(size)] for domain, size in specs)
        for specs in domains
    )


def random_configurations(
    system: System, rng: RandomSource, count: int
) -> list[Configuration]:
    """``count`` uniform random configurations of the full space ``C``.

    The batched form used by both engines: per-spec domain/size lookups
    are hoisted out of the trial loop, and the draw order (trial-major,
    then process, then variable) is exactly ``count`` successive
    :func:`random_configuration` calls — identical seeds keep producing
    identical initial configurations.
    """
    domains = _domain_table(system)
    return [_draw_configuration(domains, rng) for _ in range(count)]


def random_configuration(system: System, rng: RandomSource) -> Configuration:
    """Uniform random configuration of the full space ``C``."""
    return _draw_configuration(_domain_table(system), rng)


@dataclass(frozen=True)
class TrialOutcomes:
    """Per-trial outcome vectors of one estimate/sweep point, as emitted
    to a streaming :data:`TrialSink`.

    ``times[t]`` is meaningful only where ``converged[t]`` (censored
    trials keep a zero there, matching the lockstep engines).
    ``fault_times`` is present only for fault-injected runs (``-1``
    marks a fault that never fired) and ``rounds`` only when round
    counting was requested (``NaN`` for censored trials).  The vectors
    are what the persistence tier (:mod:`repro.store`) serializes, so
    their dtypes — not Python floats — are the contract: a sink sees
    exactly what the engine computed, before any summary statistics.
    """

    point: int
    label: str | None
    times: np.ndarray
    converged: np.ndarray
    timed_out: np.ndarray
    hit_terminal: np.ndarray
    fault_times: np.ndarray | None = None
    rounds: np.ndarray | None = None

    @property
    def trials(self) -> int:
        """Number of trials in this emission."""
        return len(self.times)


#: A streaming consumer of per-trial outcomes: called exactly once per
#: point, after that point's trials all retired.  Passing a sink (and
#: ``keep_samples=False``) lets campaign-scale runs persist trial
#: vectors without the result object holding every sample in memory too.
TrialSink = Callable[[TrialOutcomes], None]


@dataclass(frozen=True)
class MonteCarloResult:
    """Stabilization-time sample summary.

    ``censored`` counts trials that did *not* converge; their (unknown,
    larger) times are not included in ``stats`` — a non-zero censored
    count therefore flags an unreliable estimate.  Censoring splits into
    ``timed_out`` (the trial exhausted ``max_steps``; surfaced as
    :attr:`timeout_rate` in :meth:`row` so budget exhaustion is never
    silently folded into the mean) and the remainder, trials retired in
    an illegitimate *terminal* configuration (which no budget could
    save).  ``round_stats`` (when round counting was requested)
    summarizes the *rounds* to stabilization, the scheduler-independent
    time measure.  ``samples`` holds the converged trials' raw
    stabilization times in trial order — the cross-engine conformance
    tier (``tests/test_engine_conformance.py``) feeds them to its KS
    tests; ``row()`` deliberately leaves them out of tables.  Estimates
    made with ``keep_samples=False`` carry ``samples=None`` (and
    ``recovery_samples=None``) — the summary statistics survive, the
    per-trial arrays go to the :data:`TrialSink` (or nowhere).

    Fault-injected runs (:class:`~repro.stabilization.faults.FaultPlan`)
    additionally report the re-convergence metrics: ``faulted`` counts
    trials whose fault actually fired, ``recovery_stats``/
    ``recovery_samples`` summarize post-fault recovery times
    (retirement step − fault step, converged faulted trials only),
    ``availability`` is the mean per-trial fraction of *legitimate*
    observations over the whole run, and ``max_excursion`` the longest
    contiguous run of illegitimate observations seen in any trial.
    """

    trials: int
    converged: int
    censored: int
    stats: SummaryStats | None
    round_stats: SummaryStats | None = None
    samples: tuple[float, ...] | None = None
    timed_out: int = 0
    faulted: int = 0
    recovery_stats: SummaryStats | None = None
    recovery_samples: tuple[float, ...] | None = None
    availability: float | None = None
    max_excursion: int | None = None

    @property
    def convergence_rate(self) -> float:
        """Fraction of trials that converged within the budget."""
        return self.converged / self.trials if self.trials else 0.0

    @property
    def timeout_rate(self) -> float:
        """Fraction of trials that exhausted ``max_steps`` unconverged."""
        return self.timed_out / self.trials if self.trials else 0.0

    def row(self) -> dict[str, object]:
        """Dict form for tables (round statistics prefixed ``round_``,
        re-convergence statistics prefixed ``recovery_``)."""
        base: dict[str, object] = {
            "trials": self.trials,
            "converged": self.converged,
            "censored": self.censored,
            "timeout_rate": round(self.timeout_rate, 4),
        }
        if self.stats is not None:
            base.update(self.stats.row())
        if self.round_stats is not None:
            base.update(
                {
                    f"round_{key}": value
                    for key, value in self.round_stats.row().items()
                }
            )
        if self.availability is not None:
            base["faulted"] = self.faulted
            base["availability"] = round(self.availability, 4)
            base["max_excursion"] = self.max_excursion
        if self.recovery_stats is not None:
            base.update(
                {
                    f"recovery_{key}": value
                    for key, value in self.recovery_stats.row().items()
                }
            )
        return base


def fault_result_from_arrays(
    trials: int,
    times: np.ndarray,
    converged: np.ndarray,
    hit_terminal: np.ndarray,
    timed_out: np.ndarray,
    fault_times: np.ndarray,
    legit_counts: np.ndarray,
    observations: np.ndarray,
    max_runs: np.ndarray,
    keep_samples: bool = True,
) -> MonteCarloResult:
    """Assemble a fault-injected :class:`MonteCarloResult` from the
    per-trial outcome vectors of the fault timeline.

    Every engine — the scalar trial loop, lockstep batch, fused sweep —
    reaches it through :func:`lockstep_point_result`, so the derived
    floating-point metrics (availability, recovery statistics) are
    bit-identical whenever the integer vectors are.  With
    ``keep_samples=False`` the raw per-trial tuples are dropped from the
    result (summaries survive).
    """
    samples = [float(t) for t in times[converged]]
    fired = fault_times >= 0
    recovered = converged & fired
    recovery = [float(t) for t in (times - fault_times)[recovered]]
    return MonteCarloResult(
        trials=trials,
        converged=len(samples),
        censored=trials - len(samples),
        stats=summarize(samples) if samples else None,
        round_stats=None,
        samples=tuple(samples) if keep_samples else None,
        timed_out=int(timed_out.sum()),
        faulted=int(fired.sum()),
        recovery_stats=summarize(recovery) if recovery else None,
        recovery_samples=tuple(recovery) if keep_samples else None,
        availability=float(np.mean(legit_counts / observations)),
        max_excursion=int(max_runs.max()) if max_runs.size else 0,
    )


def lockstep_point_result(
    outcome: BatchRunResult,
    rows: slice,
    faulted: bool,
    keep_samples: bool = True,
    sink: TrialSink | None = None,
    point: int = 0,
    label: str | None = None,
    rounds: np.ndarray | None = None,
) -> MonteCarloResult:
    """One point's :class:`MonteCarloResult` from its ``rows`` of a
    run's per-trial outcome vectors, emitting them to ``sink`` first.

    The one reduction of every engine: :meth:`MonteCarloRunner
    .estimate`'s scalar trial loop and batch path (one point, every row)
    and the fused sweep engine (one row slice per point), so all report
    identical results for identical vectors.  ``rounds`` — per-trial
    completed rounds, ``NaN`` for censored trials, counted only by the
    scalar loop — feeds ``round_stats`` and :attr:`TrialOutcomes.rounds`.
    """
    times = outcome.times[rows]
    converged = outcome.converged[rows]
    hit_terminal = outcome.hit_terminal[rows]
    timed_out = outcome.timed_out[rows]
    fault_times = outcome.fault_times[rows] if faulted else None
    if rounds is not None:
        rounds = rounds[rows]
    if sink is not None:
        sink(
            TrialOutcomes(
                point=point,
                label=label,
                times=times,
                converged=converged,
                timed_out=timed_out,
                hit_terminal=hit_terminal,
                fault_times=fault_times,
                rounds=rounds,
            )
        )
    trials = len(times)
    if faulted:
        return fault_result_from_arrays(
            trials,
            times,
            converged,
            hit_terminal,
            timed_out,
            fault_times,
            outcome.legit_counts[rows],
            outcome.observations[rows],
            outcome.max_runs[rows],
            keep_samples,
        )
    samples = [float(t) for t in times[converged]]
    return MonteCarloResult(
        trials=trials,
        converged=len(samples),
        censored=trials - len(samples),
        stats=summarize(samples) if samples else None,
        round_stats=(
            summarize([float(r) for r in rounds[converged]])
            if rounds is not None and samples
            else None
        ),
        samples=tuple(samples) if keep_samples else None,
        timed_out=int(timed_out.sum()),
    )


class MonteCarloRunner:
    """Batched multi-replica Monte-Carlo driver for one system.

    The front door for stabilization-time sampling: construct one runner
    per system, then call :meth:`estimate` for a single sweep point, or
    :meth:`batch` for several sweep points on this system (sampler,
    trial, and budget variants) — engine choice, table sharing, and
    legitimacy compilation are handled here so experiment runners never
    touch the execution tiers directly.  Multi-*system* sweeps belong to
    :class:`repro.markov.sweep_engine.SweepRunner`, which :meth:`batch`
    delegates to.

    All repeated :meth:`estimate` calls on the same system share one
    compiled :class:`~repro.markov.batch.BatchEngine`, whose tables come
    from the process-wide cache, so guard and outcome statements execute
    once per class neighborhood rather than once per simulated step.
    The scalar engine runs every step through the system itself.

    ``engine`` sets the runner-wide default (overridable per call):

    * ``"auto"`` — the vectorized lockstep engine whenever the sampler
      has a batch strategy, rounds are not measured, and the
      neighborhood tables fit the compilation budget; scalar otherwise;
    * ``"batch"`` — demand the lockstep engine (raising
      :class:`MarkovError` when unsupported);
    * ``"scalar"`` — force the loop-per-trial oracle path, which
      consumes the same seeded random stream as the pre-batch-engine
      code and is the distributional reference for the batch tier (the
      ``engine="auto"`` selection rules are spelled out in
      ``docs/architecture.md``).
    """

    def __init__(
        self,
        system: System,
        engine: str = "auto",
        batch_engine: BatchEngine | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise MarkovError(
                f"unknown engine {engine!r}; known: {ENGINES}"
            )
        self.system = system
        self.engine = engine
        # ``batch_engine`` lets a multi-system driver (SweepRunner)
        # share one compiled engine instead of recompiling here.
        self._batch_engine: BatchEngine | None = batch_engine
        self._batch_compile_error: ModelError | None = None

    def batch_engine(self) -> BatchEngine:
        """The lazily compiled batch engine (shared across estimates).

        A failed compilation (neighborhood space over budget) is cached
        too, so repeated ``engine="auto"`` estimates on an uncompilable
        system fall back to scalar without rebuilding the encoding."""
        if self._batch_engine is None:
            if self._batch_compile_error is not None:
                raise self._batch_compile_error
            try:
                self._batch_engine = BatchEngine(self.system)
            except ModelError as error:
                self._batch_compile_error = error
                raise
        return self._batch_engine

    def estimate(
        self,
        sampler: SchedulerSampler,
        legitimate: Callable[[Configuration], bool],
        trials: int,
        max_steps: int,
        rng: RandomSource,
        initial_configurations: Sequence[Configuration] | None = None,
        measure_rounds: bool = False,
        engine: str | None = None,
        batch_legitimate: BatchLegitimacy | None = None,
        fault: FaultPlan | None = None,
        keep_samples: bool = True,
        sink: TrialSink | None = None,
    ) -> MonteCarloResult:
        """Sample stabilization times over random starts/scheduler draws.

        With ``measure_rounds=True`` each converged trial additionally
        reports its completed-round count (see
        :mod:`repro.analysis.rounds`), which makes measurements comparable
        across scheduler families.  Rounds are counted on the scalar
        cursor as it steps (no trace is kept), so they select the scalar
        engine.

        ``batch_legitimate`` supplies a compiled code-matrix predicate for
        the batch engine (e.g.
        :class:`~repro.markov.batch.EnabledCountLegitimacy`); without it
        the batch path falls back to decoding rows through ``legitimate``.

        ``fault`` injects one seeded transient corruption per trial (see
        :class:`~repro.stabilization.faults.FaultPlan`); the result then
        carries the re-convergence metrics.  Both engines implement the
        same fault timeline, so cross-engine equivalence holds under
        corruption too.

        ``keep_samples=False`` drops the per-trial sample tuples from
        the returned result (summary statistics are unaffected), and
        ``sink`` streams the full per-trial outcome vectors to a
        :data:`TrialSink` once all trials retired — together they let a
        campaign persist every trial without the estimate holding the
        arrays in memory twice.  Neither knob perturbs the random
        streams: engine selection and trial execution are identical
        with or without them.
        """
        if trials < 1:
            raise MarkovError("need at least one trial")
        if max_steps < 0:
            raise MarkovError("max_steps must be >= 0")
        if initial_configurations is not None:
            if not initial_configurations:
                raise MarkovError("need at least one initial configuration")
            # Every engine rejects a foreign initial the same way.
            for configuration in initial_configurations:
                self.system.check_configuration(configuration)
        engine = engine if engine is not None else self.engine
        if engine not in ENGINES:
            raise MarkovError(
                f"unknown engine {engine!r}; known: {ENGINES}"
            )
        compiled_fault: CompiledFault | None = None
        if fault is not None:
            if measure_rounds:
                raise MarkovError(
                    "round counting is not supported with fault injection"
                )
            compiled_fault = compile_fault(fault, self.system, trials)
        if engine != "scalar" and self._batch_supported(
            sampler, measure_rounds, require=engine == "batch"
        ):
            return self._estimate_batch(
                sampler,
                legitimate,
                trials,
                max_steps,
                rng,
                initial_configurations,
                batch_legitimate,
                compiled_fault,
                keep_samples,
                sink,
            )
        return self._estimate_scalar(
            sampler,
            legitimate,
            trials,
            max_steps,
            rng,
            initial_configurations,
            compiled_fault,
            measure_rounds,
            keep_samples,
            sink,
        )

    # ------------------------------------------------------------------
    # engine selection
    # ------------------------------------------------------------------
    def _batch_supported(
        self,
        sampler: SchedulerSampler,
        measure_rounds: bool,
        require: bool,
    ) -> bool:
        """Whether the lockstep engine can run this estimate.

        ``require=True`` (``engine="batch"``) raises instead of silently
        falling back; ``require=False`` (``engine="auto"``) degrades to
        scalar.
        """
        if measure_rounds:
            if require:
                raise MarkovError(
                    "rounds are counted on the scalar cursor; the batch"
                    " engine does not count them — use engine='scalar'"
                )
            return False
        if batch_strategy_for(sampler) is None:
            if require:
                raise MarkovError(
                    f"sampler {type(sampler).__name__} has no vectorized"
                    " strategy; register one or use engine='scalar'"
                )
            return False
        try:
            self.batch_engine()
        except ModelError:
            if require:
                raise
            return False
        return True

    # ------------------------------------------------------------------
    # the two engines
    # ------------------------------------------------------------------
    def _estimate_batch(
        self,
        sampler: SchedulerSampler,
        legitimate: Callable[[Configuration], bool],
        trials: int,
        max_steps: int,
        rng: RandomSource,
        initial_configurations: Sequence[Configuration] | None,
        batch_legitimate: BatchLegitimacy | None,
        fault: CompiledFault | None = None,
        keep_samples: bool = True,
        sink: TrialSink | None = None,
    ) -> MonteCarloResult:
        engine = self.batch_engine()
        if initial_configurations is not None:
            codes = encode_initials(
                engine.encoding, initial_configurations, trials
            )
        else:
            codes = engine.encoding.encode_batch(
                random_configurations(self.system, rng, trials)
            )
        legitimacy = compile_legitimacy(
            batch_legitimate if batch_legitimate is not None else legitimate
        )
        strategy = batch_strategy_for(sampler)
        assert strategy is not None  # _batch_supported vetted it
        outcome = engine.run(
            strategy,
            legitimacy,
            codes,
            max_steps,
            rng.numpy_generator(),
            fault=fault,
        )
        return lockstep_point_result(
            outcome, slice(None), fault is not None, keep_samples, sink
        )

    def _estimate_scalar(
        self,
        sampler: SchedulerSampler,
        legitimate: Callable[[Configuration], bool],
        trials: int,
        max_steps: int,
        rng: RandomSource,
        initial_configurations: Sequence[Configuration] | None,
        fault: CompiledFault | None,
        measure_rounds: bool,
        keep_samples: bool = True,
        sink: TrialSink | None = None,
    ) -> MonteCarloResult:
        """The loop-per-trial oracle: one :class:`Cursor` per trial.

        Follows the fault timeline of :mod:`repro.stabilization.faults`
        observation for observation, as :meth:`BatchEngine.lockstep`
        does (trigger → bookkeeping → retire converged → terminal →
        budget → step), so a deterministic sampler with explicit initials
        produces bit-identical per-trial outcome vectors.  Without a
        fault nothing is pending, which is exactly
        :func:`~repro.core.simulate.run_until`'s semantics and random
        stream: one lazy initial draw per trial, then one
        ``sampler.choose`` and one ``Cursor.advance`` per step.

        ``measure_rounds`` counts completed rounds as the loop steps —
        :func:`repro.analysis.rounds.round_boundaries` restated on the
        cursor: ``waiting`` starts as the processes enabled at the
        round's start, loses every mover and every process the step
        disabled, and when it empties a round completes and it restarts
        from the cursor's enabled set.
        """
        system = self.system
        outcome = BatchRunResult(trials)
        rounds = np.full(trials, np.nan) if measure_rounds else None
        at_convergence = fault is not None and fault.at_convergence
        domains = (
            _domain_table(system) if initial_configurations is None else None
        )
        for trial in range(trials):
            if initial_configurations is not None:
                initial = initial_configurations[
                    trial % len(initial_configurations)
                ]
            else:
                # Drawn lazily (one configuration per trial, interleaved
                # with the run's own consumption of ``rng``) so seeded
                # scalar runs reproduce pre-batch-engine results exactly.
                initial = _draw_configuration(domains, rng)
            cursor = Cursor(system, initial)
            pending = fault is not None
            waiting = set(cursor.enabled)
            completed = legit_seen = excursion = peak = step = 0
            while True:
                legit = bool(legitimate(cursor.configuration))
                if pending and (
                    legit if at_convergence else step == fault.step
                ):
                    cursor.reset(fault.corrupt(cursor.configuration, trial))
                    outcome.fault_times[trial] = step
                    pending = False
                    legit = bool(legitimate(cursor.configuration))
                if legit:
                    legit_seen += 1
                    excursion = 0
                else:
                    excursion += 1
                    peak = max(peak, excursion)
                if legit and not pending:
                    outcome.converged[trial] = True
                    outcome.times[trial] = step
                    if rounds is not None:
                        rounds[trial] = completed
                    break
                enabled = cursor.enabled
                # Illegitimate terminal: censored — unless a pending
                # fixed-step fault may re-enable the system, in which
                # case the trial idles in place (time still passes).
                if not enabled and not (pending and not at_convergence):
                    outcome.hit_terminal[trial] = True
                    break
                if step >= max_steps:
                    outcome.timed_out[trial] = True
                    break
                if enabled:
                    subset = list(
                        sampler.choose(
                            system, cursor.configuration, enabled, rng
                        )
                    )
                    _validate_subset(subset, enabled)
                    cursor.advance(subset, rng)
                    if rounds is not None:
                        waiting.difference_update(subset)
                        waiting.intersection_update(cursor.enabled)
                        if not waiting:
                            completed += 1
                            waiting = set(cursor.enabled)
                step += 1
            outcome.observations[trial] = step + 1
            outcome.legit_counts[trial] = legit_seen
            outcome.max_runs[trial] = peak
        return lockstep_point_result(
            outcome,
            slice(None),
            fault is not None,
            keep_samples,
            sink,
            rounds=rounds,
        )

    def batch(self, cases: Sequence[dict]) -> list[MonteCarloResult]:
        """Run several sweep points (kwargs of :meth:`estimate`) on the
        shared compiled tables, fused into one code matrix where possible.

        Each case is one sweep point on this runner's system; fusable
        cases are routed through
        :class:`repro.markov.sweep_engine.SweepRunner`, which stacks
        them into a single ``(Σ trials × processes)`` matrix over the
        shared compiled tables (per-row budgets, per-point legitimacy
        dispatch) instead of running one lockstep batch per case.

        Each fusable case's sweep seed is *drawn from its rng stream*
        (one ``randrange`` draw), so the rng object advances like the
        sequential path's would: repeated ``batch`` calls on the same
        rng objects produce fresh independent replications, and an rng
        partially consumed by earlier calls is never rewound to its
        seed.

        **Oracle escape hatch.**  A case falls back to a plain
        sequential :meth:`estimate` call — consuming its ``rng`` stream
        exactly as pre-fusion code did — when it cannot be expressed as
        a pure sweep point: round measurement, an explicit per-case
        ``engine`` override, a streaming ``sink`` or
        ``keep_samples=False``, one ``rng`` *object* shared between cases
        (the sequential path keeps those cases' streams consecutive),
        or a runner-wide ``engine="scalar"``.  Results always align
        with input order.
        """
        if self.engine == "scalar":
            return [self.estimate(**case) for case in cases]

        from repro.markov.sweep_engine import SweepPointSpec, SweepRunner

        rng_owners: dict[int, int] = {}
        for case in cases:
            rng = case.get("rng")
            if isinstance(rng, RandomSource):
                rng_owners[id(rng)] = rng_owners.get(id(rng), 0) + 1

        specs: list[tuple[int, SweepPointSpec]] = []
        results: dict[int, MonteCarloResult] = {}
        for index, case in enumerate(cases):
            fusable = (
                not case.get("measure_rounds")
                and case.get("engine") is None
                and case.get("sink") is None
                and case.get("keep_samples", True)
                and isinstance(case.get("rng"), RandomSource)
                and rng_owners[id(case["rng"])] == 1
            )
            if not fusable:
                results[index] = self.estimate(**case)
                continue
            initials = case.get("initial_configurations")
            specs.append(
                (
                    index,
                    SweepPointSpec(
                        system=self.system,
                        sampler=case["sampler"],
                        legitimate=case["legitimate"],
                        trials=case["trials"],
                        max_steps=case["max_steps"],
                        seed=case["rng"].randrange(2**62),
                        batch_legitimate=case.get("batch_legitimate"),
                        initial_configurations=(
                            tuple(initials) if initials is not None else None
                        ),
                        # Positional labels keep value-equal cases (a
                        # legal pre-fusion input) distinct under the
                        # sweep runner's duplicate-point check.
                        label=f"batch-case-{index}",
                        fault=case.get("fault"),
                    ),
                )
            )
        if specs:
            runner = SweepRunner(
                engine="fused" if self.engine == "batch" else "auto"
            )
            # Share this runner's compiled engine — or its cached
            # compilation *failure*, so an over-budget system is not
            # re-enumerated on every batch() call.
            runner.adopt_system(
                self.system,
                batch_engine=(
                    self._batch_engine
                    if self._batch_engine is not None
                    else self._batch_compile_error
                ),
            )
            for (index, _), result in zip(
                specs, runner.run([spec for _, spec in specs])
            ):
                results[index] = result
        return [results[index] for index in range(len(cases))]


def estimate_stabilization_time(
    system: System,
    sampler: SchedulerSampler,
    legitimate: Callable[[Configuration], bool],
    trials: int,
    max_steps: int,
    rng: RandomSource,
    initial_configurations: Sequence[Configuration] | None = None,
    measure_rounds: bool = False,
    engine: str = "auto",
    batch_legitimate: BatchLegitimacy | None = None,
    fault: FaultPlan | None = None,
) -> MonteCarloResult:
    """Sample stabilization times over random starts and scheduler draws.

    Thin wrapper over one :class:`MonteCarloRunner` call.
    """
    return MonteCarloRunner(system).estimate(
        sampler,
        legitimate,
        trials=trials,
        max_steps=max_steps,
        rng=rng,
        initial_configurations=initial_configurations,
        measure_rounds=measure_rounds,
        engine=engine,
        batch_legitimate=batch_legitimate,
        fault=fault,
    )
