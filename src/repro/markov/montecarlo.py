"""Monte-Carlo estimation of stabilization times.

Exact hitting-time analysis needs the full chain in memory; for larger
networks we instead sample executions under a scheduler sampler and
measure the number of steps until the specification's legitimate predicate
first holds.  Initial configurations are drawn uniformly from ``C``
(the paper's "arbitrary initial configuration") unless given explicitly.

Two execution engines share this interface (selected per call via
``engine``):

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

This module holds the one per-point path both front doors take:
:func:`check_point` (the point checks), :func:`resolve_engine` (which
points run lockstep, on which compiled engine) and
:func:`estimate_lockstep`/:func:`estimate_scalar` (the two engines).
:meth:`MonteCarloRunner.estimate` calls them for one point, and
:class:`~repro.markov.sweep_engine.SweepRunner` for every point of a
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.analysis.stats import SummaryStats, summarize
from repro.core.configuration import Configuration
from repro.core.encoding import DEFAULT_TABLE_BUDGET
from repro.core.simulate import Cursor, SchedulerSampler, _validate_subset
from repro.core.system import System
from repro.errors import MarkovError, ModelError
from repro.markov.batch import (
    BatchEngine,
    BatchLegitimacy,
    BatchRunResult,
    EnabledCountLegitimacy,
    batch_strategy_for,
    compile_legitimacy,
    encode_initials,
)
from repro.random_source import RandomSource
from repro.schedulers.samplers import (
    BernoulliSampler,
    CentralRandomizedSampler,
    DistributedRandomizedSampler,
    SynchronousSampler,
)
from repro.stabilization.faults import CompiledFault, FaultPlan, compile_fault

__all__ = ["MonteCarloPoint", "MonteCarloResult", "MonteCarloRunner",
           "TrialOutcomes", "TrialSink", "check_point", "estimate_lockstep",
           "estimate_scalar", "fault_result_from_arrays",
           "lockstep_point_result", "random_configuration",
           "random_configurations", "resolve_engine"]

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

    The one reduction of every engine: the scalar trial loop (one point,
    every row) and the lockstep engine (one row slice per point), so
    all report identical results for identical vectors.  ``rounds`` — per-trial
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


class MonteCarloPoint(NamedTuple):
    """One point of a Monte-Carlo run as the engines read it: everything
    but the system and the random source.

    ``fault`` is already compiled for the point's ``trials``
    (:func:`~repro.stabilization.faults.compile_fault`); ``index`` and
    ``label`` stamp the :class:`TrialOutcomes` sent to a sink.
    """

    sampler: SchedulerSampler
    legitimate: Callable[[Configuration], bool]
    trials: int
    max_steps: int
    initial_configurations: Sequence[Configuration] | None = None
    batch_legitimate: BatchLegitimacy | None = None
    fault: CompiledFault | None = None
    index: int = 0
    label: str | None = None


# ----------------------------------------------------------------------
# the point checks and the engine resolution
# ----------------------------------------------------------------------
def check_point(
    system: System,
    trials: int,
    max_steps: int,
    initial_configurations: Sequence[Configuration] | None,
    fault: FaultPlan | None,
    measure_rounds: bool = False,
    where: str = "",
) -> None:
    """Reject a malformed point before any engine is chosen.

    :meth:`MonteCarloRunner.estimate` and
    :class:`~repro.markov.sweep_engine.SweepRunner` both run these
    checks, so no engine accepts a point another refuses: explicit
    initials must be configurations of ``system``
    (:meth:`~repro.core.system.System.check_configuration`, whose
    message every engine then raises).  ``where`` prefixes the
    messages (a sweep names the point's position).
    """
    if trials < 1:
        raise MarkovError(f"{where}need at least one trial")
    if max_steps < 0:
        raise MarkovError(f"{where}max_steps must be >= 0")
    if initial_configurations is not None:
        if not initial_configurations:
            raise MarkovError(
                f"{where}need at least one initial configuration"
            )
        for configuration in initial_configurations:
            system.check_configuration(configuration)
    if fault is not None:
        if not isinstance(fault, FaultPlan):
            raise MarkovError(
                f"{where}fault is {type(fault).__name__}, expected"
                " FaultPlan"
            )
        if measure_rounds:
            raise MarkovError(
                "round counting is not supported with fault injection"
            )


def resolve_engine(
    system: System,
    samplers: Sequence[SchedulerSampler],
    engine: str,
    table_budget: int = DEFAULT_TABLE_BUDGET,
    measure_rounds: bool = False,
) -> tuple[list[bool], BatchEngine | None]:
    """Which of ``system``'s points run lockstep (one flag per sampler),
    and the compiled engine they share (``None`` when none does).

    * ``engine="scalar"`` sends every point to the scalar loop;
    * ``"auto"`` runs a point lockstep when its sampler has a vectorized
      strategy, rounds are not measured and the tables fit
      ``table_budget``, and falls back to scalar otherwise;
    * any other policy demands the lockstep engine for every point and
      raises :class:`MarkovError` (or the budget's
      :class:`~repro.errors.ModelError`) when one cannot take it.

    Nothing caches a failed compilation: the budget check raises before
    any entry is resolved, and the scalar loop that follows costs far
    more.
    """
    scalar = [False] * len(samplers)
    if engine == "scalar":
        return scalar, None
    require = engine != "auto"
    if measure_rounds:
        if require:
            raise MarkovError(
                "rounds are counted on the scalar cursor; the batch"
                " engine does not count them — use engine='scalar'"
            )
        return scalar, None
    vectorized = [
        batch_strategy_for(sampler) is not None for sampler in samplers
    ]
    if require and not all(vectorized):
        refused = samplers[vectorized.index(False)]
        raise MarkovError(
            f"sampler {type(refused).__name__} has no vectorized"
            " strategy; use engine='scalar'"
        )
    if not any(vectorized):
        return scalar, None
    try:
        compiled = BatchEngine(system, table_budget)
    except ModelError:
        if require:
            raise
        return scalar, None
    return vectorized, compiled


# ----------------------------------------------------------------------
# the two engines
# ----------------------------------------------------------------------
def _strategy_signature(point: MonteCarloPoint) -> tuple:
    """Dispatch key: points with equal signatures share one vectorized
    ``choose`` call per lockstep step.  Only the four exact built-in
    sampler types have a strategy (:func:`batch_strategy_for` looks up
    the exact type, so a subclass has none and never runs lockstep);
    each keys on its parameters."""
    sampler_type = type(point.sampler)
    if sampler_type is SynchronousSampler:
        return ("synchronous",)
    if sampler_type is CentralRandomizedSampler:
        return ("central",)
    if sampler_type is BernoulliSampler:
        return ("coin", point.sampler._p)
    # Vetted by resolve_engine: the last type with a strategy.
    assert sampler_type is DistributedRandomizedSampler
    return ("coin", 0.5)


def _legitimacy_signature(point: MonteCarloPoint) -> tuple:
    """Dispatch key for legitimacy: equal keys share one evaluation."""
    batch = point.batch_legitimate
    if isinstance(batch, EnabledCountLegitimacy):
        return ("enabled-count", batch.count)
    if batch is not None:
        return ("batch", id(batch))
    return ("predicate", id(point.legitimate))


def _dispatch_groups(
    points: Sequence[MonteCarloPoint],
    signature: Callable[[MonteCarloPoint], tuple],
    compile_one: Callable[[MonteCarloPoint], object],
) -> list[tuple[object, np.ndarray]]:
    """One ``(compiled form, member mask)`` pair per distinct
    ``signature`` among ``points``, in first-seen order."""
    members: dict[tuple, list[int]] = {}
    for member, point in enumerate(points):
        members.setdefault(signature(point), []).append(member)
    groups = []
    for rows in members.values():
        mask = np.zeros(len(points), dtype=bool)
        mask[rows] = True
        groups.append((compile_one(points[rows[0]]), mask))
    return groups


def estimate_lockstep(
    engine: BatchEngine,
    points: Sequence[MonteCarloPoint],
    sources: Sequence[RandomSource],
    generator_source: RandomSource | None = None,
    keep_samples: bool = True,
    sink: TrialSink | None = None,
) -> list[MonteCarloResult]:
    """Advance ``points`` in one lockstep code matrix on ``engine``;
    results align with ``points``.

    A point without explicit initials draws them from its entry of
    ``sources``, all at once, before any step.  The lockstep draws then
    come from ``generator_source``'s NumPy generator, or from the first
    point's source when it is ``None`` — so a one-point run consumes a
    single stream: its initials, then its steps.  Every row carries its
    point id and step budget, and points sharing a legitimacy or
    sampler signature share one vectorized call per step
    (:meth:`BatchEngine.lockstep
    <repro.markov.batch.BatchEngine.lockstep>`).
    """
    encoding = engine.encoding
    codes = np.concatenate(
        [
            encode_initials(
                encoding, point.initial_configurations, point.trials
            )
            if point.initial_configurations is not None
            else encoding.encode_batch(
                random_configurations(engine.system, source, point.trials)
            )
            for point, source in zip(points, sources)
        ],
        axis=0,
    )
    counts = np.array([point.trials for point in points], dtype=np.int64)
    budget = np.repeat(
        np.array([point.max_steps for point in points], dtype=np.int64),
        counts,
    )
    legit_groups = _dispatch_groups(
        points,
        _legitimacy_signature,
        lambda point: compile_legitimacy(
            point.batch_legitimate
            if point.batch_legitimate is not None
            else point.legitimate
        ),
    )
    strategy_groups = _dispatch_groups(
        points,
        _strategy_signature,
        lambda point: batch_strategy_for(point.sampler),
    )
    source = generator_source if generator_source is not None else sources[0]
    faults = [point.fault for point in points]
    outcome = engine.lockstep(
        codes,
        np.repeat(np.arange(len(points)), counts),
        budget,
        legit_groups,
        strategy_groups,
        source.numpy_generator(),
        faults=faults if any(f is not None for f in faults) else None,
    )
    results = []
    start = 0
    for point, count in zip(points, counts.tolist()):
        results.append(
            lockstep_point_result(
                outcome,
                slice(start, start + count),
                point.fault is not None,
                keep_samples,
                sink,
                point.index,
                point.label,
            )
        )
        start += count
    return results


def estimate_scalar(
    system: System,
    point: MonteCarloPoint,
    rng: RandomSource,
    measure_rounds: bool = False,
    keep_samples: bool = True,
    sink: TrialSink | None = None,
) -> MonteCarloResult:
    """The loop-per-trial oracle: one :class:`Cursor` per trial.

    Follows the fault timeline of :mod:`repro.stabilization.faults`
    observation for observation, as :meth:`BatchEngine.lockstep
    <repro.markov.batch.BatchEngine.lockstep>` does (trigger →
    bookkeeping → retire converged → terminal → budget → step), so a
    deterministic sampler with explicit initials produces bit-identical
    per-trial outcome vectors.  Without a fault nothing is pending,
    which is exactly :func:`~repro.core.simulate.run_until`'s semantics
    and random stream: one lazy initial draw per trial, then one
    ``sampler.choose`` and one ``Cursor.advance`` per step.

    ``measure_rounds`` counts completed rounds as the loop steps —
    :func:`repro.analysis.rounds.round_boundaries` restated on the
    cursor: ``waiting`` starts as the processes enabled at the round's
    start, loses every mover and every process the step disabled, and
    when it empties a round completes and it restarts from the cursor's
    enabled set.
    """
    sampler = point.sampler
    legitimate = point.legitimate
    trials = point.trials
    initials = point.initial_configurations
    fault = point.fault
    outcome = BatchRunResult(trials)
    rounds = np.full(trials, np.nan) if measure_rounds else None
    at_convergence = fault is not None and fault.at_convergence
    domains = _domain_table(system) if initials is None else None
    for trial in range(trials):
        if initials is not None:
            initial = initials[trial % len(initials)]
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
            if pending and (legit if at_convergence else step == fault.step):
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
            # fixed-step fault may re-enable the system, in which case
            # the trial idles in place (time still passes).
            if not enabled and not (pending and not at_convergence):
                outcome.hit_terminal[trial] = True
                break
            if step >= point.max_steps:
                outcome.timed_out[trial] = True
                break
            if enabled:
                subset = list(
                    sampler.choose(system, cursor.configuration, enabled, rng)
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
        point.index,
        point.label,
        rounds,
    )


class MonteCarloRunner:
    """One-point Monte-Carlo estimates for one system.

    :class:`repro.markov.sweep_engine.SweepRunner` is the front door for
    stabilization-time sampling.  :meth:`estimate` runs one point
    through the pieces it uses — :func:`check_point`,
    :func:`resolve_engine`, then :func:`estimate_lockstep` or
    :func:`estimate_scalar` — so ``estimate(..., rng=RandomSource(seed),
    engine=e)`` is bit-identical to a one-point ``SweepRunner(engine=e)``
    sweep for ``e`` in ``"batch"``/``"scalar"``.
    """

    def __init__(self, system: System) -> None:
        self.system = system

    def estimate(
        self,
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
        keep_samples: bool = True,
        sink: TrialSink | None = None,
    ) -> MonteCarloResult:
        """Sample stabilization times over random starts/scheduler draws.

        ``engine`` selects the execution engine:

        * ``"auto"`` (default) — the vectorized lockstep engine whenever
          the sampler has a batch strategy, rounds are not measured, and
          the neighborhood tables fit the default table budget; scalar
          otherwise;
        * ``"batch"`` — demand the lockstep engine (raising
          :class:`MarkovError` or :class:`~repro.errors.ModelError` when
          unsupported);
        * ``"scalar"`` — force the loop-per-trial oracle, the
          distributional reference for the batch tier (the
          ``engine="auto"`` selection rules are spelled out in
          ``docs/architecture.md``).

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
        system = self.system
        check_point(
            system,
            trials,
            max_steps,
            initial_configurations,
            fault,
            measure_rounds,
        )
        if engine not in ENGINES:
            raise MarkovError(
                f"unknown engine {engine!r}; known: {ENGINES}"
            )
        point = MonteCarloPoint(
            sampler,
            legitimate,
            trials,
            max_steps,
            initial_configurations,
            batch_legitimate,
            None if fault is None else compile_fault(fault, system, trials),
        )
        _, batch_engine = resolve_engine(
            system, [sampler], engine, measure_rounds=measure_rounds
        )
        if batch_engine is None:
            return estimate_scalar(
                system, point, rng, measure_rounds, keep_samples, sink
            )
        (result,) = estimate_lockstep(
            batch_engine, [point], [rng], None, keep_samples, sink
        )
        return result

    def batch(self, cases: Sequence[dict]) -> list[MonteCarloResult]:
        """One :meth:`estimate` per case (its keyword arguments), in
        order.  Multi-point sweeps belong to
        :class:`~repro.markov.sweep_engine.SweepRunner`; this loop is
        kept only because ``perfbench/layers.py`` traces it by name, and
        the benchmark change that drops that target can delete it."""
        return [self.estimate(**case) for case in cases]
