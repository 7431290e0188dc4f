"""Fused multi-point sweep engine — one code matrix for many sweep points.

The quantitative experiments (Q1–Q3) answer the paper's questions with
*sweeps*: stabilization-time curves over ring size, coin bias, scheduler
family, or seed replications.  :class:`SweepRunner` is the one
Monte-Carlo front door; instead of one
:class:`~repro.markov.batch.BatchEngine` run per point, it fuses points
into shared code matrices:

* points are **grouped** by ``(algorithm, topology)`` family and, inside
  a group, by the canonical *system signature*
  (:func:`repro.store.columnar.system_cache_key`) — the unit that owns
  one set of :class:`~repro.core.encoding.CompiledKernelTables`;
  value-equal systems constructed independently (concurrent tenants of
  the serving tier) therefore share one compilation *and* one fused
  matrix;
* **same-system points fuse** into one ``(Σ trials × processes)`` code
  matrix carrying a per-row *point id* and a per-row *step budget*,
  advanced by :meth:`~repro.markov.batch.BatchEngine.lockstep` — the
  same loop a one-point ``BatchEngine.run`` takes; legitimacy and
  scheduler draws dispatch per point (points sharing a predicate or
  sampler signature share one vectorized call), so each lockstep
  iteration pays the interpreter overhead once for the whole sweep
  instead of once per point;
* **points of different N** within a group run as block-scheduled
  sub-batches — one fused matrix per system, executed back to back over
  cached tables (tables come from the process-wide table cache,
  :func:`repro.core.encoding.tables_for`, never compiled per point);
* a point that cannot take the fused path (no vectorized sampler
  strategy, neighborhood tables over the compilation budget) falls back
  to the **scalar trial loop**
  (:func:`~repro.markov.montecarlo.estimate_scalar`) under
  ``engine="auto"`` — and ``engine="scalar"`` forces that oracle for
  every point, which is the seeded distributional reference the
  conformance tier (``tests/test_engine_conformance.py``) checks the
  fused engine against; ``engine="batch"`` runs every point as a
  one-point lockstep block on its block's compiled engine.

The point checks, the engine resolution and both engines live in
:mod:`repro.markov.montecarlo`, where
:meth:`~repro.markov.montecarlo.MonteCarloRunner.estimate` calls the
same functions for one point.

Each sweep point carries its own integer ``seed``.  The fused engine
draws a point's initial configurations from ``RandomSource(seed)`` all
at once, before any step, exactly as the per-point batch engine does;
the scalar trial loop draws each trial's start lazily from the same
source, after the previous trial's step draws, so it shares only trial
0's start with them.  The fused lockstep draws come from one NumPy
generator folded over the group's seeds (distribution-identical,
stream-different — the same contract as the per-point batch engine).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.configuration import Configuration
from repro.core.encoding import DEFAULT_TABLE_BUDGET, StateEncoding
from repro.core.simulate import SchedulerSampler
from repro.core.system import System
from repro.errors import MarkovError
from repro.markov.batch import BatchEngine, BatchLegitimacy
from repro.markov.montecarlo import (
    MonteCarloPoint,
    MonteCarloResult,
    TrialSink,
    check_point,
    estimate_lockstep,
    estimate_scalar,
    resolve_engine,
)
from repro.random_source import RandomSource
from repro.stabilization.faults import FaultPlan, compile_fault
from repro.store.columnar import system_cache_key

__all__ = [
    "SWEEP_ENGINES",
    "SweepPointSpec",
    "PointExecution",
    "SweepRunner",
]

#: Accepted ``engine`` values: ``"fused"`` demands the fused matrix for
#: every point, ``"batch"``/``"scalar"`` run every point through the
#: corresponding per-point engine, ``"auto"`` fuses what it can.
SWEEP_ENGINES = ("auto", "fused", "batch", "scalar")


@dataclass(frozen=True)
class SweepPointSpec:
    """One sweep point: a complete, self-seeded estimate request.

    The fusable subset of :meth:`MonteCarloRunner.estimate`'s signature
    (round measurement keeps the scalar engine and is not offered
    here).  ``seed`` replaces the live
    :class:`~repro.random_source.RandomSource` argument so a spec is a
    pure value: the scalar oracle for this point is
    ``estimate(..., rng=RandomSource(seed), engine="scalar")``.

    ``fault`` attaches one seeded transient corruption per trial (see
    :class:`~repro.stabilization.faults.FaultPlan`): the fused matrix
    carries per-point fault plans, so a robustness sweep mixes faulted
    and fault-free points in one lockstep run.
    """

    system: System
    sampler: SchedulerSampler
    legitimate: Callable[[Configuration], bool]
    trials: int
    max_steps: int
    seed: int
    batch_legitimate: BatchLegitimacy | None = None
    initial_configurations: tuple[Configuration, ...] | None = None
    label: str | None = None
    fault: FaultPlan | None = None


@dataclass(frozen=True)
class PointExecution:
    """How one point actually ran — recorded in ``SweepRunner.last_plan``."""

    index: int
    label: str | None
    group: tuple[str, str]
    engine: str
    fused_rows: int = 0


def _fold_seeds(seeds: Sequence[int]) -> int:
    """Deterministic fold of the member seeds into one generator seed
    (same multiplier as :meth:`RandomSource.spawn`)."""
    fold = 0
    for seed in seeds:
        fold = (fold * 1_000_003 + int(seed) + 1) & 0x7FFFFFFF
    return fold


class SweepRunner:
    """Fused multi-point Monte-Carlo driver.

    Construct once per sweep (or once per process), call :meth:`run`
    with the full point list; grouping, fusion, and per-point fallback
    are handled here so experiment runners never touch the execution
    tiers directly.  The runner holds no per-system state: every
    compiled engine is ``system`` plus
    :func:`~repro.core.encoding.tables_for`, whose process-wide cache is
    keyed by system *signature*
    (:func:`repro.store.columnar.system_cache_key`), so repeated
    :meth:`run` calls never recompile — and value-equal systems built
    independently (different tenants of the serving tier) share one
    compilation and fuse into one code matrix.

    ``engine`` sets the execution policy:

    * ``"auto"`` (default) — fuse every point whose sampler has a
      vectorized strategy and whose tables fit the budget; per-point
      scalar otherwise;
    * ``"fused"`` — demand the fused matrix for every point, raising
      :class:`MarkovError` when any point cannot take it;
    * ``"batch"`` — per-point lockstep engine (no fusion), on the
      tables compiled under ``table_budget`` — the baseline the fusion
      benchmark compares against;
    * ``"scalar"`` — per-point scalar oracle, consuming
      ``RandomSource(seed)`` exactly as pre-fusion callers did.

    Every point's engine is resolved before any point runs, so a sweep
    the policy refuses raises without sending anything to its sink.
    After :meth:`run`, ``last_plan`` records one :class:`PointExecution`
    per input point (input order) — which group it joined, which engine
    executed it, and how many rows its fused matrix carried.
    """

    def __init__(
        self,
        engine: str = "auto",
        table_budget: int = DEFAULT_TABLE_BUDGET,
    ) -> None:
        if engine not in SWEEP_ENGINES:
            raise MarkovError(
                f"unknown engine {engine!r}; known: {SWEEP_ENGINES}"
            )
        self.engine = engine
        self.table_budget = table_budget
        self.last_plan: list[PointExecution] = []

    @staticmethod
    def _cache_key(system: System) -> object:
        """The system's content key, which groups points into fusion
        blocks; a system without one (a constant with no canonical form)
        is keyed by the object itself."""
        key = system_cache_key(system)
        return ("object", system) if key is None else key

    # ------------------------------------------------------------------
    # the front door
    # ------------------------------------------------------------------
    def run(
        self,
        points: Sequence[SweepPointSpec],
        sink: TrialSink | None = None,
        keep_samples: bool = True,
    ) -> list[MonteCarloResult]:
        """Execute every sweep point; results align with input order.

        ``sink`` receives one
        :class:`~repro.markov.montecarlo.TrialOutcomes` per point (its
        ``point`` field is the point's input index, ``label`` the spec's
        label), emitted as soon as that point's execution block — its
        own per-point run or the fused matrix it belonged to —
        completes.  ``keep_samples=False`` drops the per-trial tuples
        from the returned results; neither knob perturbs execution
        plans or random streams.
        """
        self._validate(points)

        # Group by (algorithm, topology) family, preserving first-seen
        # order; fusion blocks inside a group are keyed by the system
        # *signature* (the owner of one table set), so value-equal
        # systems built by independent callers — concurrent tenants of
        # the serving tier — land in the same fused matrix.
        groups: dict[tuple[str, str], dict[object, list[int]]] = {}
        for index, spec in enumerate(points):
            key = (
                type(spec.system.algorithm).__name__,
                type(spec.system.topology).__name__,
            )
            groups.setdefault(key, {}).setdefault(
                self._cache_key(spec.system), []
            ).append(index)

        # Resolve every block before running any of it: a refused sweep
        # raises here, with nothing executed and nothing in the sink.
        blocks = [
            (group_key, indices)
            + self._resolve_block([points[index] for index in indices])
            for group_key, signature_blocks in groups.items()
            for indices in signature_blocks.values()
        ]

        plan: dict[int, PointExecution] = {}
        results: dict[int, MonteCarloResult] = {}
        for group_key, indices, engines, compiled in blocks:
            fused: list[tuple[int, SweepPointSpec]] = []
            for index, engine in zip(indices, engines):
                spec = points[index]
                plan[index] = PointExecution(
                    index=index,
                    label=spec.label,
                    group=group_key,
                    engine=engine,
                )
                if engine == "fused":
                    fused.append((index, spec))
                elif engine == "batch":
                    member = [(index, spec)]
                    results.update(
                        self._run_lockstep(
                            compiled, member, False, sink, keep_samples
                        )
                    )
                else:
                    results[index] = estimate_scalar(
                        spec.system,
                        self._point(index, spec, spec.system),
                        RandomSource(spec.seed),
                        keep_samples=keep_samples,
                        sink=sink,
                    )
            if fused:
                results.update(
                    self._run_lockstep(
                        compiled, fused, True, sink, keep_samples
                    )
                )
                rows = sum(spec.trials for _, spec in fused)
                for index, _ in fused:
                    plan[index] = replace(plan[index], fused_rows=rows)

        self.last_plan = [plan[index] for index in range(len(points))]
        return [results[index] for index in range(len(points))]

    # ------------------------------------------------------------------
    # validation and engine resolution
    # ------------------------------------------------------------------
    def _validate(self, points: Sequence[SweepPointSpec]) -> None:
        if not points:
            raise MarkovError("need at least one sweep point")
        seen: list[SweepPointSpec] = []
        for position, spec in enumerate(points):
            if not isinstance(spec, SweepPointSpec):
                raise MarkovError(
                    f"sweep point {position} is {type(spec).__name__},"
                    " expected SweepPointSpec"
                )
            check_point(
                spec.system,
                spec.trials,
                spec.max_steps,
                spec.initial_configurations,
                spec.fault,
                where=f"sweep point {position}: ",
            )
            for earlier in seen:
                if earlier is spec or earlier == spec:
                    raise MarkovError(
                        f"duplicate sweep point at position {position}"
                        f" (label {spec.label!r}); give repeated points"
                        " distinct seeds or labels"
                    )
            seen.append(spec)

    def _resolve_block(
        self, specs: Sequence[SweepPointSpec]
    ) -> tuple[list[str], BatchEngine | None]:
        """The engine each point of one signature block runs on, and the
        block's compiled lockstep engine (``None`` when no point needs
        one).  Raises when the policy demands an engine a point cannot
        take."""
        lockstep, compiled = resolve_engine(
            specs[0].system,
            [spec.sampler for spec in specs],
            self.engine,
            self.table_budget,
        )
        label = "batch" if self.engine == "batch" else "fused"
        return [label if ok else "scalar" for ok in lockstep], compiled

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @staticmethod
    def _point(
        index: int, spec: SweepPointSpec, space: System | StateEncoding
    ) -> MonteCarloPoint:
        """``spec`` as the engines read it, its fault compiled against
        ``space`` (the system, or the lockstep engine's encoding)."""
        return MonteCarloPoint(
            spec.sampler,
            spec.legitimate,
            spec.trials,
            spec.max_steps,
            spec.initial_configurations,
            spec.batch_legitimate,
            None
            if spec.fault is None
            else compile_fault(spec.fault, space, spec.trials),
            index,
            spec.label,
        )

    def _run_lockstep(
        self,
        engine: BatchEngine,
        members: Sequence[tuple[int, SweepPointSpec]],
        fused: bool,
        sink: TrialSink | None,
        keep_samples: bool,
    ) -> dict[int, MonteCarloResult]:
        """Advance ``members`` in one lockstep code matrix on the block's
        ``engine``; results keyed by input index.

        Each member draws its initials from ``RandomSource(seed)``.  A
        fused block then draws its steps from one generator folded over
        the member seeds; a per-point ``"batch"`` run (one member) from
        its own seed's source, after its initials — the stream
        :meth:`MonteCarloRunner.estimate
        <repro.markov.montecarlo.MonteCarloRunner.estimate>` consumes.
        """
        specs = [spec for _, spec in members]
        results = estimate_lockstep(
            engine,
            [
                self._point(index, spec, engine.encoding)
                for index, spec in members
            ],
            [RandomSource(spec.seed) for spec in specs],
            RandomSource(_fold_seeds([spec.seed for spec in specs]))
            if fused
            else None,
            keep_samples,
            sink,
        )
        return {
            index: result for (index, _), result in zip(members, results)
        }
