"""Fused multi-point sweep engine — one code matrix for many sweep points.

The quantitative experiments (Q1–Q3) answer the paper's questions with
*sweeps*: stabilization-time curves over ring size, coin bias, scheduler
family, or seed replications.  Before this module each sweep point
compiled and ran its own batch in isolation — one
:class:`~repro.markov.montecarlo.MonteCarloRunner`, one
:class:`~repro.markov.batch.BatchEngine`, one ``(trials × processes)``
code matrix per point.  :class:`SweepRunner` fuses them:

* points are **grouped** by ``(algorithm, topology)`` family and, inside
  a group, by the canonical *system signature*
  (:func:`repro.store.columnar.system_cache_key`) — the unit that owns
  one set of :class:`~repro.core.encoding.CompiledKernelTables`;
  value-equal
  systems constructed independently (concurrent tenants of the serving
  tier) therefore share one compilation *and* one fused matrix;
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
  to the **per-point scalar oracle** under ``engine="auto"`` — and
  ``engine="scalar"`` forces that oracle for every point, which is the
  seeded distributional reference the conformance tier
  (``tests/test_engine_conformance.py``) checks the fused engine
  against.

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

import numpy as np

from repro.core.configuration import Configuration
from repro.core.encoding import DEFAULT_TABLE_BUDGET
from repro.core.simulate import SchedulerSampler
from repro.core.system import System
from repro.errors import MarkovError, ModelError
from repro.lru import SignatureLRU
from repro.markov.batch import (
    BatchEngine,
    BatchLegitimacy,
    EnabledCountLegitimacy,
    batch_strategy_for,
    compile_legitimacy,
    encode_initials,
)
from repro.markov.montecarlo import (
    MonteCarloResult,
    MonteCarloRunner,
    TrialOutcomes,
    TrialSink,
    lockstep_point_result,
    random_configurations,
)
from repro.random_source import RandomSource
from repro.schedulers.samplers import (
    BernoulliSampler,
    CentralRandomizedSampler,
    DistributedRandomizedSampler,
    SynchronousSampler,
)
from repro.stabilization.faults import FaultPlan, compile_fault
from repro.store.columnar import system_cache_key

__all__ = [
    "DEFAULT_SYSTEM_CACHE",
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
    (round measurement keeps the scalar engine and therefore the
    per-point path).  ``seed`` replaces the live
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


def _strategy_signature(sampler: SchedulerSampler) -> tuple:
    """Dispatch key: points with equal signatures share one vectorized
    ``choose`` call per fused step.  Only the four exact built-in
    sampler types have a strategy (:func:`batch_strategy_for` looks up
    the exact type, so a subclass has none and never fuses); each keys
    on its parameters."""
    sampler_type = type(sampler)
    if sampler_type is SynchronousSampler:
        return ("synchronous",)
    if sampler_type is CentralRandomizedSampler:
        return ("central",)
    if sampler_type is BernoulliSampler:
        return ("coin", sampler._p)
    # Vetted by _point_engine: the last type with a strategy.
    assert sampler_type is DistributedRandomizedSampler
    return ("coin", 0.5)


def _legitimacy_signature(spec: SweepPointSpec) -> tuple:
    """Dispatch key for legitimacy: equal keys share one evaluation."""
    batch = spec.batch_legitimate
    if isinstance(batch, EnabledCountLegitimacy):
        return ("enabled-count", batch.count)
    if batch is not None:
        return ("batch", id(batch))
    return ("predicate", id(spec.legitimate))


#: Default bound on the per-system cache (one compiled engine per
#: distinct system *signature*).  Batch sweeps touch a
#: handful of systems; an always-on service recycles the least recently
#: used entry instead of leaking one compilation per tenant forever.
DEFAULT_SYSTEM_CACHE = 64


@dataclass
class _SystemEntry:
    """Everything cached for one system signature.

    ``system`` is a *strong* reference to the first system seen with
    this signature: it anchors the engine and guarantees the
    entry can never be poisoned by interpreter id reuse (the old
    ``id(system)``-keyed dicts could return a stale engine once a
    collected system's id was recycled by a value-different one)."""

    system: System
    engine: BatchEngine | ModelError | None = None


def _fold_seeds(seeds: Sequence[int]) -> int:
    """Deterministic fold of the member seeds into one generator seed
    (same multiplier as :meth:`RandomSource.spawn`)."""
    fold = 0
    for seed in seeds:
        fold = (fold * 1_000_003 + int(seed) + 1) & 0x7FFFFFFF
    return fold


class SweepRunner:
    """Fused multi-point Monte-Carlo driver (the PR 5 scale tier).

    Construct once per sweep, call :meth:`run` with the full point list;
    grouping, fusion, table caching, and per-point fallback are handled
    here so experiment runners never touch the execution tiers directly.
    Batch engines are cached per system
    *signature* (:func:`repro.store.columnar.system_cache_key`) in a
    :class:`~repro.lru.SignatureLRU` of ``cache_size`` entries, and the
    compiled tables under them come from the process-wide table cache,
    so repeated :meth:`run` calls (or mixed fused/fallback plans) never
    recompile — and value-equal systems built independently (different
    tenants of the serving tier) share one compilation and fuse into
    one code matrix.

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

    After :meth:`run`, ``last_plan`` records one :class:`PointExecution`
    per input point (input order) — which group it joined, which engine
    executed it, and how many rows its fused matrix carried.
    """

    def __init__(
        self,
        engine: str = "auto",
        table_budget: int = DEFAULT_TABLE_BUDGET,
        cache_size: int | None = DEFAULT_SYSTEM_CACHE,
    ) -> None:
        if engine not in SWEEP_ENGINES:
            raise MarkovError(
                f"unknown engine {engine!r}; known: {SWEEP_ENGINES}"
            )
        if cache_size is not None and cache_size < 1:
            raise MarkovError(
                f"cache_size must be >= 1 or None, got {cache_size}"
            )
        self.engine = engine
        self.table_budget = table_budget
        self.last_plan: list[PointExecution] = []
        # Per-system cache, keyed by the canonical *content* signature
        # (:func:`repro.store.columnar.system_cache_key`), never by
        # ``id(system)``: a long-lived process recycles object ids, and
        # an id key could hand a new system a stale engine.  Each entry
        # holds a strong reference to its first-seen system, so
        # value-equal systems from different tenants share one
        # compilation; LRU-bounded so an always-on service cannot leak
        # one entry per tenant forever (``cache_size=None`` disables
        # eviction).
        self.cache_size = cache_size
        self._systems = SignatureLRU("systems", cache_size)

    # ------------------------------------------------------------------
    # shared per-system state
    # ------------------------------------------------------------------
    @staticmethod
    def _cache_key(system: System) -> object:
        """The system's content key; a system without one (a constant
        with no canonical form) is keyed by the object itself, which the
        entry then keeps alive, so its id cannot be recycled."""
        key = system_cache_key(system)
        return ("object", system) if key is None else key

    def _entry_for(self, system: System) -> _SystemEntry:
        """The (created-on-demand, LRU-refreshed) cache entry whose
        signature matches ``system``."""
        return self._systems.get_or_build(
            self._cache_key(system), lambda: _SystemEntry(system=system)
        )

    @property
    def evictions(self) -> int:
        """Entries the LRU bound has dropped so far."""
        return self._systems.evictions

    @property
    def cached_systems(self) -> int:
        """Number of distinct system signatures currently cached."""
        return len(self._systems)

    def cache_info(self) -> dict[str, object]:
        """Cache observability for the serving tier's stats endpoint."""
        return {
            "systems": len(self._systems),
            "cache_size": self.cache_size,
            "evictions": self.evictions,
        }

    def adopt_system(
        self,
        system: System,
        batch_engine: BatchEngine | ModelError | None = None,
    ) -> None:
        """Seed this runner's per-system cache with externally owned
        state — a compiled batch engine (or the cached
        :class:`ModelError` of a failed compilation), so
        :class:`~repro.markov.montecarlo.MonteCarloRunner` and repeated
        sweeps never recompile what the caller already owns.  Adopted
        state is keyed by the system's signature like everything else,
        so any value-equal system benefits."""
        entry = self._entry_for(system)
        if batch_engine is not None:
            entry.engine = batch_engine

    def _batch_engine_for(self, system: System) -> BatchEngine | ModelError:
        """The compiled batch engine, or the cached compilation failure."""
        entry = self._entry_for(system)
        if entry.engine is None:
            try:
                entry.engine = BatchEngine(entry.system, self.table_budget)
            except ModelError as error:
                entry.engine = error
        return entry.engine

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
        label), emitted as soon as that point's execution block — a
        per-point fallback run or the fused matrix it belonged to —
        completes.  ``keep_samples=False`` drops the per-trial tuples
        from the returned results; neither knob perturbs execution
        plans or random streams.
        """
        self._validate(points)
        plan: dict[int, PointExecution] = {}
        results: dict[int, MonteCarloResult] = {}

        # Group by (algorithm, topology) family, preserving first-seen
        # order; fusion blocks inside a group are keyed by the system
        # *signature* (the owner of one table set), so value-equal
        # systems built by independent callers — concurrent tenants of
        # the serving tier — land in the same fused matrix.
        groups: dict[tuple[str, str], dict[str, list[int]]] = {}
        systems: dict[str, System] = {}
        for index, spec in enumerate(points):
            key = (
                type(spec.system.algorithm).__name__,
                type(spec.system.topology).__name__,
            )
            blocks = groups.setdefault(key, {})
            signature = self._cache_key(spec.system)
            blocks.setdefault(signature, []).append(index)
            systems.setdefault(signature, spec.system)

        for group_key, blocks in groups.items():
            for signature, indices in blocks.items():
                system = systems[signature]
                fused: list[tuple[int, SweepPointSpec]] = []
                for index in indices:
                    spec = points[index]
                    engine = self._point_engine(spec)
                    if engine == "fused":
                        fused.append((index, spec))
                    else:
                        results[index] = self._run_point(
                            spec, engine, index, sink, keep_samples
                        )
                    plan[index] = PointExecution(
                        index=index,
                        label=spec.label,
                        group=group_key,
                        engine=engine,
                        fused_rows=0,
                    )
                if fused:
                    engine_obj = self._batch_engine_for(system)
                    assert isinstance(engine_obj, BatchEngine)
                    block_results = self._run_fused(
                        engine_obj, fused, sink, keep_samples
                    )
                    rows = sum(spec.trials for _, spec in fused)
                    for index, _ in fused:
                        results[index] = block_results[index]
                        plan[index] = PointExecution(
                            index=index,
                            label=points[index].label,
                            group=group_key,
                            engine="fused",
                            fused_rows=rows,
                        )

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
            if spec.trials < 1:
                raise MarkovError(
                    f"sweep point {position}: need at least one trial"
                )
            if spec.max_steps < 0:
                raise MarkovError(
                    f"sweep point {position}: max_steps must be >= 0"
                )
            if (
                spec.initial_configurations is not None
                and not spec.initial_configurations
            ):
                raise MarkovError(
                    f"sweep point {position}: need at least one initial"
                    " configuration"
                )
            if spec.fault is not None and not isinstance(
                spec.fault, FaultPlan
            ):
                raise MarkovError(
                    f"sweep point {position}: fault is"
                    f" {type(spec.fault).__name__}, expected FaultPlan"
                )
            for earlier in seen:
                if earlier is spec or earlier == spec:
                    raise MarkovError(
                        f"duplicate sweep point at position {position}"
                        f" (label {spec.label!r}); give repeated points"
                        " distinct seeds or labels"
                    )
            seen.append(spec)

    def _point_engine(self, spec: SweepPointSpec) -> str:
        """The engine one point will actually run on."""
        if self.engine in ("batch", "scalar"):
            return self.engine
        require = self.engine == "fused"
        if batch_strategy_for(spec.sampler) is None:
            if require:
                raise MarkovError(
                    f"sampler {type(spec.sampler).__name__} has no"
                    " vectorized strategy; use engine='scalar'"
                )
            return "scalar"
        engine = self._batch_engine_for(spec.system)
        if isinstance(engine, ModelError):
            if require:
                raise engine
            return "scalar"
        return "fused"

    def _run_point(
        self,
        spec: SweepPointSpec,
        engine: str,
        index: int = 0,
        sink: TrialSink | None = None,
        keep_samples: bool = True,
    ) -> MonteCarloResult:
        """One point through a per-point engine (``"batch"`` or
        ``"scalar"``).  The batch engine is this runner's, compiled under
        its ``table_budget``; a compilation over budget raises its
        cached :class:`~repro.errors.ModelError`."""
        compiled = None
        if engine == "batch":
            compiled = self._batch_engine_for(spec.system)
            if isinstance(compiled, ModelError):
                raise compiled
        runner = MonteCarloRunner(
            self._entry_for(spec.system).system, batch_engine=compiled
        )
        point_sink: TrialSink | None = None
        if sink is not None:
            # The per-point engines emit point=0/label=None; restamp
            # with this point's sweep coordinates before forwarding.
            def point_sink(outcome: TrialOutcomes) -> None:
                sink(
                    replace(outcome, point=index, label=spec.label)
                )

        return runner.estimate(
            spec.sampler,
            spec.legitimate,
            trials=spec.trials,
            max_steps=spec.max_steps,
            rng=RandomSource(spec.seed),
            initial_configurations=spec.initial_configurations,
            engine=engine,
            batch_legitimate=spec.batch_legitimate,
            fault=spec.fault,
            keep_samples=keep_samples,
            sink=point_sink,
        )

    # ------------------------------------------------------------------
    # the fused engine
    # ------------------------------------------------------------------
    def _run_fused(
        self,
        engine: BatchEngine,
        members: Sequence[tuple[int, SweepPointSpec]],
        sink: TrialSink | None = None,
        keep_samples: bool = True,
    ) -> dict[int, MonteCarloResult]:
        """Advance all member points in one lockstep code matrix.

        Stacks the members' initial codes with per-row point ids and
        budgets, groups them by legitimacy and sampler signature, and
        hands everything to :meth:`BatchEngine.lockstep` — the same loop
        a one-point :meth:`BatchEngine.run` takes.  Returns the
        per-point results keyed by input index.
        """
        encoding = engine.encoding
        system = engine.system
        specs = [spec for _, spec in members]
        counts = np.array([spec.trials for spec in specs], dtype=np.int64)

        blocks = []
        for spec in specs:
            if spec.initial_configurations is not None:
                blocks.append(
                    encode_initials(
                        encoding, spec.initial_configurations, spec.trials
                    )
                )
            else:
                blocks.append(
                    encoding.encode_batch(
                        random_configurations(
                            system, RandomSource(spec.seed), spec.trials
                        )
                    )
                )
        codes = np.concatenate(blocks, axis=0)
        point = np.repeat(np.arange(len(specs)), counts)
        budget = np.repeat(
            np.array([spec.max_steps for spec in specs], dtype=np.int64),
            counts,
        )

        # Dispatch groups: member mask per distinct legitimacy/strategy
        # signature — one vectorized call per signature per step.
        legit_groups: list[tuple[BatchLegitimacy, np.ndarray]] = []
        signature_rows: dict[tuple, list[int]] = {}
        for member, spec in enumerate(specs):
            signature_rows.setdefault(
                _legitimacy_signature(spec), []
            ).append(member)
        for signature, group_members in signature_rows.items():
            spec = specs[group_members[0]]
            legitimacy = compile_legitimacy(
                spec.batch_legitimate
                if spec.batch_legitimate is not None
                else spec.legitimate
            )
            mask = np.zeros(len(specs), dtype=bool)
            mask[group_members] = True
            legit_groups.append((legitimacy, mask))

        strategy_groups = []
        signature_rows = {}
        for member, spec in enumerate(specs):
            signature_rows.setdefault(
                _strategy_signature(spec.sampler), []
            ).append(member)
        for signature, group_members in signature_rows.items():
            strategy = batch_strategy_for(specs[group_members[0]].sampler)
            assert strategy is not None  # vetted by _point_engine
            mask = np.zeros(len(specs), dtype=bool)
            mask[group_members] = True
            strategy_groups.append((strategy, mask))

        generator = RandomSource(
            _fold_seeds([spec.seed for spec in specs])
        ).numpy_generator()

        # Per-point fault plans, compiled against the shared encoding.
        faults = [
            compile_fault(spec.fault, encoding, spec.trials)
            if spec.fault is not None
            else None
            for spec in specs
        ]
        outcome = engine.lockstep(
            codes,
            point,
            budget,
            legit_groups,
            strategy_groups,
            generator,
            faults=(
                faults
                if any(fault is not None for fault in faults)
                else None
            ),
        )

        results: dict[int, MonteCarloResult] = {}
        start = 0
        for (index, spec), count, fault in zip(
            members, counts.tolist(), faults
        ):
            rows = slice(start, start + count)
            start += count
            results[index] = lockstep_point_result(
                outcome,
                rows,
                fault is not None,
                keep_samples,
                sink,
                index,
                spec.label,
            )
        return results
