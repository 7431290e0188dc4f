"""The always-on sweep service: warm caches + multi-tenant fusion.

:class:`SweepService` is the transport-independent core of the serving
tier — the HTTP layer (:mod:`repro.serving.http`) is a thin JSON shim
over it, and the tests drive it directly.  One service owns:

* one :class:`~repro.markov.sweep_engine.SweepRunner`, which compiles
  lockstep tables through the process-wide table cache
  (:data:`~repro.core.encoding.TABLE_CACHE`), so they stay warm for the
  life of the process;
* one :class:`~repro.serving.jobs.AdmissionDispatcher` that coalesces
  concurrent tenants' sweep submissions into fused batches;
* :class:`~repro.lru.SignatureLRU` caches for the exact-tier
  artifacts — built chains (which retain their LU factorizations),
  probabilistic verdicts, :class:`~repro.markov.parametric.ParametricChain`
  structures, registry experiment results, and campaign-store reports.

Every cache is keyed by canonical *content* signatures
(:func:`repro.store.columnar.system_cache_key`, canonical-JSON override
digests, store fingerprints) — never by object identity and never by
request identity, so equal queries from different tenants share one
compilation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Mapping

from repro.core.encoding import TABLE_CACHE
from repro.errors import ExperimentError, ReproError, ServingError
from repro.markov.sweep_engine import SweepRunner
from repro.lru import SignatureLRU
from repro.serving.jobs import AdmissionDispatcher, Job
from repro.serving.resolver import (
    parametric_parts,
    resolve_points,
    verdict_parts,
)
from repro.store.columnar import system_cache_key

__all__ = ["ServiceConfig", "SweepService"]

#: Scheduler distributions are tiny value objects; their class name plus
#: scalar constructor state identifies them for cache keying.
def _distribution_key(distribution) -> str:
    params = {
        key.lstrip("_"): value
        for key, value in sorted(vars(distribution).items())
        if isinstance(value, (bool, int, float, str))
    }
    return f"{type(distribution).__name__}:{_canonical(params)}"


def _canonical(value) -> str:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def _system_key(system) -> str:
    """``system``'s content key for the exact-tier caches.  Registry
    families always have one (their constants are plain ints and
    bools), so a key-less system here is a resolver bug."""
    key = system_cache_key(system)
    if key is None:
        raise ReproError(f"{system!r} has no content address to cache by")
    return key


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`SweepService` instance.

    ``engine``/``table_budget`` forward to the shared
    :class:`SweepRunner` (a tiny ``table_budget`` forces the per-point
    scalar fallback — the tests use this to cover the fusion-illegal
    path); the ``*_cache`` fields bound the exact-tier LRUs;
    ``max_jobs`` bounds the job history.  Compiled tables live in the
    process-wide :data:`~repro.core.encoding.TABLE_CACHE`, which no
    field sizes.
    """

    engine: str = "auto"
    table_budget: int | None = None
    chain_cache: int = 16
    verdict_cache: int = 64
    parametric_cache: int = 8
    experiment_cache: int = 16
    report_cache: int = 8
    max_jobs: int = 1024
    max_states: int = 500_000


class SweepService:
    """Facade over the dispatcher and the warm exact-tier caches."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        runner_kwargs: dict = {"engine": self.config.engine}
        if self.config.table_budget is not None:
            runner_kwargs["table_budget"] = self.config.table_budget
        self.runner = SweepRunner(**runner_kwargs)
        self.dispatcher = AdmissionDispatcher(
            self.runner, max_jobs=self.config.max_jobs
        )
        self.chains = SignatureLRU("chains", self.config.chain_cache)
        self.verdicts = SignatureLRU("verdicts", self.config.verdict_cache)
        self.parametric = SignatureLRU(
            "parametric", self.config.parametric_cache
        )
        self.experiments = SignatureLRU(
            "experiments", self.config.experiment_cache
        )
        self.reports = SignatureLRU("reports", self.config.report_cache)

    # ------------------------------------------------------------------
    # sweep submission / job queries
    # ------------------------------------------------------------------
    def submit_sweep(self, payload: Mapping) -> Job:
        """Validate one submission and queue it for the next batch."""
        specs = resolve_points(payload)
        points = list(payload["points"])
        return self.dispatcher.submit(points, specs)

    def run_sweep(self, payload: Mapping, timeout: float = 300.0) -> dict:
        """Submit and block until the batch executes (``wait=true``)."""
        job = self.submit_sweep(payload)
        if not job.done.wait(timeout):
            raise ServingError(
                f"{job.id} still {job.status} after {timeout}s"
            )
        return job.snapshot()

    def job_snapshot(self, job_id: str) -> dict:
        return self.dispatcher.job(job_id).snapshot()

    def job_index(self) -> list[dict]:
        return [
            {"job": job.id, "status": job.status, "points": len(job.specs)}
            for job in self.dispatcher.jobs()
        ]

    # ------------------------------------------------------------------
    # exact-tier queries (chains cached with their LU factorizations)
    # ------------------------------------------------------------------
    def verdict(self, family: str, n: int) -> dict:
        """Probabilistic classification of one family point, cached."""
        parts = verdict_parts(family, n)
        system = parts["system"]
        distribution = parts["distribution"]
        chain_key = _digest(
            _system_key(system),
            _distribution_key(distribution),
            str(self.config.max_states),
        )
        verdict_key = _digest(
            chain_key, type(parts["specification"]).__name__
        )

        def build() -> dict:
            from repro.markov.builder import build_chain
            from repro.stabilization.probabilistic import (
                classify_probabilistic,
            )

            chain = self.chains.get_or_build(
                chain_key,
                lambda: build_chain(
                    system, distribution, max_states=self.config.max_states
                ),
            )
            verdict = classify_probabilistic(
                system,
                parts["specification"],
                distribution,
                chain=chain,
            )
            payload = dataclasses.asdict(verdict)
            payload["probabilistically_self_stabilizing"] = (
                verdict.is_probabilistically_self_stabilizing
            )
            payload["family"] = family
            payload["n"] = n
            return payload

        return self.verdicts.get_or_build(verdict_key, build)

    def bias_sweep(self, payload: Mapping) -> dict:
        """Expected hitting times over coin biases, structure cached."""
        if not isinstance(payload, Mapping):
            raise ServingError("bias sweep body must be a JSON object")
        unknown = set(payload) - {"family", "n", "biases", "objective"}
        if unknown:
            raise ServingError(f"unknown bias-sweep fields {sorted(unknown)}")
        family = payload.get("family")
        n = payload.get("n")
        objective = payload.get("objective", "mean")
        if objective not in ("mean", "worst"):
            raise ServingError(
                f"objective must be 'mean' or 'worst', got {objective!r}"
            )
        biases = payload.get("biases")
        if not isinstance(biases, list) or not biases:
            raise ServingError("bias sweep needs a non-empty 'biases' array")
        if len(biases) > 512:
            raise ServingError(
                f"too many biases in one request ({len(biases)} > 512)"
            )
        for bias in biases:
            if (
                isinstance(bias, bool)
                or not isinstance(bias, (int, float))
                or not 0.0 < float(bias) < 1.0
            ):
                raise ServingError(
                    f"biases must lie strictly inside (0, 1), got {bias!r}"
                )
        parts = parametric_parts(family, n)

        def build():
            from repro.markov.parametric import ParametricChain
            from repro.schedulers.distributions import (
                SynchronousDistribution,
            )

            pchain = ParametricChain(
                parts["system"],
                SynchronousDistribution(),
                max_states=self.config.max_states,
            )
            target = pchain.mark(parts["specification"])
            return pchain, target

        structure_key = _digest(
            _system_key(parts["system"]), "parametric-sync"
        )
        pchain, target = self.parametric.get_or_build(structure_key, build)
        names = [coin.name for coin in pchain.parameters]
        assignments = [
            {name: float(bias) for name in names} for bias in biases
        ]
        values = pchain.hitting_sweep(assignments, target, objective)
        return {
            "family": family,
            "n": n,
            "objective": objective,
            "parameters": names,
            "biases": [float(bias) for bias in biases],
            "values": values,
        }

    # ------------------------------------------------------------------
    # registry experiments / campaign-store reports
    # ------------------------------------------------------------------
    def experiment(self, experiment_id, overrides: Mapping | None = None) -> dict:
        """Run a registry experiment with overrides, cached by content."""
        from repro.experiments.registry import get_experiment

        if not isinstance(experiment_id, str):
            raise ServingError("experiment id must be a string")
        overrides = dict(overrides or {})
        try:
            experiment = get_experiment(experiment_id)
            key = _digest(experiment.experiment_id, _canonical(overrides))
        except (ExperimentError, TypeError, ValueError) as error:
            raise ServingError(str(error)) from None

        def build() -> dict:
            try:
                result = experiment.run(**overrides)
            except ReproError as error:
                raise ServingError(str(error)) from None
            return {
                "experiment": result.experiment_id,
                "title": result.title,
                "paper_claim": result.paper_claim,
                "measured": result.measured,
                "passed": result.passed,
                "rows": json.loads(_canonical(result.rows)),
            }

        return self.experiments.get_or_build(key, build)

    def report(self, root) -> dict:
        """Campaign-store summary rows, cached by store fingerprint."""
        if not isinstance(root, str) or not root:
            raise ServingError("report needs a non-empty 'dir' parameter")
        path = pathlib.Path(root)
        if not path.is_dir():
            raise ServingError(f"no campaign store at {root!r}")
        fingerprint = _store_fingerprint(path)

        def build() -> dict:
            from repro.campaign.runner import store_report

            return {
                "dir": str(path),
                "fingerprint": fingerprint,
                "rows": json.loads(_canonical(store_report(path))),
            }

        return self.reports.get_or_build(
            _digest(str(path.resolve()), fingerprint), build
        )

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------
    def cache_stats(self) -> dict:
        return {
            # The table cache is the runner's only cache; perfbench's
            # serve-mix reads ``runner.evictions``.
            "runner": TABLE_CACHE.stats(),
            "dispatcher": self.dispatcher.stats(),
            "lru": [
                cache.stats()
                for cache in (
                    self.chains,
                    self.verdicts,
                    self.parametric,
                    self.experiments,
                    self.reports,
                    TABLE_CACHE,
                )
            ],
        }

    def close(self) -> None:
        self.dispatcher.close()


def _store_fingerprint(root: pathlib.Path) -> str:
    """Content fingerprint of a campaign store directory: relative path,
    size, and mtime of every file — a changed store re-aggregates, an
    unchanged one serves the cached report."""
    entries = []
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            file_path = pathlib.Path(base) / name
            try:
                stat = file_path.stat()
            except OSError:
                continue
            entries.append(
                (
                    str(file_path.relative_to(root)),
                    stat.st_size,
                    stat.st_mtime_ns,
                )
            )
    return hashlib.sha256(_canonical(entries).encode()).hexdigest()
