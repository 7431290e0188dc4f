"""Job queue + admission dispatcher: multi-tenant sweep fusion.

The fused :class:`~repro.markov.sweep_engine.SweepRunner` is secretly an
admission batcher: points that share an (algorithm, topology) family —
whoever submitted them — fuse into one ``(Σ trials × processes)`` code
matrix.  This module exploits that for *concurrent users*: submissions
land in a queue, and a single dispatcher thread drains it in batches:

1. wait until at least one job is queued;
2. hold the **admission window** open (``window`` seconds) so
   concurrent tenants' requests can join the batch — a window of 0
   dispatches immediately (per-request execution with warm caches);
3. drain everything queued, concatenate the specs in admission order,
   and execute them through one :meth:`SweepRunner.run` call — which
   groups by family, fuses what it legally can, and falls back to the
   per-point path for the rest (stateful samplers, over-budget tables);
4. slice the results back per job and publish them.

**The oracle contract.**  Execution is single-threaded and every spec
is self-seeded, so the response rows of a batch are *bit-identical* to
a sequential ``SweepRunner().run(batch_specs)`` over the same payloads
in the same admission order — each job records its batch's full payload
list (``batch_payloads``) precisely so a client (or the conformance
tests) can replay that oracle.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.markov.montecarlo import MonteCarloResult
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner

__all__ = ["AdmissionDispatcher", "Job", "result_payload"]


def result_payload(result: MonteCarloResult) -> dict:
    """Full-precision JSON form of one point's Monte-Carlo result.

    ``samples`` carries the converged trials' raw stabilization times in
    trial order — floats survive a JSON round-trip exactly (``repr``
    precision), which is what makes the bit-identity contract checkable
    over the wire.
    """
    payload: dict[str, object] = {
        "trials": result.trials,
        "converged": result.converged,
        "censored": result.censored,
        "timed_out": result.timed_out,
        "mean": result.stats.mean if result.stats else None,
        "maximum": result.stats.maximum if result.stats else None,
        "samples": (
            list(result.samples) if result.samples is not None else None
        ),
    }
    if result.faulted:
        payload.update(
            {
                "faulted": result.faulted,
                "availability": result.availability,
                "max_excursion": result.max_excursion,
                "recovery_samples": (
                    list(result.recovery_samples)
                    if result.recovery_samples is not None
                    else None
                ),
            }
        )
    return payload


@dataclass
class Job:
    """One tenant submission: a list of points, executed in one batch."""

    id: str
    payloads: list[dict]
    specs: list[SweepPointSpec]
    status: str = "queued"
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    batch_id: int | None = None
    batch_payloads: list[dict] | None = None
    results: list[dict] | None = None
    plan: list[dict] | None = None
    error: str | None = None
    done: threading.Event = field(default_factory=threading.Event)

    def snapshot(self) -> dict:
        """JSON view of this job for the status/result endpoints."""
        view: dict[str, object] = {
            "job": self.id,
            "status": self.status,
            "points": len(self.specs),
        }
        if self.batch_id is not None:
            view["batch"] = self.batch_id
            view["batch_payloads"] = self.batch_payloads
        if self.results is not None:
            view["results"] = self.results
            view["plan"] = self.plan
        if self.error is not None:
            view["error"] = self.error
        if self.started_at is not None and self.finished_at is not None:
            view["seconds"] = round(self.finished_at - self.started_at, 6)
        return view


class AdmissionDispatcher:
    """Single-threaded batch executor over a shared :class:`SweepRunner`.

    One dispatcher owns one runner; compiled tables live in the
    process-wide table cache, so every batch benefits from every
    previous tenant's compilations.  ``window`` is the admission delay
    in seconds; ``max_jobs`` bounds the completed-job history kept for
    status queries (oldest evicted first).
    """

    def __init__(
        self,
        runner: SweepRunner,
        window: float = 0.025,
        max_jobs: int = 1024,
    ) -> None:
        if window < 0:
            raise ServingError(f"admission window must be >= 0: {window}")
        self.runner = runner
        self.window = window
        self.max_jobs = max_jobs
        self.batches_run = 0
        self.points_run = 0
        self._pending: list[Job] = []
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="sweep-dispatcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # tenant-facing surface
    # ------------------------------------------------------------------
    def submit(
        self, payloads: list[dict], specs: list[SweepPointSpec]
    ) -> Job:
        """Queue one submission; returns its (immediately pollable) job."""
        if self._stop.is_set():
            raise ServingError("dispatcher is shut down")
        with self._lock:
            job = Job(
                id=f"job-{next(self._ids)}",
                payloads=payloads,
                specs=specs,
                submitted_at=time.monotonic(),
            )
            self._pending.append(job)
            self._jobs[job.id] = job
            self._order.append(job.id)
            while len(self._order) > self.max_jobs:
                oldest = self._order.pop(0)
                if self._jobs[oldest].done.is_set():
                    del self._jobs[oldest]
                else:  # never evict live work
                    self._order.insert(0, oldest)
                    break
        self._wake.set()
        return job

    def job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServingError(f"unknown job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def stats(self) -> dict[str, object]:
        with self._lock:
            pending = len(self._pending)
            known = len(self._jobs)
        return {
            "batches": self.batches_run,
            "points": self.points_run,
            "pending_jobs": pending,
            "known_jobs": known,
            "window_seconds": self.window,
        }

    def close(self) -> None:
        """Stop the dispatcher thread (idempotent)."""
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=10.0)

    # ------------------------------------------------------------------
    # the dispatcher loop
    # ------------------------------------------------------------------
    def _drain(self) -> list[Job]:
        with self._lock:
            batch = self._pending
            self._pending = []
        return batch

    def _loop(self) -> None:
        while True:
            self._wake.wait()
            if self._stop.is_set():
                break
            self._wake.clear()
            # Hold the admission window open: requests arriving while we
            # sleep join this batch instead of paying their own
            # dispatch (and losing their fusion partners).
            if self.window > 0:
                time.sleep(self.window)
            batch = self._drain()
            if not batch:  # spurious wake or drained by shutdown
                continue
            self._execute(batch)
            # Anything submitted after the drain waits for the next
            # wake; re-arm if submissions raced the execution.
            with self._lock:
                if self._pending:
                    self._wake.set()
        # Shutdown: fail whatever never ran instead of hanging waiters.
        for job in self._drain():
            job.status = "error"
            job.error = "dispatcher shut down before execution"
            job.done.set()

    def _execute(self, batch: list[Job]) -> None:
        started = time.monotonic()
        self.batches_run += 1
        batch_id = self.batches_run
        batch_payloads = [
            payload for job in batch for payload in job.payloads
        ]
        specs = [spec for job in batch for spec in job.specs]
        for job in batch:
            job.status = "running"
            job.started_at = started
            job.batch_id = batch_id
            job.batch_payloads = batch_payloads
        try:
            results = self.runner.run(specs)
            plan = self.runner.last_plan
        except Exception as error:  # surface, never kill the loop
            finished = time.monotonic()
            for job in batch:
                job.status = "error"
                job.error = f"{type(error).__name__}: {error}"
                job.finished_at = finished
                job.done.set()
            return
        self.points_run += len(specs)
        finished = time.monotonic()
        offset = 0
        for job in batch:
            count = len(job.specs)
            job.results = [
                result_payload(result)
                for result in results[offset : offset + count]
            ]
            job.plan = [
                {
                    "label": execution.label,
                    "engine": execution.engine,
                    "fused_rows": execution.fused_rows,
                }
                for execution in plan[offset : offset + count]
            ]
            for row, execution in zip(job.results, job.plan):
                row["label"] = execution["label"]
            job.status = "done"
            job.finished_at = finished
            job.done.set()
            offset += count
