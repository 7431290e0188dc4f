"""Job queue + group-commit dispatcher: multi-tenant sweep fusion.

The fused :class:`~repro.markov.sweep_engine.SweepRunner` is secretly an
admission batcher: points that share an (algorithm, topology) family —
whoever submitted them — fuse into one ``(Σ trials × processes)`` code
matrix.  This module exploits that for *concurrent users*: submissions
land in a queue, and a single dispatcher thread drains it in batches,
group-commit style:

1. wait until at least one job is queued — an idle dispatcher starts a
   submission at once, nothing is held back;
2. take everything queued, concatenate the points in admission order,
   and send them to the sweep worker, which executes them through one
   :meth:`SweepRunner.run` call — which groups by family, fuses what it
   legally can, and falls back to the per-point path for the rest
   (stateful samplers, over-budget tables);
3. slice the rows back per job and publish them.

Jobs submitted while a batch runs queue up and form the next batch, so
under load tenants fuse and a job waits at most for the batch ahead of
it.

Batches run in one sweep worker (:mod:`repro.workers`) forked when the
dispatcher is built, so the Monte-Carlo loop never takes the server's
GIL from the exact-tier handler threads.  A dead worker is replaced and
its batch re-run once; where ``fork`` is missing, batches run in-process.

**The oracle contract.**  One batch runs at a time in one process, and
every spec is self-seeded, so the response rows of a batch are
*bit-identical* to a sequential ``SweepRunner().run(batch_specs)`` over
the same payloads in the same admission order — each job records its
batch's full payload list (``batch_payloads``) precisely so a client
(or the conformance tests) can replay that oracle.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait

from repro.core.encoding import TABLE_CACHE
from repro.errors import ServingError
from repro.markov.montecarlo import MonteCarloResult
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.serving.resolver import resolve_point
from repro.workers import retire, spawn_context, start_worker

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


def _run_batch(runner: SweepRunner, payloads: list[dict]) -> dict:
    """The sweep worker's handler: one batch's rows, plan and table-cache
    counters, or the error that stopped it.  Points resolve one by one,
    since a batch of several jobs may exceed one submission's cap."""
    try:
        results = runner.run([resolve_point(point) for point in payloads])
    except Exception as error:  # the batch's jobs fail, not the worker
        return {"error": f"{type(error).__name__}: {error}"}
    return {
        "rows": [result_payload(result) for result in results],
        "plan": [
            {"label": run.label, "engine": run.engine,
             "fused_rows": run.fused_rows}
            for run in runner.last_plan
        ],
        "tables": TABLE_CACHE.stats(),
    }


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
    """Single-threaded group-commit executor over a shared
    :class:`SweepRunner`, which its sweep worker inherits.

    Compiled tables live in the worker's table cache, so every batch
    benefits from every previous tenant's compilations; ``tables`` is
    that cache's counters after the last batch (as forked, before it).
    ``max_jobs`` bounds the completed-job history kept for status
    queries (oldest evicted first).  One condition guards the queue,
    the job index, the worker and the closed flag.
    """

    def __init__(self, runner: SweepRunner, max_jobs: int = 1024) -> None:
        self.runner = runner
        self.max_jobs = max_jobs
        self.batches_run = 0
        self.points_run = 0
        self.tables = TABLE_CACHE.stats()
        self._pending: list[Job] = []
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._ids = itertools.count(1)
        self._closed = False
        self._condition = threading.Condition()
        self._handler = functools.partial(_run_batch, runner)
        self._context = spawn_context()
        self._forks = self._context.get_start_method() == "fork"
        self._worker = None  # forked before the dispatcher thread starts
        if self._forks:
            self._worker = start_worker(self._context, self._handler, [])
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
        with self._condition:
            if self._closed:
                raise ServingError("dispatcher is shut down")
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
            self._condition.notify()
        return job

    def job(self, job_id: str) -> Job:
        with self._condition:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServingError(f"unknown job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        with self._condition:
            return [self._jobs[job_id] for job_id in self._order]

    def stats(self) -> dict[str, object]:
        with self._condition:
            pending = len(self._pending)
            known = len(self._jobs)
        return {
            "batches": self.batches_run,
            "points": self.points_run,
            "pending_jobs": pending,
            "known_jobs": known,
        }

    def close(self) -> None:
        """Stop the dispatcher thread and reap the worker (idempotent)."""
        with self._condition:
            self._closed = True
            self._condition.notify()
        self._thread.join(timeout=10.0)
        with self._condition:
            worker, self._worker = self._worker, None
        if worker is not None:
            retire(worker, 1.0)

    # ------------------------------------------------------------------
    # the dispatcher loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._condition:
                while not self._pending and not self._closed:
                    self._condition.wait()
                batch, self._pending = self._pending, []
                if self._closed:
                    break
            self._execute(batch)
        # Shutdown: fail whatever never ran instead of hanging waiters.
        # A submit either queued before the close (and is in ``batch``)
        # or sees the closed flag under the same lock and is refused.
        for job in batch:
            job.status = "error"
            job.error = "dispatcher shut down before execution"
            job.done.set()

    def _run(self, payloads: list[dict]) -> dict:
        """One batch's worker reply; a worker that dies is replaced and
        the batch re-run once, so no batch yields two results."""
        if not self._forks:
            return self._handler(payloads)
        for _ in range(2):
            with self._condition:
                if self._worker is None and not self._closed:
                    self._worker = start_worker(
                        self._context, self._handler, []
                    )
                worker = self._worker
            if worker is None:
                return {"error": "dispatcher shut down during execution"}
            try:
                worker.conn.send(payloads)
                wait([worker.conn, worker.process.sentinel])
                if worker.conn.poll():
                    return worker.conn.recv()
            except (EOFError, OSError):
                pass
            with self._condition:
                if self._worker is worker:
                    self._worker = None
            retire(worker)
        return {"error": "the sweep worker died running this batch, twice"}

    def _execute(self, batch: list[Job]) -> None:
        started = time.monotonic()
        self.batches_run += 1
        batch_id = self.batches_run
        batch_payloads = [
            payload for job in batch for payload in job.payloads
        ]
        for job in batch:
            job.status = "running"
            job.started_at = started
            job.batch_id = batch_id
            job.batch_payloads = batch_payloads
        reply = self._run(batch_payloads)
        self.tables = reply.get("tables", self.tables)
        error = reply.get("error")  # surfaced per job, never kills the loop
        if error is None:
            self.points_run += len(batch_payloads)
        finished = time.monotonic()
        offset = 0
        for job in batch:
            count = len(job.specs)
            if error is None:
                job.results = reply["rows"][offset : offset + count]
                job.plan = reply["plan"][offset : offset + count]
                for row, execution in zip(job.results, job.plan):
                    row["label"] = execution["label"]
            job.status = "done" if error is None else "error"
            job.error = error
            job.finished_at = finished
            job.done.set()
            offset += count
