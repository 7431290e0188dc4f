"""Supervised, resumable execution of campaign shard work.

The runner owns the crash-resilience story end to end:

* **persistent workers, one data channel** — up to ``workers``
  forked :mod:`multiprocessing` processes each run shard after shard.
  A pipe carries a shard's coordinates in and an *untrusted* ack out;
  the worker's only data channel is still the atomically written shard
  file, so a worker SIGKILLed at any instant leaves either a complete,
  checksum-valid shard or nothing (plus a recognizable ``*.tmp``
  dropping) — never a torn file.  A worker exits when its pipe reaches
  end-of-file, so none outlives a killed supervisor;
* **supervision** — the supervisor blocks on the busy workers' pipes
  and process sentinels until the nearest deadline or backoff expiry;
  per-shard wall-clock timeouts (hung workers are terminated, then
  killed), validation of every finished shard through the store's
  checksum reader, replacement of every dead, erroring or timed-out
  worker, exponential backoff with deterministic jitter between
  retries, and — after ``max_retries`` — a guaranteed in-process run
  of the shard, so one pathological work item cannot starve the
  campaign;
* **graceful degradation** — after ``max_worker_deaths`` cumulative
  worker failures the runner stops trusting the process pool and
  finishes the remaining shards sequentially in-process, with a clear
  warning instead of an opaque multiprocessing traceback;
* **checkpointing** — ``manifest.json`` (atomic write, canonical JSON)
  records the selection and the completed shard keys after *every*
  shard, so :func:`resume_campaign` re-derives the exact work list,
  validates what the store already holds (quarantining corruption),
  and runs only what is missing.

Because every shard's bytes are a pure function of its coordinates
(:mod:`repro.campaign.points`), skip-and-regenerate is *byte-exact*:
an interrupted-then-resumed campaign's store is identical, file for
file, to an uninterrupted run's — the property the crash-scenario
tests and the CI smoke job assert.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import time
import warnings
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Callable, Iterable

from repro.campaign.points import (
    CampaignSelection,
    ShardSpec,
    build_sweep_spec,
    expand_selection,
    family_parts,
)
from repro.errors import CampaignError
from repro.random_source import RandomSource
from repro.store.atomic import atomic_write_text
from repro.store.columnar import ResultStore, records_from_arrays, shard_key

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "execute_shard",
    "resume_campaign",
    "run_campaign",
    "store_report",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class CampaignConfig:
    """Supervision knobs (orthogonal to the science: none of these
    change a single shard byte)."""

    workers: int = 1
    shard_timeout: float = 120.0
    max_retries: int = 2
    backoff_base: float = 0.05
    max_worker_deaths: int = 4
    sequential: bool = False


@dataclass
class CampaignReport:
    """What one :func:`run_campaign` call did."""

    total: int = 0
    completed: int = 0
    cached: int = 0
    executed: int = 0
    in_process: int = 0
    retries: int = 0
    worker_deaths: int = 0
    quarantined: int = 0
    degraded: bool = False

    def row(self) -> dict[str, object]:
        """Dict form for tables and the CLI summary line."""
        return {
            "shards": self.total,
            "completed": self.completed,
            "cached": self.cached,
            "executed": self.executed,
            "in_process": self.in_process,
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "quarantined": self.quarantined,
            "degraded": self.degraded,
        }


# ----------------------------------------------------------------------
# shard execution (worker side)
# ----------------------------------------------------------------------
def execute_shard(root: str | os.PathLike, meta: dict) -> str:
    """Run one shard from its metadata and persist it; returns the key.

    This is the whole worker: rebuild the sweep point from coordinates,
    stream its per-trial outcomes through a sink, write one atomic
    shard file.  Runs identically in a child process and in-process
    (the degraded path), which is what makes degradation semantically
    invisible.
    """
    from repro.markov.sweep_engine import SweepRunner

    store = ResultStore(root)
    key = shard_key(meta)
    spec = build_sweep_spec(meta)
    emitted: list = []
    SweepRunner().run([spec], sink=emitted.append, keep_samples=False)
    (outcome,) = emitted
    records = records_from_arrays(
        point=int(meta["point"]),
        trial_offset=int(meta["trial_offset"]),
        times=outcome.times,
        converged=outcome.converged,
        timed_out=outcome.timed_out,
        hit_terminal=outcome.hit_terminal,
        fault_times=outcome.fault_times,
        rounds=outcome.rounds,
    )
    store.write(key, records, meta)
    return key


def _worker_loop(root: str, inbox, inherited: list) -> None:
    """Child-process entry point (module-level for picklability): run
    every shard whose metadata arrives on ``inbox``, acking each with
    its key, until the supervisor's end of the pipe closes.

    ``inherited`` are the supervisor-side pipe ends a fork copied into
    this child (its own and every earlier worker's).  They are closed
    first: a copy left open would keep a pipe from reaching end-of-file
    when the supervisor dies, and the workers would wait on it forever.
    An exception from :func:`execute_shard` ends the process, which the
    supervisor counts as a worker death.
    """
    for connection in inherited:
        connection.close()
    while True:
        try:
            meta = inbox.recv()
        except (EOFError, OSError):  # the supervisor closed or died
            return
        key = execute_shard(root, meta)
        try:
            inbox.send(key)
        except OSError:  # the supervisor is gone
            return


# ----------------------------------------------------------------------
# checkpoint manifest
# ----------------------------------------------------------------------
def _manifest_path(root: pathlib.Path) -> pathlib.Path:
    return root / MANIFEST_NAME


def _write_manifest(
    root: pathlib.Path, selection: CampaignSelection, completed: set[str]
) -> None:
    payload = {
        "version": MANIFEST_VERSION,
        "selection": selection.as_dict(),
        "completed": sorted(completed),
    }
    atomic_write_text(
        _manifest_path(root),
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
    )


def _read_manifest(root: pathlib.Path) -> dict:
    path = _manifest_path(root)
    if not path.exists():
        raise CampaignError(f"no campaign manifest at {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise CampaignError(
            f"unreadable campaign manifest {path}: {error}"
        ) from None
    if payload.get("version") != MANIFEST_VERSION:
        raise CampaignError(
            f"campaign manifest {path} has version"
            f" {payload.get('version')!r}, expected {MANIFEST_VERSION}"
        )
    return payload


# ----------------------------------------------------------------------
# supervision
# ----------------------------------------------------------------------
def _spawn_context():
    """Fork where the platform has it (cheap, and the workers inherit
    the tables :func:`_warm_tables` compiled, copy-on-write); the
    default context otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


def _warm_tables(shards: Iterable[ShardSpec]) -> None:
    """Compile, through the process-wide table cache, every system that
    at least two of ``shards`` run, so forked workers share one
    compilation instead of compiling a copy each.  A system only one
    shard runs still compiles in its worker, so warming never costs a
    campaign time; a system whose warm-up fails is left uncached and
    its shards run exactly as they would cold."""
    from repro.core.encoding import tables_for
    from repro.store.columnar import system_cache_key

    points: dict[int, list[dict]] = {}
    for shard in shards:
        points.setdefault(shard.meta["point"], []).append(shard.meta)
    systems: dict[str, list] = {}  # cache key → [system, shard count]
    for metas in points.values():
        meta = metas[0]
        system = family_parts(meta["family"], meta["params"])["system"]
        key = system_cache_key(system)
        if key is not None:
            systems.setdefault(key, [system, 0])[1] += len(metas)
    for system, count in systems.values():
        if count >= 2:
            try:
                tables_for(system)
            except Exception:  # the workers meet it as they would cold
                pass


@dataclass
class _Worker:
    """A persistent worker process and the supervisor's end of its
    pipe; ``shard`` is the shard it runs (``None`` while idle)."""

    process: multiprocessing.Process
    conn: Connection
    shard: ShardSpec | None = None
    deadline: float = 0.0


def _start_worker(
    context, root: pathlib.Path, workers: list[_Worker]
) -> _Worker:
    """Fork a worker on a fresh pipe; the child is handed every
    supervisor-side end it inherits (``workers``' and its own) to close."""
    conn, inbox = context.Pipe()
    process = context.Process(
        target=_worker_loop,
        args=(str(root), inbox, [worker.conn for worker in workers] + [conn]),
        daemon=True,
    )
    process.start()
    inbox.close()
    return _Worker(process=process, conn=conn)


def run_campaign(
    root: str | os.PathLike,
    selection: CampaignSelection,
    config: CampaignConfig | None = None,
    progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Run (or continue) a campaign into ``root``; returns the report.

    Idempotent by construction: shards whose files already exist and
    validate are cache hits (``cached`` in the report), corrupt files
    are quarantined and their shards re-executed, and the manifest is
    checkpointed after every completion — killing this function at any
    point and calling it again converges to the same store.
    """
    config = config or CampaignConfig()
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    store = ResultStore(root)
    swept = store.sweep_temp()
    say = progress or (lambda message: None)
    if swept:
        say(f"swept {swept} interrupted shard write(s)")

    shards = expand_selection(selection)
    report = CampaignReport(total=len(shards))
    completed: set[str] = set()

    # Preflight: trust nothing but validated bytes.  Corrupt shards are
    # quarantined here (scheduling their regeneration below); valid
    # ones are cache hits even if the manifest never heard of them.
    quarantine_before = len(list(store.quarantine_dir.iterdir()))
    pending: deque[tuple[ShardSpec, float]] = deque()
    for shard in shards:
        if store.load(shard.key) is not None:
            completed.add(shard.key)
            report.cached += 1
        else:
            pending.append((shard, 0.0))
    report.quarantined += (
        len(list(store.quarantine_dir.iterdir())) - quarantine_before
    )
    if report.quarantined:
        say(
            f"quarantined {report.quarantined} corrupt shard(s);"
            " scheduling regeneration"
        )
    _write_manifest(root, selection, completed)

    attempts: dict[str, int] = {}
    workers: list[_Worker] = []
    slots = max(1, config.workers)
    degraded = config.sequential
    worker_deaths = 0
    context = _spawn_context()
    if not degraded and context.get_start_method() == "fork":
        _warm_tables(shard for shard, _ in pending)
    # Deterministic jitter stream: supervision timing must not consult
    # global randomness (and shard bytes never depend on it anyway).
    jitter_rng = RandomSource(selection.seed).spawn(0x5EED)

    def finish(shard: ShardSpec) -> bool:
        """Validate the shard's output; record completion if sound."""
        if store.load(shard.key) is None:
            return False
        completed.add(shard.key)
        report.completed += 1
        _write_manifest(root, selection, completed)
        return True

    def run_in_process(shard: ShardSpec) -> None:
        execute_shard(root, shard.meta)
        report.executed += 1
        report.in_process += 1
        if not finish(shard):
            raise CampaignError(
                f"in-process shard {shard.key} produced no valid file"
            )

    def handle_failure(shard: ShardSpec, reason: str) -> None:
        nonlocal degraded, worker_deaths
        worker_deaths += 1
        report.worker_deaths += 1
        if not degraded and worker_deaths >= config.max_worker_deaths:
            degraded = True
            warnings.warn(
                f"campaign: {worker_deaths} worker failures — degrading"
                " to in-process sequential execution",
                RuntimeWarning,
                stacklevel=2,
            )
            say("degrading to in-process sequential execution")
        attempt = attempts.get(shard.key, 0) + 1
        attempts[shard.key] = attempt
        if attempt > config.max_retries:
            say(
                f"shard {shard.key[:12]}… exhausted retries after"
                f" {reason}; running in-process"
            )
            run_in_process(shard)
            return
        delay = config.backoff_base * (2 ** (attempt - 1))
        delay *= 1.0 + jitter_rng.random()
        say(
            f"shard {shard.key[:12]}… failed ({reason});"
            f" retry {attempt}/{config.max_retries} in {delay:.2f}s"
        )
        pending.append((shard, time.monotonic() + delay))

    def retire(worker: _Worker, grace: float = 0.0) -> None:
        """Close the worker's pipe (it exits once its shard, if any, is
        done) and join it, terminating, then killing it after ``grace``
        seconds."""
        workers.remove(worker)
        worker.conn.close()
        process = worker.process
        process.join(grace)
        if process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():  # pragma: no cover - stubborn child
                process.kill()
                process.join()

    def fail(worker: _Worker, reason: str | None = None) -> None:
        """Replace a dead, erroring or overdue worker; retry its shard."""
        retire(worker)
        handle_failure(
            worker.shard, reason or f"exit code {worker.process.exitcode}"
        )

    def settle(worker: _Worker) -> None:
        """Collect a busy worker whose pipe or sentinel woke the wait.
        The ack only says the worker is free again; the shard counts as
        done when its file validates."""
        try:
            worker.conn.recv()
        except (EOFError, OSError):
            fail(worker)
            return
        if not finish(worker.shard):
            fail(worker, "no valid shard file")
            return
        report.executed += 1
        worker.shard = None

    try:
        while True:
            if degraded:
                # Requeue in-flight shards once their workers have
                # finished or died (bounded by the shard deadline): the
                # drain's ``store.load`` check below credits any that
                # completed, and dropping one would lose its work item.
                for worker in list(workers):
                    grace = 1.0
                    if worker.shard is not None:
                        pending.append((worker.shard, 0.0))
                        grace = max(0.0, worker.deadline - time.monotonic())
                    retire(worker, grace)
                while pending:
                    shard, _ = pending.popleft()
                    if store.load(shard.key) is not None:
                        completed.add(shard.key)
                        report.completed += 1
                        _write_manifest(root, selection, completed)
                        continue
                    run_in_process(shard)
                break
            # Launch work whose backoff delay has elapsed, forking a
            # worker only when no idle one is left and a slot is free.
            now = time.monotonic()
            for _ in range(len(pending)):
                idle = [worker for worker in workers if worker.shard is None]
                if not idle and len(workers) >= slots:
                    break
                shard, ready_at = pending.popleft()
                if now < ready_at:
                    pending.append((shard, ready_at))
                    continue
                if attempts.get(shard.key, 0) > 0:
                    report.retries += 1
                if idle:
                    worker = idle[0]
                else:
                    worker = _start_worker(context, root, workers)
                    workers.append(worker)
                worker.shard = shard
                worker.deadline = time.monotonic() + config.shard_timeout
                try:
                    worker.conn.send(shard.meta)
                except OSError:  # it died while idle
                    fail(worker)
            busy = [worker for worker in workers if worker.shard is not None]
            if not busy and not pending:
                break
            # Sleep until a busy worker answers or dies, or until the
            # nearest deadline or backoff expiry.
            wake = [worker.deadline for worker in busy]
            if len(busy) < slots:
                wake += [ready_at for _, ready_at in pending]
            ready = set(
                wait(
                    [worker.conn for worker in busy]
                    + [worker.process.sentinel for worker in busy],
                    max(0.0, min(wake) - time.monotonic()),
                )
            )
            now = time.monotonic()
            for worker in busy:
                if worker.conn in ready or worker.process.sentinel in ready:
                    settle(worker)
                elif now >= worker.deadline:
                    fail(worker, "timeout")
    finally:
        for worker in list(workers):
            retire(worker, 1.0 if worker.shard is None else 0.0)

    _write_manifest(root, selection, completed)
    report.degraded = degraded and not config.sequential
    say(
        f"campaign complete: {report.completed + report.cached}/"
        f"{report.total} shards ({report.cached} cached)"
    )
    return report


def resume_campaign(
    root: str | os.PathLike,
    config: CampaignConfig | None = None,
    progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Continue the campaign checkpointed in ``root``.

    The selection is reloaded from the manifest; :func:`run_campaign`'s
    idempotence does the rest (validated shards skip, missing and
    quarantined shards regenerate).
    """
    payload = _read_manifest(pathlib.Path(root))
    selection = CampaignSelection.from_dict(payload["selection"])
    return run_campaign(root, selection, config, progress)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def store_report(root: str | os.PathLike) -> list[dict[str, object]]:
    """Aggregate a campaign store into per-point summary rows.

    Reads every valid shard (corrupt ones are quarantined, not
    counted), groups by ``(family, n)``, and reduces the per-trial
    columns — the ``campaign --report`` table.
    """
    import numpy as np

    store = ResultStore(root)
    groups: dict[tuple[str, int], list] = {}
    for key in store.keys():
        loaded = store.load(key)
        if loaded is None:
            continue
        records, meta = loaded
        groups.setdefault(
            (meta["family"], int(meta["params"]["n"])), []
        ).append(records)
    rows: list[dict[str, object]] = []
    for (family, size), blocks in sorted(groups.items()):
        records = np.concatenate(blocks)
        converged = records["converged"]
        times = records["time"][converged]
        fired = records["fault_time"] >= 0
        row: dict[str, object] = {
            "family": family,
            "N": size,
            "trials": int(len(records)),
            "converged": int(converged.sum()),
            "timed_out": int(records["timed_out"].sum()),
            "mean_time": round(float(times.mean()), 3) if times.size else "-",
            "max_time": int(times.max()) if times.size else "-",
        }
        if fired.any():
            recovery = (records["time"] - records["fault_time"])[
                converged & fired
            ]
            row["mean_recovery"] = (
                round(float(recovery.mean()), 3) if recovery.size else "-"
            )
        rows.append(row)
    return rows
