"""The ``serve-mix`` workload: one ``serve`` process, two closed-loop
clients in the benchmark process.

The clients are closed-loop because sweep callers block on
``"wait": true``: each sends its next request only when the previous
reply arrived.  A seeded plan of requests is shared between them:

* 50% Q1/FT1 sweeps at n in {8, 10}, 100 trials, seeded per request;
* 30% ``herman-random-bit`` n=9 coin-bias sweeps over 16 seeded biases;
* 20% FT1 verdicts at n in {5, 6}, cache hits after warm-up;

shuffled by the seed.

Set-up starts the server (``python -u``, a start-up timeout, output to a
log file so no pipe can block it) and warms every cache the plan uses;
it is timed three times and the last server runs the plan, once per
pass.  Output
checks run after the timed window: every reply is 200, verdicts equal
the warm-up verdicts, bias values are finite and positive, and a seeded
sample of sweep jobs is replayed through a sequential ``SweepRunner``
over the job's ``batch_payloads``, whose rows must be bit-identical.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from perfbench.common import (
    ROOT,
    SETUP_REPEATS,
    WORK,
    Outcome,
    child_env,
    pass_count,
)
from perfbench.tracer import read_jsonl

PLAN_SIZE = 300
#: Nominal seconds of one pass over the plan (see ``pass_count``).
NOMINAL_SECONDS = 8.0
CLIENTS = 2
ORACLE_SAMPLE = 4
START_TIMEOUT = 60.0
REQUEST_TIMEOUT = 120.0
BIAS_FAMILY = {"family": "herman-random-bit", "n": 9}
WARM_BIASES = [round(0.05 + 0.05 * index, 2) for index in range(16)]


@dataclass(frozen=True)
class Request:
    kind: str
    method: str
    path: str
    body: dict | None = None


def make_plan(seed: int, size: int) -> list[Request]:
    """Exactly 50/30/20% sweeps/bias/verdicts, with sweep systems and
    verdict sizes taken in turn, so the seed moves the order, the sweep
    seeds and the biases but not how much work the plan holds."""
    rng = random.Random(seed)
    sweeps, biases = size // 2, size * 3 // 10
    plan = []
    for index in range(sweeps):
        point = {
            "family": ("Q1", "FT1")[index % 2],
            "n": (8, 10)[index // 2 % 2],
            "trials": 100,
            "seed": rng.randrange(2**31),
        }
        plan.append(Request("sweep", "POST", "/api/sweep",
                            {"points": [point], "wait": True}))
    for _ in range(biases):
        values = sorted(round(rng.uniform(0.05, 0.95), 6) for _ in range(16))
        plan.append(Request("bias", "POST", "/api/bias-sweep",
                            dict(BIAS_FAMILY, biases=values)))
    for index in range(size - sweeps - biases):
        plan.append(Request("verdict", "GET",
                            f"/api/verdict?family=FT1&n={5 + index % 2}"))
    rng.shuffle(plan)
    return plan


def warm_up_requests() -> list[Request]:
    """Everything the plan touches, built once: FT1 verdicts, the bias
    structure, and the kernels and tables of every sweep system."""
    requests = [
        Request("verdict", "GET", f"/api/verdict?family=FT1&n={n}")
        for n in (5, 6)
    ]
    requests.append(Request("bias", "POST", "/api/bias-sweep",
                            dict(BIAS_FAMILY, biases=WARM_BIASES)))
    for family in ("Q1", "FT1"):
        for n in (8, 10):
            point = {"family": family, "n": n, "trials": 10, "seed": 1}
            requests.append(Request("sweep", "POST", "/api/sweep",
                                    {"points": [point], "wait": True}))
    return requests


class Server:
    """One ``serve`` process on a free local port; always stopped."""

    _counter = itertools.count()

    def __init__(self, trace_path=None) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.log_path = WORK / f"serve-{os.getpid()}-{next(self._counter)}.log"
        command = [sys.executable, "-u", str(ROOT / "perfbench" / "serve_boot.py")]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        pattern = re.compile(r"listening on http://[\d.]+:(\d+)")
        while True:
            match = pattern.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}:"
                    f" {self.log_path.read_text()[-2000:]}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not up after {START_TIMEOUT}s")
            time.sleep(0.01)

    def send(self, request: Request) -> tuple[int, object]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
        )
        try:
            if request.body is None:
                connection.request(request.method, request.path)
            else:
                connection.request(
                    request.method, request.path,
                    body=json.dumps(request.body),
                    headers={"Content-Type": "application/json"},
                )
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        return response.status, payload

    def caches(self) -> dict:
        status, payload = self.send(Request("stats", "GET", "/api/caches"))
        if status != 200:
            raise RuntimeError(f"/api/caches answered {status}")
        return payload

    def vmhwm_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


def _start(trace_path=None) -> tuple[Server, dict]:
    """Start and warm one server; returns it with the warm-up verdicts."""
    server = Server(trace_path)
    try:
        verdicts = {}
        for request in warm_up_requests():
            status, payload = server.send(request)
            if status != 200:
                raise RuntimeError(f"warm-up {request.path} answered {status}")
            if request.kind == "verdict":
                verdicts[request.path] = payload
    except BaseException:
        server.stop()
        raise
    return server, verdicts


def _run_plan(server: Server, plan: list[Request]) -> tuple[float, list]:
    """Both clients drain the plan; returns the wall time and, per plan
    index, ``(latency ms, status, payload)``."""
    replies: list = [None] * len(plan)
    cursor = itertools.count()
    lock = threading.Lock()
    errors: list[BaseException] = []

    def client() -> None:
        try:
            while True:
                with lock:
                    index = next(cursor)
                if index >= len(plan):
                    return
                started = time.perf_counter()
                status, payload = server.send(plan[index])
                latency = (time.perf_counter() - started) * 1000.0
                replies[index] = (latency, status, payload)
        except BaseException as error:  # reported after join
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serve-mix clients did not finish")
    return wall, replies


def _oracle_rows(payload: dict) -> dict[str, dict]:
    """Sequential ``SweepRunner`` rows over one job's admission batch."""
    from repro.markov.sweep_engine import SweepRunner
    from repro.serving.jobs import result_payload
    from repro.serving.resolver import resolve_points

    specs = resolve_points({"points": payload["batch_payloads"]})
    rows = {}
    for spec, result in zip(specs, SweepRunner().run(specs)):
        row = result_payload(result)
        row["label"] = spec.label
        rows[spec.label] = json.loads(json.dumps(row))
    return rows


def _check(plan, replies, verdicts, sample: list[int]) -> int:
    failed = 0
    for request, (_, status, payload) in zip(plan, replies):
        if status != 200:
            failed += 1
        elif request.kind == "verdict":
            failed += payload != verdicts[request.path]
        elif request.kind == "bias":
            values = payload.get("values", [])
            failed += not (
                len(values) == len(request.body["biases"])
                and all(math.isfinite(v) and v > 0 for v in values)
            )
        elif request.kind == "sweep":
            failed += payload.get("status") != "done"
    for index in sample:
        _, status, payload = replies[index]
        if status != 200:
            continue
        oracle = _oracle_rows(payload)
        failed += any(row != oracle.get(row["label"])
                      for row in payload["results"])
    return failed


def _delta_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _serving_measured(plan, runs, before: dict, after: dict) -> dict:
    lru_before = {cache["name"]: cache for cache in before["lru"]}
    lru_after = {cache["name"]: cache for cache in after["lru"]}
    batches = after["dispatcher"]["batches"] - before["dispatcher"]["batches"]
    points = after["dispatcher"]["points"] - before["dispatcher"]["points"]
    measured = {
        "serving.dispatch.points_per_batch": points / batches if batches else 0,
        "serving.cache.verdicts.hit_ratio": _delta_ratio(
            lru_before["verdicts"], lru_after["verdicts"]),
        "serving.cache.parametric.hit_ratio": _delta_ratio(
            lru_before["parametric"], lru_after["parametric"]),
        "serving.runner.evictions": after["runner"]["evictions"],
    }
    for kind in ("sweep", "bias", "verdict"):
        latencies = [reply[0] for replies in runs
                     for request, reply in zip(plan, replies)
                     if request.kind == kind]
        measured[f"serving.{kind}.latency_p50_ms"] = (
            statistics.median(latencies) if latencies else 0
        )
    return measured


def _serve_passes(server, plan, verdicts, sample, out: Outcome,
                  passes: int) -> float:
    """Run the plan ``passes`` times, check every reply, and fold the
    results into ``out``; returns when the first pass started."""
    before = server.caches()
    started = time.perf_counter()
    runs = []
    for _ in range(passes):
        wall, replies = _run_plan(server, plan)
        out.passes.append(wall)
        runs.append(replies)
        out.latencies_ms.extend(reply[0] for reply in replies)
    after = server.caches()
    out.peak_rss_mb = max(out.peak_rss_mb, server.vmhwm_mb())
    out.measured.update(_serving_measured(plan, runs, before, after))
    # The oracle replays below compete for the CPUs: stop the server
    # first (a traced server writes its spans as it exits).
    server.stop()
    for replies in runs:
        out.ops += len(replies)
        out.attempted += len(replies)
        out.failed += _check(plan, replies, verdicts, sample)
    return started


def measure(seed: int, seconds: float, trace: bool, small: bool) -> Outcome:
    plan = make_plan(seed, 12 if small else PLAN_SIZE)
    sweeps = [index for index, request in enumerate(plan)
              if request.kind == "sweep"]
    sample = random.Random(seed + 1).sample(
        sweeps, min(ORACLE_SAMPLE, len(sweeps))
    )
    out = Outcome()
    repeats = 1 if (trace or small) else SETUP_REPEATS
    for attempt in range(repeats):
        started = time.perf_counter()
        server, verdicts = _start()
        out.setup.append(time.perf_counter() - started)
        if attempt < repeats - 1:
            server.stop()
    try:
        _serve_passes(server, plan, verdicts, sample, out,
                      1 if trace else pass_count(seconds, NOMINAL_SECONDS, 1))
    finally:
        server.stop()
    if not trace:
        return out
    traced = Outcome()
    trace_path = WORK / f"serve-spans-{os.getpid()}.jsonl"
    server, verdicts = _start(trace_path)
    try:
        plan_start = _serve_passes(server, plan, verdicts, sample, traced, 1)
    finally:
        server.stop()
    out.traced_wall = traced.passes[0]
    out.attempted += traced.attempted
    out.failed += traced.failed
    out.spans = [span for span in read_jsonl(trace_path)
                 if span.start >= plan_start]
    return out
