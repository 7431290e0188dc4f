"""Paths, set-up timing, statistics and the per-run outcome record."""

from __future__ import annotations

import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from perfbench.tracer import Span

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, traces and server logs; inside the checkout.
WORK = ROOT / ".perfbench_work"

#: Cold set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def cold_import_seconds(modules: tuple[str, ...]) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    ``modules``: the start-up a user of the command line pays before any
    work.  The child reads the clock itself (``perf_counter`` is the
    system-wide monotonic clock), so the parent's polling granularity
    does not round the result."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c",
         f"import {', '.join(modules)}, time; print(time.perf_counter())"],
        cwd=ROOT,
        env=child_env(),
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(completed.stdout.split()[-1]) - started


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """High-water resident set of this process or of the largest child it
    has waited for (campaign workers), in MiB."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


@dataclass
class Outcome:
    """What one workload run measured.

    ``passes`` are untraced wall times of whole passes over the
    workload; ``latencies_ms`` the per-request latencies (one per pass
    for batch workloads); ``ops`` the operations completed across all
    passes, in the workload's own unit.
    """

    setup: list[float] = field(default_factory=list)
    passes: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    ops: float = 0.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    measured: dict[str, float] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    traced_wall: float | None = None

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup),
            "wall_s": statistics.median(self.passes),
            "throughput_rps": self.ops / sum(self.passes),
            "latency_p50_ms": quantile(self.latencies_ms, 0.5),
            "latency_p90_ms": quantile(self.latencies_ms, 0.9),
            "peak_rss_mb": self.peak_rss_mb,
        }


def pass_count(seconds: float, nominal: float, minimum: int) -> int:
    """Passes that fill ``seconds`` at a pass's nominal length (a pass
    on a busy 2-vCPU host).  Fixed rather than timed, so a run that meets
    a slow minute measures the same passes as any other run, and a faster
    program is not measured over more passes than its parent."""
    return max(minimum, int(seconds // nominal))
