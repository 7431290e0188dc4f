"""End-to-end benchmark of the reproduction library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``BENCHMARK.json``):

* ``registry``    -- ``run_all()`` at default parameters, what a reader
  reproducing the paper runs; exact exploration and solves dominate;
* ``q1-large``    -- the ``Q1-large`` preset seeded with ``--seed``;
  fused lockstep Monte-Carlo dominates, no exploration;
* ``serve-mix``   -- a ``serve`` process under two closed-loop clients
  (``servemix.py``); per-request overhead, admission window, caches;
* ``campaign-66`` -- a 66-shard campaign with two workers plus resume,
  verify and report; supervision and store writes.

``--trace 0`` runs as many passes as fill ``--seconds`` at each
workload's nominal pass length and prints the end-to-end metrics (times
are medians over passes; a batch workload's latency is per pass);
``--trace 1`` runs one traced and one untraced pass, writes the
spans to ``.perfbench_work/`` as JSONL and prints the per-layer metrics,
including the tracing overhead.  The last line of output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the run's context.  The exit code is 1 when an output check
failed.  ``--small`` shrinks every workload for the self-tests;
``--write-pins`` regenerates the registry's pinned exact rows.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: End-to-end metrics, in ``BENCHMARK.json`` order: ``(name, unit)``.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

WORKLOADS = ("registry", "q1-large", "serve-mix", "campaign-66")


def _measure(workload: str, seed: int, seconds: float, trace: bool,
             small: bool):
    from perfbench import servemix, workloads

    if workload == "serve-mix":
        return servemix.measure(seed, seconds, trace, small)
    workload_class = {
        "registry": workloads.Registry,
        "q1-large": workloads.Q1Large,
        "campaign-66": workloads.Campaign,
    }[workload]
    return workloads.measure(workload_class, seed, seconds, trace, small)


def _trace_metrics(outcome, workload: str, seed: int) -> tuple[dict, int]:
    """Per-layer metrics plus the trace's own accounting; the second
    value counts failed checks of that accounting."""
    from perfbench.common import WORK
    from perfbench.layers import layer_metrics
    from perfbench.tracer import self_times, write_jsonl

    WORK.mkdir(parents=True, exist_ok=True)
    write_jsonl(outcome.spans, WORK / f"trace-{workload}-{seed}.jsonl")
    selfs = self_times(outcome.spans)
    roots = [span for span in outcome.spans if span.name == "pass"]
    layers_self = sum(
        selfs[span.id] for span in outcome.spans if span.name != "pass"
    )
    traced = outcome.traced_wall
    untraced = outcome.passes[0]
    failed = 0
    if roots:
        # Every span nests inside the pass: self times must add up to it.
        root_self = sum(selfs[span.id] for span in roots)
        failed += abs(layers_self + root_self - traced) > 1e-6 * traced
    measured = dict(outcome.measured)
    measured.update(
        {
            "trace.untraced_wall_s": untraced,
            "trace.traced_wall_s": traced,
            "trace.overhead_s": traced - untraced,
            "trace.layers_self_s": layers_self,
            "trace.remainder_s": traced - layers_self,
            "trace.spans": len(outcome.spans),
        }
    )
    return layer_metrics(outcome.spans, measured), failed


def _calibration_seconds() -> float | None:
    """The pinned host probe of ``benchmarks/run_benchmarks.py``."""
    path = ROOT / "benchmarks" / "run_benchmarks.py"
    if not path.exists():
        return None
    spec = importlib.util.spec_from_file_location("_bench_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    probe = getattr(module, "measure_calibration", None)
    return probe() if probe is not None else None


def _context(workload: str, seed: int, outcome) -> dict:
    import numpy
    import scipy

    src_lines = sum(
        len(path.read_bytes().splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "workload": workload,
        "seed": seed,
        "src_lines": src_lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_s": _calibration_seconds(),
        "passes": len(outcome.passes),
        "latency_samples": len(outcome.latencies_ms),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    # One BLAS thread per process, set before NumPy loads and inherited by
    # servers and campaign workers, so no workload runs more busy threads
    # than it starts itself.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_pins:
        from perfbench.workloads import write_pins

        write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    outcome = _measure(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.small)
    failed = outcome.failed
    if args.trace:
        metrics, trace_failed = _trace_metrics(outcome, args.workload,
                                               args.seed)
        failed += trace_failed
    else:
        values = outcome.end_to_end()
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
        }
    print(json.dumps({"context": _context(args.workload, args.seed, outcome)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
