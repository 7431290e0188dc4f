"""Entry point: run the infrastructure micro-benchmarks, persist results.

Runs ``bench_infrastructure.py``, ``bench_batch_engine.py``,
``bench_sharded_explore.py``, ``bench_chain_build.py``,
``bench_sweep_fusion.py``, ``bench_fault_injection.py``,
``bench_mdp_solve.py``, ``bench_step_backend.py``,
``bench_parametric_sweep.py``, ``bench_campaign_store.py``, and
``bench_serving_fusion.py`` through pytest-benchmark and appends a
condensed, machine-readable record to ``benchmarks/BENCH_kernel.json``
so the performance trajectory of the execution engine (state-space
exploration, chain building and hitting
solves, simulation throughput, batch Monte-Carlo throughput, fused
multi-point sweeps, fault-injection overhead, MDP value iteration,
the deterministic lockstep step, multi-tenant serving fusion) is tracked
across PRs.  Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--label "note"]
    PYTHONPATH=src python benchmarks/run_benchmarks.py --check-regressions

``--check-regressions`` guards *speed*; the correctness counterpart is
the cross-engine conformance tier, which asserts that every accelerated
path still matches its scalar oracle::

    PYTHONPATH=src python -m pytest -m conformance -q

Run both before recording a perf-sensitive change: a fast engine that
drifted from its oracle is a bug the regression check cannot see.

The JSON file holds a list of runs, newest last; each run records the
per-benchmark min/mean/stddev seconds and round counts.

Every recorded run is compared against the most recent *healthy*
record (the newest one not itself tagged): a run where any shared hot
path slowed down by more than ``REGRESSION_TOLERANCE`` (25%) is still
recorded — the trajectory stays honest — but tagged
``"regressed": true`` and skipped when choosing future baselines, so
slow runs never ratchet the bar downward no matter which flags they
were recorded with.  ``--check-regressions`` additionally fails the
invocation with a non-zero exit when the fresh run regressed, so a CI
hook or a pre-merge run catches performance regressions the
correctness suite cannot see.

Records are taken on whatever machine happens to run them, so every
run first times a pinned calibration probe (a fixed numpy gather +
pure-Python loop workload that exercises no repro code and therefore
never changes across PRs) and stores it as ``"calibration_seconds"``.
When both records carry a calibration time, the regression threshold is
scaled by the measured host-drift factor — a machine that runs the
*unchanging* probe 1.6× slower is allowed to run the benchmarks 1.6×
slower before anything is called a regression.  The factor is clamped
to ``[1.0, DRIFT_CAP]``: a *faster* host never loosens the bar, and a
pathological probe cannot mask a real slowdown beyond the cap.

Each record also carries a ``"step_profile"`` section: per-phase
(gather / draw / legitimacy / retire) millisecond totals from one
profiled lockstep batch run (``BatchEngine.run(..., profile=True)``),
so shifts in where step time goes are visible alongside shifts in how
much there is.

Before benchmarking, the runner doctests ``README.md`` and every
markdown file under ``docs/`` (the same check as
``tests/test_docs.py``), so the documented commands and examples cannot
rot unnoticed; ``--skip-docs`` bypasses it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SUITE = (
    BENCH_DIR / "bench_infrastructure.py",
    BENCH_DIR / "bench_batch_engine.py",
    BENCH_DIR / "bench_sharded_explore.py",
    BENCH_DIR / "bench_chain_build.py",
    BENCH_DIR / "bench_sweep_fusion.py",
    BENCH_DIR / "bench_fault_injection.py",
    BENCH_DIR / "bench_mdp_solve.py",
    BENCH_DIR / "bench_step_backend.py",
    BENCH_DIR / "bench_parametric_sweep.py",
    BENCH_DIR / "bench_campaign_store.py",
    BENCH_DIR / "bench_serving_fusion.py",
)
OUTPUT = BENCH_DIR / "BENCH_kernel.json"

#: ``--check-regressions`` fails on a hot path slower than the previous
#: record by more than this fraction (min-of-rounds vs min-of-rounds),
#: after scaling by the measured host-drift factor.
REGRESSION_TOLERANCE = 0.25

#: Host-drift scaling never loosens the threshold beyond this factor —
#: a slow host explains a 2× slowdown at most; anything past that is
#: surfaced as a regression regardless of what the probe measured.
DRIFT_CAP = 2.0


def _bench_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def measure_calibration(rounds: int = 5) -> float:
    """Best-of-``rounds`` seconds for a pinned probe workload.

    The probe never touches repro code, so across PRs its runtime moves
    only when the *host* does (CPU contention, frequency scaling, a
    different machine).  It mixes a vectorized numpy gather-reduce with
    a pure-Python accumulation loop so both memory-bandwidth drift and
    interpreter-speed drift register.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.random(1_000_000)
    index = rng.integers(0, table.size, size=400_000)
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        gathered = 0.0
        for _ in range(20):
            gathered += float(table[index].sum())
        looped = 0
        for value in range(200_000):
            looped += value ^ (value >> 3)
        best = min(best, time.perf_counter() - started)
    assert gathered and looped  # keep both workloads live
    return best


def collect_step_profile() -> dict:
    """Per-phase millisecond totals from one profiled lockstep run.

    Runs in a subprocess with ``PYTHONPATH=src`` (this script itself may
    be launched without it) and returns the
    ``BatchRunResult.profile`` dict of a fixed central-daemon point.
    """
    script = (
        "import json;"
        "from repro.algorithms.token_ring import make_token_ring_system;"
        "from repro.markov.batch import (BatchEngine,"
        " EnabledCountLegitimacy, batch_strategy_for, compile_legitimacy,"
        " encode_initials);"
        "from repro.markov.montecarlo import random_configurations;"
        "from repro.random_source import RandomSource;"
        "from repro.schedulers.samplers import CentralRandomizedSampler;"
        "system = make_token_ring_system(9);"
        "engine = BatchEngine(system);"
        "codes = encode_initials(engine.encoding,"
        " random_configurations(system, RandomSource(8), 32), 4000);"
        "result = engine.run(batch_strategy_for("
        "CentralRandomizedSampler()),"
        " compile_legitimacy(EnabledCountLegitimacy(1)), codes, 200,"
        " RandomSource(8).numpy_generator(), profile=True);"
        "print(json.dumps(result.profile))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=REPO_ROOT,
        env=_bench_env(),
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise SystemExit(
            "step-profile collection failed:\n" + completed.stderr
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_docs_check() -> None:
    """Doctest README.md and docs/*.md so documented commands can't rot."""
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(REPO_ROOT / "tests" / "test_docs.py"),
        "-q",
    ]
    completed = subprocess.run(command, cwd=REPO_ROOT, env=_bench_env())
    if completed.returncode != 0:
        raise SystemExit(
            "documentation check failed — fix README/docs before recording"
            " benchmarks"
        )


def run_suite(raw_json_path: pathlib.Path) -> None:
    """Execute the suite under pytest-benchmark, writing its raw JSON."""
    command = [
        sys.executable,
        "-m",
        "pytest",
        *(str(suite) for suite in SUITE),
        "-q",
        "--benchmark-only",
        f"--benchmark-json={raw_json_path}",
    ]
    completed = subprocess.run(command, cwd=REPO_ROOT, env=_bench_env())
    if completed.returncode != 0:
        raise SystemExit(completed.returncode)


def condense(
    raw: dict,
    label: str | None,
    calibration_seconds: float | None = None,
    step_profile: dict | None = None,
) -> dict:
    """Reduce pytest-benchmark's verbose JSON to the trajectory record."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "label": label,
        "machine": raw.get("machine_info", {}).get("node"),
        "python": raw.get("machine_info", {}).get("python_version"),
        "calibration_seconds": calibration_seconds,
        "step_profile": step_profile,
        "benchmarks": [
            {
                "name": bench["name"],
                "min_seconds": bench["stats"]["min"],
                "mean_seconds": bench["stats"]["mean"],
                "stddev_seconds": bench["stats"]["stddev"],
                "rounds": bench["stats"]["rounds"],
            }
            for bench in raw.get("benchmarks", [])
        ],
    }


def drift_factor(previous: dict, current: dict) -> float:
    """Host-drift multiplier from the pinned calibration probes.

    ``current_probe / previous_probe`` clamped to ``[1.0, DRIFT_CAP]``;
    ``1.0`` (no scaling) when either record predates calibration.
    """
    before = previous.get("calibration_seconds")
    now = current.get("calibration_seconds")
    if not before or not now:
        return 1.0
    return min(max(now / before, 1.0), DRIFT_CAP)


def find_regressions(
    previous: dict, current: dict, tolerance: float = REGRESSION_TOLERANCE
) -> list[tuple[str, float, float]]:
    """Hot paths slower than the previous record beyond ``tolerance``.

    Compares min-of-rounds (the least noisy statistic) for every
    benchmark name present in *both* runs; returns
    ``(name, previous_min, current_min)`` triples.  The threshold is
    scaled by :func:`drift_factor`, so a uniformly slower host does not
    flag every hot path as regressed.
    """
    baseline = {
        bench["name"]: bench["min_seconds"]
        for bench in previous.get("benchmarks", [])
    }
    drift = drift_factor(previous, current)
    regressions = []
    for bench in current.get("benchmarks", []):
        before = baseline.get(bench["name"])
        if before is None:
            continue
        now = bench["min_seconds"]
        if now > before * (1.0 + tolerance) * drift:
            regressions.append((bench["name"], before, now))
    return regressions


def _write_history(history: list) -> None:
    """Atomically replace ``BENCH_kernel.json``.

    Temp file + fsync + rename through :mod:`repro.store.atomic` — the
    same write path the result store uses — so a crash mid-write leaves
    the previous perf history intact instead of a truncated JSON file.
    """
    try:
        from repro.store.atomic import atomic_write_text
    except ImportError:  # launched without PYTHONPATH=src
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.store.atomic import atomic_write_text
    atomic_write_text(OUTPUT, json.dumps(history, indent=2) + "\n")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--label",
        default=None,
        help="free-form note stored with this run (e.g. a PR id)",
    )
    parser.add_argument(
        "--skip-docs",
        action="store_true",
        help="skip the README/docs doctest check",
    )
    parser.add_argument(
        "--check-regressions",
        action="store_true",
        help="after recording, compare against the previous record and"
        " exit non-zero on a >25%% slowdown in any shared hot path",
    )
    args = parser.parse_args(argv)

    if not args.skip_docs:
        run_docs_check()

    calibration = measure_calibration()
    step_profile = collect_step_profile()
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = pathlib.Path(tmp) / "raw.json"
        run_suite(raw_path)
        raw = json.loads(raw_path.read_text(encoding="utf-8"))

    record = condense(raw, args.label, calibration, step_profile)
    history = (
        json.loads(OUTPUT.read_text(encoding="utf-8"))
        if OUTPUT.exists()
        else []
    )
    # Baseline = newest record not itself tagged as a regression, so a
    # slow run cannot become the bar the next run is measured against.
    # Tagging happens on every recording; --check-regressions only
    # controls whether a regression also fails the invocation.
    baseline = next(
        (run for run in reversed(history) if not run.get("regressed")),
        None,
    )
    regressions = (
        find_regressions(baseline, record) if baseline is not None else []
    )
    if regressions:
        record["regressed"] = True
    history.append(record)
    _write_history(history)
    print(f"recorded {len(record['benchmarks'])} benchmarks -> {OUTPUT}")
    print(f"  calibration probe: {calibration * 1000:.2f} ms")
    print(
        "  step profile (ms): "
        + ", ".join(
            f"{phase}={value:.1f}"
            for phase, value in sorted(step_profile.items())
        )
    )
    for bench in record["benchmarks"]:
        print(f"  {bench['name']}: {bench['mean_seconds'] * 1000:.2f} ms mean")

    if args.check_regressions:
        if baseline is None:
            print("no previous record; nothing to compare against")
            return
        drift = drift_factor(baseline, record)
        print(f"host-drift factor vs baseline: {drift:.2f}x")
        if regressions:
            print(
                f"PERFORMANCE REGRESSIONS vs {baseline.get('label')!r}"
                f" ({len(regressions)}):"
            )
            for name, before, now in regressions:
                print(
                    f"  {name}: {before * 1000:.2f} ms -> {now * 1000:.2f} ms"
                    f" ({now / before:.2f}x)"
                )
            raise SystemExit(1)
        print(
            "no regressions beyond"
            f" {REGRESSION_TOLERANCE:.0%} vs {baseline.get('label')!r}"
        )


if __name__ == "__main__":
    main()
