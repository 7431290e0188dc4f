"""The in-process workloads: ``registry``, ``q1-large`` and ``campaign-66``.

Each is a class with three steps per pass: ``prepare`` (untimed inputs),
``work`` (the timed call into the library, exactly what a user runs) and
``check`` (untimed output checks, counted into ``attempted``/``failed``).
:func:`measure` runs the workload's fixed number of passes or, traced,
one traced pass and then one untraced pass.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import statistics
import time

from perfbench.common import (
    SETUP_REPEATS,
    WORK,
    Outcome,
    cold_import_seconds,
    pass_count,
    peak_rss_mb,
)
from perfbench.layers import TARGETS
from perfbench.tracer import Tracer, install

PINS = pathlib.Path(__file__).resolve().parent / "registry_pins.json"

#: Registry experiments whose rows come from seeded simulation, not from
#: exact exploration or solves; their rows are not pinned.
SIMULATED = {"FIG1", "FT1"}


def exact_rows(experiment_id: str, rows: list[dict]) -> list[dict]:
    """The rows of one experiment that exact computation determines."""
    if experiment_id in SIMULATED:
        return []
    return [
        row for row in rows
        if not str(row.get("method", "")).startswith("monte-carlo")
    ]


def _same(expected, actual) -> bool:
    numbers = (int, float)
    if (
        isinstance(expected, numbers) and isinstance(actual, numbers)
        and not isinstance(expected, bool) and not isinstance(actual, bool)
    ):
        if math.isinf(expected) or math.isinf(actual):
            return expected == actual
        return math.isclose(expected, actual, rel_tol=1e-9, abs_tol=0.0)
    return expected == actual


def rows_match(expected: list[dict], actual: list[dict]) -> bool:
    """Pinned rows equal the fresh ones, numbers to 1e-9 relative."""
    actual = json.loads(json.dumps(actual))
    return len(expected) == len(actual) and all(
        want.keys() == got.keys()
        and all(_same(want[key], got[key]) for key in want)
        for want, got in zip(expected, actual)
    )


def write_pins() -> None:
    """Regenerate ``registry_pins.json`` from the checked-out library."""
    from repro.experiments.registry import run_all

    pins = {
        result.experiment_id: exact_rows(result.experiment_id, result.rows)
        for result in run_all()
    }
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


class Registry:
    """``run_all()`` at default parameters; one op is one experiment.

    The registry keeps its pinned seeds, so the workload seed is unused.
    """

    modules = ("repro.experiments.registry",)
    nominal_seconds = 23.0
    minimum_passes = 1

    def __init__(self, seed: int, small: bool) -> None:
        self.small = small
        self.pins = json.loads(PINS.read_text())

    def prepare(self, index: int):
        return None

    def work(self, context):
        from repro.experiments.registry import run_all

        return run_all(fast=self.small)

    def check(self, context, results, out: Outcome) -> None:
        out.ops += len(results)
        out.attempted += len(results)
        for result in results:
            ok = result.passed
            if not self.small:
                ok = ok and rows_match(
                    self.pins.get(result.experiment_id, []),
                    exact_rows(result.experiment_id, result.rows),
                )
            out.failed += not ok


class Q1Large:
    """The ``Q1-large`` preset with the workload seed as Q1's ``seed``;
    ops are Monte-Carlo trial steps, so ``throughput_rps`` is simulated
    steps per second."""

    modules = ("repro.experiments.registry",)
    nominal_seconds = 9.5
    minimum_passes = 1

    def __init__(self, seed: int, small: bool) -> None:
        from repro.experiments.registry import PRESETS

        experiment_id, overrides = PRESETS["Q1-large"]
        self.experiment_id = experiment_id
        self.params = dict(overrides, seed=seed)
        if small:
            self.params.update(
                exact_sizes=(3, 4), monte_carlo_sizes=(20,), trials=100
            )

    def prepare(self, index: int):
        return []

    def work(self, sweeps: list):
        from repro.experiments.registry import get_experiment
        from repro.markov.sweep_engine import SweepRunner

        original = SweepRunner.run

        def capture(runner, points, *args, **kwargs):
            results = original(runner, points, *args, **kwargs)
            sweeps.extend(results)
            return results

        SweepRunner.run = capture
        try:
            return get_experiment(self.experiment_id).run(**self.params)
        finally:
            SweepRunner.run = original

    def check(self, sweeps, result, out: Outcome) -> None:
        out.ops += sum(
            sweep.stats.mean * sweep.converged
            for sweep in sweeps if sweep.stats is not None
        )
        out.attempted += 1
        out.failed += not (
            result.passed and sweeps
            and all(sweep.censored == 0 for sweep in sweeps)
        )


class Campaign:
    """A fresh 66-shard campaign, then its read side; one op is a shard.

    Q1, Q3 and FT1 at sizes 6 and 8, 1100 trials in 100-trial shards,
    two workers, the workload seed as master seed.  The timed pass also
    resumes the finished campaign, verifies the store and builds the
    report, each timed into the ``store.*`` metrics.
    """

    modules = ("repro.campaign",)
    nominal_seconds = 4.8
    minimum_passes = 2

    def __init__(self, seed: int, small: bool) -> None:
        from repro.campaign import CampaignConfig, CampaignSelection

        self.selection = CampaignSelection(
            families=("Q1",) if small else ("Q1", "Q3", "FT1"),
            sizes=(6,) if small else (6, 8),
            trials=200 if small else 1100,
            shard_trials=100,
            seed=seed,
        )
        self.config = CampaignConfig(workers=2)
        self.reference_rows = None
        self.timings: dict[str, list[float]] = {}

    def prepare(self, index: int) -> pathlib.Path:
        root = WORK / f"campaign-{os.getpid()}-{index}"
        shutil.rmtree(root, ignore_errors=True)
        return root

    def work(self, root: pathlib.Path) -> dict:
        from repro.campaign import resume_campaign, run_campaign, store_report
        from repro.store import ResultStore

        report = run_campaign(root, self.selection, self.config)
        timings = {}
        started = time.perf_counter()
        resumed = resume_campaign(root, self.config)
        timings["resume_s"] = time.perf_counter() - started
        started = time.perf_counter()
        ok, corrupt = ResultStore(root).verify()
        timings["verify_s"] = time.perf_counter() - started
        started = time.perf_counter()
        rows = store_report(root)
        timings["report_s"] = time.perf_counter() - started
        return {
            "report": report, "resumed": resumed, "ok": ok,
            "corrupt": corrupt, "rows": rows, "timings": timings,
        }

    def check(self, root: pathlib.Path, result: dict, out: Outcome) -> None:
        report, resumed = result["report"], result["resumed"]
        total = report.total
        out.ops += report.completed
        out.attempted += total + 1
        out.failed += total - report.completed
        out.failed += len(result["corrupt"])
        out.failed += len(result["ok"]) != total
        out.failed += not (
            resumed.cached == total and resumed.executed == 0
        )
        if self.reference_rows is None:
            self.reference_rows = result["rows"]
        out.failed += result["rows"] != self.reference_rows or not result["rows"]
        for key, value in result["timings"].items():
            self.timings.setdefault(key, []).append(value)
        written = sum(
            path.stat().st_size for path in root.rglob("*") if path.is_file()
        )
        out.measured.update(
            {
                "campaign.shards": total,
                "campaign.executed": report.executed,
                "campaign.retries": report.retries,
                "campaign.worker_deaths": report.worker_deaths,
                "campaign.quarantined": report.quarantined,
                "campaign.in_process": report.in_process,
                "store.bytes_written": written,
                **{
                    f"store.{key}": statistics.median(values)
                    for key, values in self.timings.items()
                },
            }
        )
        shutil.rmtree(root, ignore_errors=True)


def _one_pass(workload, out: Outcome, index: int,
              tracer: Tracer | None = None) -> float:
    context = workload.prepare(index)
    if tracer is None:
        started = time.perf_counter()
        result = workload.work(context)
        wall = time.perf_counter() - started
    else:
        result = tracer.span("pass", workload.work, context)
        wall = tracer.spans[-1].duration
    workload.check(context, result, out)
    return wall


def measure(workload_class, seed: int, seconds: float, trace: bool,
            small: bool) -> Outcome:
    out = Outcome()
    if not trace:
        out.setup = [
            cold_import_seconds(workload_class.modules)
            for _ in range(SETUP_REPEATS)
        ]
    workload = workload_class(seed, small)
    if trace:
        # Traced pass first: it pays the process's cold start, so the
        # reported overhead is an upper bound.
        tracer = Tracer()
        install(tracer, TARGETS)
        try:
            out.traced_wall = _one_pass(workload, out, 0, tracer)
        finally:
            tracer.restore()
        out.spans = tracer.spans
        out.passes.append(_one_pass(workload, out, 1))
    else:
        for index in range(pass_count(seconds, workload.nominal_seconds,
                                      workload.minimum_passes)):
            out.passes.append(_one_pass(workload, out, index))
    out.latencies_ms = [wall * 1000.0 for wall in out.passes]
    out.peak_rss_mb = peak_rss_mb()
    return out
