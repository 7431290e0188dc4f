"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest -q perfbench/selftest.py

Covers the span arithmetic, the wrapping traps, the metric names against
``BENCHMARK.json``, and a reduced-size run of every workload.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from perfbench.common import ROOT
from perfbench.layers import PER_LAYER, TARGETS, layer_metrics
from perfbench.run import END_TO_END, WORKLOADS
from perfbench.tracer import Span, Target, Tracer, by_name, install, self_times
from perfbench.workloads import rows_match

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(id, name, start, end, parent=None, **attrs):
    return Span(id, name, start, end, parent, 1, attrs)


NESTED = [
    _span(1, "pass", 0.0, 10.0),
    _span(2, "markov.hitting", 1.0, 4.0, 1),
    _span(3, "markov.hitting", 2.0, 3.0, 2),
    _span(4, "markov.build_chain", 5.0, 9.0, 1, states=7, nnz=20),
    _span(5, "core.compile_tables", 5.5, 6.0, 4, entries=11),
]


def test_self_time_subtracts_direct_children():
    selfs = self_times(NESTED)
    assert selfs == {1: 3.0, 2: 2.0, 3: 1.0, 4: 3.5, 5: 0.5}
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_by_name_counts_outermost_calls_and_sums_attrs():
    stats = by_name(NESTED)
    assert stats["markov.hitting"].calls == 1
    assert stats["markov.hitting"].self_s == pytest.approx(3.0)
    assert stats["markov.hitting"].total_s == pytest.approx(3.0)
    assert stats["markov.build_chain"].attrs == {"states": 7, "nnz": 20}


def test_layer_metrics_cover_every_per_layer_name():
    metrics = layer_metrics(NESTED, {"store.verify_s": 0.25})
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert metrics["markov.build_chain.nnz"]["value"] == 20
    assert metrics["core.compile_tables.entries"]["value"] == 11
    assert metrics["store.verify_s"]["value"] == 0.25


def test_install_replaces_from_imports_and_restores():
    import repro.experiments.q1 as q1_module
    import repro.markov.hitting as hitting_module

    original = hitting_module.hitting_summary
    tracer = Tracer()
    install(tracer, [Target("repro.markov.hitting", "hitting_summary",
                            "markov.hitting")])
    try:
        assert q1_module.hitting_summary is hitting_module.hitting_summary
        assert q1_module.hitting_summary is not original
    finally:
        tracer.restore()
    assert q1_module.hitting_summary is original
    assert hitting_module.hitting_summary is original


def test_install_takes_modules_from_sys_modules_and_wraps_classmethods():
    import repro.stabilization as package
    from repro.algorithms.token_ring import make_token_ring_system
    from repro.schedulers.relations import CentralRelation
    from repro.stabilization.statespace import StateSpace

    submodule = sys.modules["repro.stabilization.classify"]
    original = submodule.classify
    # The trap: the package's re-export shadows the submodule's name.
    assert package.classify is original
    tracer = Tracer()
    install(tracer, [target for target in TARGETS
                     if target.name in ("stabilization.explore",
                                        "stabilization.classify")])
    try:
        assert submodule.classify is not original
        assert package.classify is submodule.classify
        space = StateSpace.explore(make_token_ring_system(4),
                                   CentralRelation())
    finally:
        tracer.restore()
    assert package.classify is submodule.classify is original
    (span,) = tracer.spans
    assert span.name == "stabilization.explore"
    assert span.attrs["states"] == space.num_configurations == 81


def test_a_raising_call_keeps_its_span_so_self_times_add_up():
    tracer = Tracer()

    def failing():
        tracer.span("inner", sum, range(1000))
        raise ValueError("fallback")

    def outer():
        with pytest.raises(ValueError):
            tracer.span("failing", failing)

    tracer.span("outer", outer)
    inner, failed, root = tracer.spans
    assert failed.attrs == {"raised": True}
    assert inner.parent == failed.id and failed.parent == root.id
    assert sum(self_times(tracer.spans).values()) == pytest.approx(
        root.duration
    )


def test_restore_unbinds_wrappers_bound_while_tracing():
    import types

    import repro.markov.hitting as hitting_module

    original = hitting_module.hitting_summary
    tracer = Tracer()
    install(tracer, [Target("repro.markov.hitting", "hitting_summary",
                            "markov.hitting")])
    # A module imported lazily during the traced pass binds the wrapper.
    late = types.ModuleType("repro._late_import")
    late.hitting_summary = hitting_module.hitting_summary
    sys.modules[late.__name__] = late
    try:
        tracer.restore()
        assert late.hitting_summary is original
    finally:
        del sys.modules[late.__name__]


def test_rows_match_is_relative_on_numbers_and_exact_elsewhere():
    pinned = [{"N": 4, "E": 5.28, "class": "weak", "worst": float("inf")}]
    assert rows_match(pinned, [{"N": 4, "E": 5.28 * (1 + 1e-12),
                                "class": "weak", "worst": float("inf")}])
    assert not rows_match(pinned, [{"N": 4, "E": 5.2801, "class": "weak",
                                    "worst": float("inf")}])
    assert not rows_match(pinned, [{"N": 4, "E": 5.28, "class": "self",
                                    "worst": float("inf")}])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        PER_LAYER
    )
    names = [m["name"] for key in ("end_to_end", "per_layer", "workloads")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_of_each_workload(workload, trace):
    completed = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--small")
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert list(result["metrics"]) == [name for name, _ in expected]
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.spans"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "registry", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
