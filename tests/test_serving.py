"""Serving-tier tests: warm caches, admission fusion, bit-identity.

The load-bearing contract is the **oracle**: whatever the dispatcher
fuses, every job's response rows must be bit-identical to a fresh
sequential ``SweepRunner().run()`` over that job's recorded batch
composition (``batch_payloads``) — fusion buys throughput, never
different numbers.  The concurrency tests here hammer that contract
with multi-tenant submissions; the HTTP tests assert it end-to-end
through JSON (floats round-trip exactly at ``repr`` precision).
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.encoding import TABLE_CACHE
from repro.errors import ReproError, ServingError
from repro.markov.sweep_engine import SweepRunner
from repro.serving import (
    MAX_POINTS_PER_REQUEST,
    ServiceConfig,
    SignatureLRU,
    SweepService,
    make_server,
    resolve_point,
    resolve_points,
)
from repro.serving.jobs import result_payload


def oracle_rows(batch_payloads, **runner_kwargs):
    """The sequential oracle: one fresh runner over the recorded batch."""
    specs = resolve_points({"points": list(batch_payloads)})
    results = SweepRunner(**runner_kwargs).run(specs)
    rows = [result_payload(result) for result in results]
    for row, spec in zip(rows, specs):
        row["label"] = spec.label
    return json.loads(json.dumps(rows))


def assert_job_matches_oracle(snapshot, **runner_kwargs):
    """Every row of one job equals the oracle row with the same label."""
    oracle = {
        row["label"]: row
        for row in oracle_rows(snapshot["batch_payloads"], **runner_kwargs)
    }
    assert snapshot["status"] == "done"
    for row in json.loads(json.dumps(snapshot["results"])):
        assert row == oracle[row["label"]]


class TestSignatureLRU:
    def test_build_once_then_hit(self):
        cache = SignatureLRU("test", maxsize=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_build("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 1

    def test_eviction_is_lru(self):
        cache = SignatureLRU("test", maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: 1)  # refresh a
        cache.get_or_build("c", lambda: 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_maxsize_validation_and_unbounded(self):
        with pytest.raises(ValueError, match="maxsize"):
            SignatureLRU("bad", maxsize=0)
        unbounded = SignatureLRU("all", maxsize=None)
        for key in range(100):
            unbounded.get_or_build(key, lambda: key)
        assert len(unbounded) == 100
        assert unbounded.evictions == 0

    def test_concurrent_raced_builds_share_one_value(self):
        cache = SignatureLRU("race", maxsize=4)
        built, seen = [], []
        barrier = threading.Barrier(8)

        def tenant():
            barrier.wait()
            seen.append(
                cache.get_or_build(
                    "hot", lambda: built.append(object()) or built[0]
                )
            )

        threads = [threading.Thread(target=tenant) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(built) == 1
        assert all(value is built[0] for value in seen)


class TestResolver:
    def test_point_resolves_with_defaults(self):
        spec = resolve_point({"family": "Q1", "n": 8, "seed": 7})
        assert spec.trials == 100
        assert spec.max_steps == 100_000
        assert spec.label == "Q1-n8-seed7"
        assert spec.system.num_processes > 0

    def test_fault_family_carries_plan(self):
        spec = resolve_point({"family": "FT1", "n": 5, "seed": 1})
        assert spec.fault is not None

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"family": "nope", "n": 5, "seed": 1}, "unknown family"),
            ({"family": "Q1", "n": 5}, "missing required field 'seed'"),
            ({"family": "Q1", "n": True, "seed": 1}, "must be an integer"),
            ({"family": "Q1", "n": 999, "seed": 1}, "must be in"),
            ({"family": "Q1", "n": 5, "seed": 1, "x": 2}, "unknown point"),
            ({"family": "Q1", "n": 5, "seed": 1, "label": 3}, "label"),
        ],
    )
    def test_bad_points_rejected(self, payload, message):
        with pytest.raises(ServingError, match=message):
            resolve_point(payload)

    def test_submission_shape_enforced(self):
        with pytest.raises(ServingError, match="non-empty 'points'"):
            resolve_points({"points": []})
        with pytest.raises(ServingError, match="non-empty 'points'"):
            resolve_points({})
        too_many = [
            {"family": "Q1", "n": 5, "seed": seed}
            for seed in range(MAX_POINTS_PER_REQUEST + 1)
        ]
        with pytest.raises(ServingError, match="too many points"):
            resolve_points({"points": too_many})


@pytest.fixture
def service(request):
    config = getattr(request, "param", None) or ServiceConfig(
        admission_window=0.01
    )
    service = SweepService(config)
    yield service
    service.close()


class TestDispatcher:
    def test_single_request_executes(self, service):
        snapshot = service.run_sweep(
            {"points": [{"family": "Q1", "n": 5, "seed": 3, "trials": 20}]}
        )
        assert snapshot["status"] == "done"
        assert snapshot["batch"] == 1
        assert len(snapshot["results"]) == 1
        assert_job_matches_oracle(snapshot)

    def test_job_lookup_and_index(self, service):
        done = service.run_sweep(
            {"points": [{"family": "Q1", "n": 4, "seed": 1, "trials": 10}]}
        )
        assert service.job_snapshot(done["job"])["status"] == "done"
        assert service.job_index() == [
            {"job": done["job"], "status": "done", "points": 1}
        ]
        with pytest.raises(ServingError, match="unknown job"):
            service.job_snapshot("job-999")

    def test_execution_error_marks_job_not_server(self, service):
        original = service.runner.run
        service.runner.run = lambda specs: (_ for _ in ()).throw(
            RuntimeError("injected")
        )
        try:
            job = service.submit_sweep(
                {"points": [{"family": "Q1", "n": 4, "seed": 5}]}
            )
            assert job.done.wait(10)
            assert job.status == "error"
            assert "injected" in job.error
        finally:
            service.runner.run = original
        # The dispatcher thread survived and serves the next batch.
        snapshot = service.run_sweep(
            {"points": [{"family": "Q1", "n": 4, "seed": 6, "trials": 10}]}
        )
        assert snapshot["status"] == "done"

    def test_spurious_wake_executes_nothing(self, service):
        service.dispatcher._wake.set()
        snapshot = service.run_sweep(
            {"points": [{"family": "Q1", "n": 4, "seed": 2, "trials": 10}]}
        )
        assert snapshot["status"] == "done"
        assert service.dispatcher.batches_run == 1

    def test_window_validation(self):
        with pytest.raises(ServingError, match="admission window"):
            SweepService(ServiceConfig(admission_window=-1.0))


class TestMultiTenantFusion:
    """Satellite: N concurrent tenants, fused rows bit-identical to the
    sequential oracle — fusable, mixed-family, and fusion-illegal."""

    WINDOW = 0.4

    def _submit_concurrently(self, service, submissions):
        barrier = threading.Barrier(len(submissions))
        snapshots = [None] * len(submissions)
        errors = []

        def tenant(index, points):
            try:
                barrier.wait()
                snapshots[index] = service.run_sweep(
                    {"points": points}, timeout=240.0
                )
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [
            threading.Thread(target=tenant, args=(index, points))
            for index, points in enumerate(submissions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        return snapshots

    def test_eight_tenants_fuse_and_match_oracle(self):
        service = SweepService(ServiceConfig(admission_window=self.WINDOW))
        try:
            submissions = [
                [
                    {
                        "family": "Q1",
                        "n": 6,
                        "trials": 30,
                        "seed": 100 + tenant,
                        "label": f"tenant{tenant}-a",
                    },
                    {
                        "family": "Q1",
                        "n": 6,
                        "trials": 20,
                        "seed": 200 + tenant,
                        "label": f"tenant{tenant}-b",
                    },
                ]
                for tenant in range(8)
            ]
            snapshots = self._submit_concurrently(service, submissions)
            # The barrier start + window admits everyone into one batch,
            # whose fused matrix covers all 16 points.
            batches = {snapshot["batch"] for snapshot in snapshots}
            assert len(batches) == 1
            assert all(
                entry["engine"] == "fused"
                for snapshot in snapshots
                for entry in snapshot["plan"]
            )
            for snapshot in snapshots:
                assert_job_matches_oracle(snapshot)
        finally:
            service.close()

    def test_mixed_families_fuse_per_system_and_match_oracle(self):
        service = SweepService(ServiceConfig(admission_window=self.WINDOW))
        try:
            submissions = [
                [{"family": "Q1", "n": 5, "trials": 25, "seed": 11}],
                [{"family": "Q3", "n": 5, "trials": 25, "seed": 12}],
                [{"family": "Q1", "n": 5, "trials": 25, "seed": 13}],
                [{"family": "FT1", "n": 5, "trials": 25, "seed": 14}],
            ]
            snapshots = self._submit_concurrently(service, submissions)
            assert len({snapshot["batch"] for snapshot in snapshots}) == 1
            for snapshot in snapshots:
                assert_job_matches_oracle(snapshot)
            # The two Q1 tenants landed in one fused group.
            q1_plans = [
                entry
                for snapshot in (snapshots[0], snapshots[2])
                for entry in snapshot["plan"]
            ]
            assert all(entry["engine"] == "fused" for entry in q1_plans)
            assert q1_plans[0]["fused_rows"] == 50
        finally:
            service.close()

    def test_fusion_illegal_fallback_still_matches_oracle(self):
        """A starved table budget outlaws fusion; the dispatcher falls
        back to per-request scalar execution with identical rows."""
        service = SweepService(
            ServiceConfig(admission_window=self.WINDOW, table_budget=1)
        )
        try:
            submissions = [
                [
                    {
                        "family": "Q1",
                        "n": 4,
                        "trials": 15,
                        "seed": 300 + tenant,
                    }
                ]
                for tenant in range(4)
            ]
            snapshots = self._submit_concurrently(service, submissions)
            assert all(
                entry["engine"] == "scalar"
                for snapshot in snapshots
                for entry in snapshot["plan"]
            )
            for snapshot in snapshots:
                assert_job_matches_oracle(snapshot, table_budget=1)
        finally:
            service.close()


class TestWarmCaches:
    def test_sweep_batches_share_compilations(self, service):
        point = {"family": "Q1", "n": 5, "trials": 10}
        service.run_sweep({"points": [dict(point, seed=1)]})
        misses = TABLE_CACHE.stats()["misses"]
        service.run_sweep({"points": [dict(point, seed=2)]})
        assert TABLE_CACHE.stats()["misses"] == misses
        assert service.dispatcher.stats()["batches"] == 2

    def test_verdict_cached_and_correct(self, service):
        verdict = service.verdict("Q3", 4)
        assert verdict["probabilistically_self_stabilizing"] is True
        assert service.verdict("Q3", 4) == verdict
        stats = {
            cache["name"]: cache
            for cache in service.cache_stats()["lru"]
        }
        assert stats["verdicts"]["hits"] == 1
        assert stats["chains"]["misses"] == 1
        from repro.stabilization.probabilistic import (
            classify_probabilistic,
        )
        from repro.serving.resolver import verdict_parts

        parts = verdict_parts("Q3", 4)
        direct = classify_probabilistic(
            parts["system"], parts["specification"], parts["distribution"]
        )
        assert verdict["min_absorption"] == direct.min_absorption
        assert verdict["worst_expected_steps"] == direct.worst_expected_steps

    def test_bias_sweep_reuses_parametric_structure(self, service):
        body = {
            "family": "herman-random-bit",
            "n": 5,
            "biases": [0.3, 0.5, 0.7],
        }
        first = service.bias_sweep(body)
        assert first["parameters"] == ["p"]
        assert len(first["values"]) == 3
        assert service.bias_sweep(body) == first
        stats = {
            cache["name"]: cache
            for cache in service.cache_stats()["lru"]
        }
        assert stats["parametric"]["hits"] == 1
        assert stats["parametric"]["misses"] == 1

    def test_keyless_system_fails_loudly(self, service, monkeypatch):
        import repro.serving.service as service_module

        monkeypatch.setattr(service_module, "system_cache_key", lambda s: None)
        with pytest.raises(ReproError, match="no content address"):
            service.verdict("Q3", 4)
        with pytest.raises(ReproError, match="no content address"):
            service.bias_sweep(
                {"family": "herman-random-bit", "n": 5, "biases": [0.5]}
            )

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"family": "herman-random-bit", "n": 5}, "biases"),
            (
                {"family": "herman-random-bit", "n": 5, "biases": [0.0]},
                "inside",
            ),
            (
                {"family": "herman-random-bit", "n": 4, "biases": [0.5]},
                "odd",
            ),
            (
                {"family": "nope", "n": 5, "biases": [0.5]},
                "unknown parametric family",
            ),
            (
                {
                    "family": "herman-random-bit",
                    "n": 5,
                    "biases": [0.5],
                    "objective": "p99",
                },
                "objective",
            ),
        ],
    )
    def test_bias_sweep_validation(self, service, body, message):
        with pytest.raises(ServingError, match=message):
            service.bias_sweep(body)

    def test_experiment_cached_by_overrides(self, service):
        result = service.experiment(
            "THM2", {"ring_sizes": [3, 4]}
        )
        assert result["passed"] is True
        assert service.experiment("THM2", {"ring_sizes": [3, 4]}) == result
        other = service.experiment("THM2", {"ring_sizes": [3]})
        assert other != result
        stats = {
            cache["name"]: cache
            for cache in service.cache_stats()["lru"]
        }
        assert stats["experiments"]["hits"] == 1
        assert stats["experiments"]["misses"] == 2
        with pytest.raises(ServingError, match="unknown experiment"):
            service.experiment("NOPE")
        with pytest.raises(ServingError, match="unknown parameters"):
            service.experiment("THM2", {"bogus": 1})

    def test_report_cached_by_store_fingerprint(self, service, tmp_path):
        from repro.store.columnar import ResultStore, records_from_arrays

        store = ResultStore(tmp_path)
        records = records_from_arrays(
            point=0,
            trial_offset=0,
            times=np.array([3.0, 5.0]),
            converged=np.array([True, True]),
            timed_out=np.array([False, False]),
            hit_terminal=np.array([False, False]),
        )
        store.write("k1", records, {"family": "Q1", "params": {"n": 5}})
        first = service.report(str(tmp_path))
        assert first["rows"] == [
            {
                "family": "Q1",
                "N": 5,
                "trials": 2,
                "converged": 2,
                "timed_out": 0,
                "mean_time": 4.0,
                "max_time": 5,
            }
        ]
        assert service.report(str(tmp_path)) == first
        # Adding a shard changes the fingerprint: fresh aggregation.
        store.write(
            "k2", records, {"family": "Q1", "params": {"n": 7}}
        )
        second = service.report(str(tmp_path))
        assert len(second["rows"]) == 2
        assert second["fingerprint"] != first["fingerprint"]
        with pytest.raises(ServingError, match="no campaign store"):
            service.report(str(tmp_path / "missing"))


@pytest.fixture(scope="module")
def server():
    server = make_server(port=0, config=ServiceConfig(admission_window=0.01))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def http_get(base, path):
    with urllib.request.urlopen(base + path, timeout=120) as response:
        return response.status, json.loads(response.read())


def http_post(base, path, body):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=240) as response:
        return response.status, json.loads(response.read())


def http_error(base, path, body=None):
    try:
        if body is None:
            http_get(base, path)
        else:
            http_post(base, path, body)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())["error"]
    raise AssertionError("expected an HTTP error")


class TestHTTP:
    def test_health_and_index(self, server):
        assert http_get(server, "/api/health") == (200, {"status": "ok"})
        with urllib.request.urlopen(server + "/", timeout=30) as response:
            assert response.status == 200
            assert b"sweep service" in response.read()

    def test_sweep_wait_roundtrip_is_bit_identical(self, server):
        status, snapshot = http_post(
            server,
            "/api/sweep",
            {
                "points": [
                    {"family": "Q1", "n": 6, "trials": 25, "seed": 41},
                    {"family": "Q1", "n": 6, "trials": 25, "seed": 42},
                ],
                "wait": True,
            },
        )
        assert status == 200
        assert_job_matches_oracle(snapshot)

    def test_sweep_async_then_poll(self, server):
        status, queued = http_post(
            server,
            "/api/sweep",
            {"points": [{"family": "Q1", "n": 5, "trials": 10, "seed": 4}]},
        )
        assert status == 202
        job_id = queued["job"]
        for _ in range(200):
            status, snapshot = http_get(server, f"/api/jobs/{job_id}")
            if snapshot["status"] in ("done", "error"):
                break
            threading.Event().wait(0.05)
        assert snapshot["status"] == "done"
        assert_job_matches_oracle(snapshot)
        status, index = http_get(server, "/api/jobs")
        assert any(entry["job"] == job_id for entry in index)

    def test_verdict_and_caches_endpoints(self, server):
        status, verdict = http_get(server, "/api/verdict?family=Q3&n=4")
        assert status == 200
        assert verdict["probabilistically_self_stabilizing"] is True
        http_get(server, "/api/verdict?family=Q3&n=4")
        status, caches = http_get(server, "/api/caches")
        assert status == 200
        stats = {cache["name"]: cache for cache in caches["lru"]}
        assert stats["verdicts"]["hits"] >= 1
        # The process-wide compiled-table cache is listed with them.
        assert stats["tables"]["entries"] >= 1
        # The fields perfbench's serve-mix reads stay in place.
        assert isinstance(caches["runner"]["evictions"], int)
        for counter in ("batches", "points"):
            assert isinstance(caches["dispatcher"][counter], int)
        for name in ("verdicts", "parametric"):
            assert {"hits", "misses"} <= stats[name].keys()

    def test_bias_sweep_endpoint(self, server):
        status, body = http_post(
            server,
            "/api/bias-sweep",
            {"family": "herman-random-bit", "n": 5, "biases": [0.5]},
        )
        assert status == 200
        assert body["values"][0] > 0

    def test_client_errors(self, server):
        assert http_error(server, "/api/nope")[0] == 404
        assert http_error(server, "/api/jobs/job-999")[0] == 404
        code, message = http_error(
            server,
            "/api/sweep",
            {"points": [{"family": "bogus", "n": 5, "seed": 1}]},
        )
        assert code == 400 and "unknown family" in message
        assert http_error(server, "/api/verdict?family=Q1")[0] == 400
        code, message = http_error(
            server, "/api/sweep", {"points": "nope"}
        )
        assert code == 400
