"""Crash-scenario harness: the campaign survives everything we throw.

Fault injection against the full runner, asserting the PR's central
property each time — *an interrupted-then-recovered campaign's store is
byte-identical to an uninterrupted run's*:

* workers SIGKILLed mid-shard (plus torn ``*.tmp`` droppings), or
  raising out of a shard;
* the supervisor SIGKILLed mid-campaign (its workers must not outlive
  it);
* shard files truncated or bit-flipped on disk between runs;
* the checkpoint manifest torn out of sync with the store in either
  direction (shard written but manifest stale, manifest claiming a
  shard the store lost);
* workers hanging past the shard timeout;
* enough worker deaths to trip degradation to in-process execution.

Injection relies on the ``fork`` start method: ``monkeypatch`` applied
in the parent is inherited by worker children, and a ``parent_pid``
guard keeps the sabotage inside the children (the in-process recovery
paths run the real implementation).
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro.campaign.runner as runner
from repro.campaign import (
    CampaignConfig,
    CampaignSelection,
    expand_selection,
    run_campaign,
    resume_campaign,
)
from repro.campaign.runner import MANIFEST_NAME, _write_manifest
from repro.store.columnar import ResultStore, shard_key

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault injection needs fork-inherited monkeypatches",
)

SELECTION = CampaignSelection(
    families=("Q1",),
    sizes=(3,),
    trials=4,
    shard_trials=2,
    max_steps=20_000,
    seed=7,
)

#: Fast supervision for tests: short timeouts, near-zero backoff.
FAST = dict(shard_timeout=20.0, backoff_base=0.01)


def store_bytes(root) -> dict[str, bytes]:
    store = ResultStore(root)
    return {
        key: store.path_for(key).read_bytes() for key in store.keys()
    }


@pytest.fixture(scope="module")
def clean_reference(tmp_path_factory) -> dict[str, bytes]:
    """The uninterrupted run every scenario must reproduce exactly."""
    root = tmp_path_factory.mktemp("clean")
    run_campaign(root, SELECTION, CampaignConfig(sequential=True))
    return {
        "shards": store_bytes(root),
        "manifest": (root / MANIFEST_NAME).read_bytes(),
    }


def install_killer(
    monkeypatch,
    markers: pathlib.Path,
    *,
    always: bool = False,
    torn_tmp: bool = False,
) -> None:
    """SIGKILL each shard's worker mid-execution (children only).

    With ``always=False`` every shard dies exactly once (marker files
    track first attempts across processes), so retries succeed; with
    ``always=True`` no child ever survives — the degradation trigger.
    ``torn_tmp`` additionally leaves a half-written ``*.tmp`` file, the
    dropping an atomic write interrupted mid-copy would leave.
    """
    parent_pid = os.getpid()
    original = runner.execute_shard

    def sabotaged(root, meta):
        key = shard_key(meta)
        marker = markers / key
        if os.getpid() != parent_pid and (always or not marker.exists()):
            marker.write_text("died here")
            if torn_tmp:
                store = ResultStore(root)
                (store.shards_dir / f"{key}.shard.tmp").write_bytes(
                    b"torn mid-write"
                )
            os.kill(os.getpid(), signal.SIGKILL)
        return original(root, meta)

    monkeypatch.setattr(runner, "execute_shard", sabotaged)


# ----------------------------------------------------------------------
# killed workers
# ----------------------------------------------------------------------
def test_sigkilled_workers_retry_to_byte_identical_store(
    tmp_path, monkeypatch, clean_reference
):
    install_killer(monkeypatch, tmp_path / "markers")
    (tmp_path / "markers").mkdir()
    report = run_campaign(
        tmp_path / "run",
        SELECTION,
        CampaignConfig(workers=2, max_retries=2, max_worker_deaths=50,
                       **FAST),
    )
    assert report.worker_deaths == 2  # one death per shard
    assert report.retries == 2
    assert report.completed == 2
    assert store_bytes(tmp_path / "run") == clean_reference["shards"]
    assert (tmp_path / "run" / MANIFEST_NAME).read_bytes() == (
        clean_reference["manifest"]
    )


def test_torn_tmp_droppings_are_swept_on_resume(
    tmp_path, monkeypatch, clean_reference
):
    install_killer(monkeypatch, tmp_path / "markers", torn_tmp=True)
    (tmp_path / "markers").mkdir()
    root = tmp_path / "run"
    run_campaign(
        root,
        SELECTION,
        CampaignConfig(workers=1, max_retries=2, max_worker_deaths=50,
                       **FAST),
    )
    # The kills left their mid-write droppings behind...
    assert list(ResultStore(root).shards_dir.glob("*.tmp"))
    messages: list[str] = []
    report = resume_campaign(
        root, CampaignConfig(sequential=True), progress=messages.append
    )
    # ...which resume sweeps before trusting the directory.
    assert any("swept 2" in message for message in messages)
    assert not list(ResultStore(root).shards_dir.glob("*.tmp"))
    assert report.cached == 2
    assert store_bytes(root) == clean_reference["shards"]


def test_raising_workers_count_as_deaths_and_are_replaced(
    tmp_path, monkeypatch, clean_reference, worker_starts
):
    parent_pid = os.getpid()
    original = runner.execute_shard
    markers = tmp_path / "markers"
    markers.mkdir()

    def raising(root, meta):
        marker = markers / shard_key(meta)
        if os.getpid() != parent_pid and not marker.exists():
            marker.write_text("raised here")
            raise RuntimeError("injected shard failure")
        return original(root, meta)

    monkeypatch.setattr(runner, "execute_shard", raising)
    report = run_campaign(
        tmp_path / "run",
        SELECTION,
        CampaignConfig(workers=2, max_retries=2, max_worker_deaths=50,
                       **FAST),
    )
    assert report.worker_deaths == 2  # one per shard
    assert report.retries == 2
    assert report.completed == 2
    assert report.in_process == 0
    assert len(worker_starts) == 4  # both workers replaced once
    assert [process.exitcode for process in worker_starts[:2]] == [1, 1]
    assert store_bytes(tmp_path / "run") == clean_reference["shards"]
    assert (tmp_path / "run" / MANIFEST_NAME).read_bytes() == (
        clean_reference["manifest"]
    )


# ----------------------------------------------------------------------
# a killed supervisor
# ----------------------------------------------------------------------
SUPERVISOR = """
import os, sys, time
import repro.campaign.runner as runner
from repro.campaign import CampaignConfig, CampaignSelection, run_campaign

root, pids = sys.argv[1:]
original = runner.execute_shard

def recording(root, meta):
    open(os.path.join(pids, str(os.getpid())), "w").close()
    time.sleep(0.2)
    return original(root, meta)

runner.execute_shard = recording
selection = CampaignSelection(families=("Q1",), sizes=(3,), trials=400,
                              shard_trials=2, max_steps=20_000, seed=7)
run_campaign(root, selection, CampaignConfig(workers=2))
"""


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process.  An exited orphan nobody has
    reaped yet (state ``Z`` in ``/proc``) counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rpartition(")")[2].split()[0] != "Z"


def test_workers_exit_when_the_supervisor_is_sigkilled(tmp_path):
    pids = tmp_path / "pids"
    pids.mkdir()
    env = dict(os.environ)
    source = str(pathlib.Path(runner.__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")])
    )
    supervisor = subprocess.Popen(
        [sys.executable, "-c", SUPERVISOR, str(tmp_path / "run"), str(pids)],
        env=env,
    )
    workers: set[int] = set()
    try:
        deadline = time.monotonic() + 15.0
        while len(workers) < 2 and time.monotonic() < deadline:
            assert supervisor.poll() is None, "campaign ended early"
            time.sleep(0.05)
            workers = {int(path.name) for path in pids.iterdir()}
        assert len(workers) == 2
        supervisor.kill()
        supervisor.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(running, workers)):
            time.sleep(0.05)
        assert not [pid for pid in workers if running(pid)]
    finally:
        supervisor.kill()
        supervisor.wait(timeout=10)
        for pid in workers:
            if running(pid):
                os.kill(pid, signal.SIGKILL)


# ----------------------------------------------------------------------
# corrupted files
# ----------------------------------------------------------------------
def test_corrupt_shards_quarantined_and_regenerated(
    tmp_path, clean_reference
):
    run_campaign(tmp_path, SELECTION, CampaignConfig(sequential=True))
    store = ResultStore(tmp_path)
    truncated, flipped = expand_selection(SELECTION)
    path = store.path_for(truncated.key)
    path.write_bytes(path.read_bytes()[:-20])
    path = store.path_for(flipped.key)
    damaged = bytearray(path.read_bytes())
    damaged[len(damaged) // 2] ^= 0x10
    path.write_bytes(bytes(damaged))

    report = run_campaign(
        tmp_path, SELECTION, CampaignConfig(sequential=True)
    )
    assert report.quarantined == 2
    assert report.executed == 2
    assert len(list(store.quarantine_dir.iterdir())) == 2
    assert store_bytes(tmp_path) == clean_reference["shards"]
    assert (tmp_path / MANIFEST_NAME).read_bytes() == (
        clean_reference["manifest"]
    )


# ----------------------------------------------------------------------
# torn checkpoints (interrupts between shard write and manifest write)
# ----------------------------------------------------------------------
def test_manifest_behind_store_resumes_from_bytes(
    tmp_path, clean_reference
):
    run_campaign(tmp_path, SELECTION, CampaignConfig(sequential=True))
    # Crash window: shards landed, but the checkpoint never recorded
    # them.  The store is ground truth, so resume costs zero re-runs.
    _write_manifest(tmp_path, SELECTION, set())
    report = resume_campaign(tmp_path, CampaignConfig(sequential=True))
    assert report.cached == 2
    assert report.executed == 0
    assert (tmp_path / MANIFEST_NAME).read_bytes() == (
        clean_reference["manifest"]
    )


def test_manifest_ahead_of_store_regenerates(tmp_path, clean_reference):
    run_campaign(tmp_path, SELECTION, CampaignConfig(sequential=True))
    # Inverse window: the manifest claims a shard the store lost.  The
    # claim is advisory — only validated bytes count as done.
    victim = expand_selection(SELECTION)[0]
    ResultStore(tmp_path).path_for(victim.key).unlink()
    report = resume_campaign(tmp_path, CampaignConfig(sequential=True))
    assert report.cached == 1
    assert report.executed == 1
    assert store_bytes(tmp_path) == clean_reference["shards"]
    assert (tmp_path / MANIFEST_NAME).read_bytes() == (
        clean_reference["manifest"]
    )


# ----------------------------------------------------------------------
# hangs and degradation
# ----------------------------------------------------------------------
def test_hung_worker_times_out_then_runs_in_process(
    tmp_path, monkeypatch, clean_reference
):
    parent_pid = os.getpid()
    original = runner.execute_shard

    def hang_in_children(root, meta):
        if os.getpid() != parent_pid:
            time.sleep(60)
        return original(root, meta)

    monkeypatch.setattr(runner, "execute_shard", hang_in_children)
    selection = CampaignSelection(
        families=("Q1",), sizes=(3,), trials=2, shard_trials=2,
        max_steps=20_000, seed=7,
    )
    report = run_campaign(
        tmp_path,
        selection,
        CampaignConfig(workers=1, shard_timeout=0.3, max_retries=1,
                       max_worker_deaths=50, backoff_base=0.01),
    )
    assert report.worker_deaths == 2  # first attempt + one retry
    assert report.retries == 1
    assert report.in_process == 1  # retries exhausted → guaranteed run
    assert report.completed == 1
    key = expand_selection(selection)[0].key
    assert ResultStore(tmp_path).load(key) is not None


def test_repeated_deaths_degrade_to_sequential(
    tmp_path, monkeypatch, clean_reference
):
    install_killer(monkeypatch, tmp_path / "markers", always=True)
    (tmp_path / "markers").mkdir()
    with pytest.warns(RuntimeWarning, match="degrading"):
        report = run_campaign(
            tmp_path / "run",
            SELECTION,
            CampaignConfig(workers=2, max_retries=5, max_worker_deaths=1,
                           **FAST),
        )
    assert report.degraded
    assert report.worker_deaths >= 1
    assert report.in_process == 2  # the drain finished everything
    assert store_bytes(tmp_path / "run") == clean_reference["shards"]
    assert (tmp_path / "run" / MANIFEST_NAME).read_bytes() == (
        clean_reference["manifest"]
    )
