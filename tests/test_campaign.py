"""The campaign tier: expansion, seed flow, caching, resume, CLI.

Byte-identity is the organizing assertion: a campaign's store must be
a pure function of its :class:`~repro.campaign.CampaignSelection`, so
cache hits, resumes, worker counts, and degradation paths all compare
equal at the file-bytes level — not merely at the statistics level.
Crash *injection* (killed workers, corrupted files, torn checkpoints)
lives in ``tests/test_campaign_crash.py``; this module covers the
healthy paths and the streaming-emission plumbing they ride on.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignSelection,
    build_sweep_spec,
    execute_shard,
    expand_selection,
    family_ids,
    resume_campaign,
    run_campaign,
    store_report,
)
from repro.campaign.runner import MANIFEST_NAME
from repro.errors import CampaignError
from repro.experiments.cli import main
from repro.experiments.registry import campaign_family_ids
from repro.random_source import RandomSource
from repro.store.columnar import ResultStore, shard_key

SELECTION = CampaignSelection(
    families=("Q1",),
    sizes=(3,),
    trials=8,
    shard_trials=3,
    max_steps=20_000,
    seed=5,
)

SEQUENTIAL = CampaignConfig(sequential=True)


def store_bytes(root) -> dict[str, bytes]:
    """Every shard file's bytes, keyed by content address."""
    store = ResultStore(root)
    return {
        key: store.path_for(key).read_bytes() for key in store.keys()
    }


# ----------------------------------------------------------------------
# expansion and the seed flow
# ----------------------------------------------------------------------
def test_family_registry():
    assert family_ids() == ("Q1", "Q3", "FT1")
    assert campaign_family_ids() == family_ids()


def test_expansion_is_deterministic():
    first = expand_selection(SELECTION)
    second = expand_selection(SELECTION)
    assert [shard.key for shard in first] == [shard.key for shard in second]
    assert [shard.meta for shard in first] == [shard.meta for shard in second]


def test_expansion_shapes_and_trial_blocks():
    shards = expand_selection(SELECTION)
    assert len(shards) == 3  # ceil(8 / 3)
    assert [shard.meta["trials"] for shard in shards] == [3, 3, 2]
    assert [shard.meta["trial_offset"] for shard in shards] == [0, 3, 6]
    assert len({shard.key for shard in shards}) == len(shards)
    for shard in shards:
        assert shard.key == shard_key(shard.meta)
        json.dumps(shard.meta)  # plain JSON: shippable to any worker


def test_hierarchical_seed_flow():
    selection = CampaignSelection(
        families=("Q1", "FT1"), sizes=(3, 4), trials=4, shard_trials=2
    )
    master = RandomSource(selection.seed)
    for shard in expand_selection(selection):
        expected = (
            master.spawn(shard.meta["point"])
            .spawn(shard.meta["shard"])
            .seed
        )
        assert shard.meta["seed"] == expected


def test_expansion_validation():
    with pytest.raises(CampaignError, match="family"):
        expand_selection(CampaignSelection(families=("NOPE",)))
    with pytest.raises(CampaignError, match="family"):
        expand_selection(CampaignSelection(families=()))
    with pytest.raises(CampaignError, match="size"):
        expand_selection(CampaignSelection(sizes=()))
    with pytest.raises(CampaignError, match="trial"):
        expand_selection(CampaignSelection(trials=0))
    with pytest.raises(CampaignError, match="shard_trials"):
        expand_selection(CampaignSelection(shard_trials=0))


def test_selection_round_trips_through_json():
    payload = json.loads(json.dumps(SELECTION.as_dict()))
    assert CampaignSelection.from_dict(payload) == SELECTION


def test_build_sweep_spec_from_coordinates():
    shard = expand_selection(SELECTION)[1]
    spec = build_sweep_spec(shard.meta)
    assert spec.trials == 3
    assert spec.seed == shard.meta["seed"]
    assert spec.max_steps == SELECTION.max_steps
    assert spec.label == "Q1-n3-s1"
    assert spec.fault is None
    ft1 = expand_selection(
        CampaignSelection(families=("FT1",), sizes=(4,), trials=2,
                          shard_trials=2)
    )[0]
    assert build_sweep_spec(ft1.meta).fault is not None


def test_execute_shard_writes_validated_bytes(tmp_path):
    shard = expand_selection(SELECTION)[0]
    key = execute_shard(tmp_path, shard.meta)
    assert key == shard.key
    records, meta = ResultStore(tmp_path).read(key)
    assert meta == shard.meta
    assert len(records) == shard.meta["trials"]
    assert list(records["trial"]) == [0, 1, 2]


# ----------------------------------------------------------------------
# the runner: caching, resume, reporting
# ----------------------------------------------------------------------
def test_run_campaign_sequential_and_cache_hits(tmp_path):
    report = run_campaign(tmp_path, SELECTION, SEQUENTIAL)
    assert report.total == 3
    assert report.completed == 3
    assert report.executed == 3
    assert report.cached == 0
    reference = store_bytes(tmp_path)

    again = run_campaign(tmp_path, SELECTION, SEQUENTIAL)
    assert again.cached == 3
    assert again.executed == 0
    assert store_bytes(tmp_path) == reference


def test_manifest_checkpoints_selection_and_keys(tmp_path):
    run_campaign(tmp_path, SELECTION, SEQUENTIAL)
    payload = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert payload["version"] == 1
    assert CampaignSelection.from_dict(payload["selection"]) == SELECTION
    assert payload["completed"] == sorted(
        shard.key for shard in expand_selection(SELECTION)
    )


def test_resume_regenerates_only_missing_shards(tmp_path):
    run_campaign(tmp_path, SELECTION, SEQUENTIAL)
    reference = store_bytes(tmp_path)
    manifest_reference = (tmp_path / MANIFEST_NAME).read_bytes()

    victim = expand_selection(SELECTION)[1]
    ResultStore(tmp_path).path_for(victim.key).unlink()

    report = resume_campaign(tmp_path, SEQUENTIAL)
    assert report.cached == 2
    assert report.executed == 1
    assert store_bytes(tmp_path) == reference
    assert (tmp_path / MANIFEST_NAME).read_bytes() == manifest_reference


def test_resume_without_manifest_raises(tmp_path):
    with pytest.raises(CampaignError, match="manifest"):
        resume_campaign(tmp_path)


def test_workers_match_sequential_byte_for_byte(tmp_path):
    selection = CampaignSelection(
        families=("Q1", "FT1"),
        sizes=(3, 4),
        trials=4,
        shard_trials=2,
        max_steps=20_000,
        seed=9,
    )
    run_campaign(tmp_path / "seq", selection, SEQUENTIAL)
    report = run_campaign(
        tmp_path / "par", selection, CampaignConfig(workers=2)
    )
    assert report.worker_deaths == 0
    assert store_bytes(tmp_path / "par") == store_bytes(tmp_path / "seq")
    assert (tmp_path / "par" / MANIFEST_NAME).read_bytes() == (
        tmp_path / "seq" / MANIFEST_NAME
    ).read_bytes()


def test_workers_are_forked_once_and_reused(tmp_path, worker_starts):
    # Three shards, two workers: each worker runs shard after shard.
    run_campaign(tmp_path / "seq", SELECTION, SEQUENTIAL)
    report = run_campaign(
        tmp_path / "par", SELECTION, CampaignConfig(workers=2)
    )
    assert report.executed == 3
    assert report.worker_deaths == 0
    assert len(worker_starts) == 2
    assert not any(process.is_alive() for process in worker_starts)
    assert store_bytes(tmp_path / "par") == store_bytes(tmp_path / "seq")


def test_store_report_aggregates_per_point(tmp_path):
    selection = CampaignSelection(
        families=("Q1", "FT1"),
        sizes=(3,),
        trials=4,
        shard_trials=2,
        max_steps=20_000,
    )
    run_campaign(tmp_path, selection, SEQUENTIAL)
    rows = store_report(tmp_path)
    assert [(row["family"], row["N"]) for row in rows] == [
        ("FT1", 3),
        ("Q1", 3),
    ]
    for row in rows:
        assert row["trials"] == 4
        assert row["converged"] + row["timed_out"] <= row["trials"]
    # The faulted family reports recovery; the fault-free one does not.
    assert "mean_recovery" in rows[0]
    assert "mean_recovery" not in rows[1]
    assert store_report(tmp_path / "empty") == []


# ----------------------------------------------------------------------
# CLI verb
# ----------------------------------------------------------------------
def test_cli_campaign_run_resume_report(tmp_path, capsys):
    root = str(tmp_path / "campaign")
    argv = [
        "campaign", root,
        "--families", "Q1",
        "--sizes", "3",
        "--trials", "4",
        "--shard-trials", "2",
        "--max-steps", "20000",
        "--sequential",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "campaign complete: 2/2" in out
    assert "executed=2" in out

    assert main(["campaign", root, "--resume", "--sequential"]) == 0
    assert "cached=2" in capsys.readouterr().out

    assert main(["campaign", root, "--report"]) == 0
    report_out = capsys.readouterr().out
    assert "family=Q1" in report_out
    assert "N=3" in report_out

    assert main(["campaign", str(tmp_path / "void"), "--report"]) == 0
    assert "empty" in capsys.readouterr().out


# ----------------------------------------------------------------------
# streaming emission (the sink/keep_samples plumbing campaigns ride on)
# ----------------------------------------------------------------------
def _sweep_points():
    from repro.markov.sweep_engine import SweepPointSpec
    from repro.markov.batch import EnabledCountLegitimacy
    from repro.algorithms.token_ring import (
        TokenCirculationSpec,
        make_token_ring_system,
    )
    from repro.schedulers.samplers import SynchronousSampler
    from repro.transformer.coin_toss import (
        TransformedSpec,
        make_transformed_system,
    )

    base = make_token_ring_system(4)
    system = make_transformed_system(base)
    tspec = TransformedSpec(TokenCirculationSpec(), base)
    return [
        SweepPointSpec(
            system=system,
            sampler=SynchronousSampler(),
            legitimate=lambda cfg: tspec.legitimate(system, cfg),
            trials=6,
            max_steps=20_000,
            seed=31 + index,
            batch_legitimate=EnabledCountLegitimacy(1),
            label=f"point-{index}",
        )
        for index in range(2)
    ]


def test_sink_emission_matches_results():
    from repro.markov.sweep_engine import SweepRunner

    emitted = []
    results = SweepRunner().run(_sweep_points(), sink=emitted.append)
    assert [outcome.point for outcome in emitted] == [0, 1]
    assert [outcome.label for outcome in emitted] == ["point-0", "point-1"]
    for outcome, result in zip(emitted, results):
        assert int(outcome.converged.sum()) == result.converged
        assert outcome.trials == result.converged + result.censored
        converged_times = outcome.times[outcome.converged]
        assert float(converged_times.mean()) == pytest.approx(
            result.stats.mean
        )


def test_keep_samples_false_drops_samples_not_stats():
    from repro.markov.sweep_engine import SweepRunner

    runner = SweepRunner()
    kept = runner.run(_sweep_points())
    dropped = runner.run(_sweep_points(), keep_samples=False)
    for full, lean in zip(kept, dropped):
        assert full.samples  # baseline still carries them
        assert lean.samples is None
        assert lean.converged == full.converged
        assert lean.stats.mean == full.stats.mean
        assert lean.stats.std == full.stats.std


def test_sink_and_keep_samples_do_not_perturb_streams():
    from repro.markov.sweep_engine import SweepRunner

    plain = SweepRunner().run(_sweep_points())
    streamed = SweepRunner().run(
        _sweep_points(), sink=lambda outcome: None, keep_samples=False
    )
    for reference, observed in zip(plain, streamed):
        assert observed.stats.mean == reference.stats.mean
        assert observed.converged == reference.converged
