"""The process-wide compiled-table cache and its LRU primitive.

:func:`repro.core.encoding.tables_for` sits in front of
:func:`~repro.core.encoding.compile_tables`, keyed by system content
(:func:`repro.store.columnar.system_cache_key`): every consumer of one
system shares one compilation, a hit still enforces the caller's budget,
the shared arrays are read-only, and forked campaign workers inherit the
tables their supervisor compiled.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

import repro.core.encoding as encoding_module
from repro.algorithms.dijkstra_ring import make_dijkstra_system
from repro.algorithms.herman_variants import make_herman_random_bit_system
from repro.algorithms.token_ring import make_token_ring_system
from repro.campaign import CampaignConfig, CampaignSelection, run_campaign
from repro.core.encoding import (
    TABLE_CACHE,
    TABLE_CACHE_SIZE,
    compile_tables,
    expansion_context,
    process_classes,
    tables_for,
)
from repro.errors import ModelError
from repro.lru import SignatureLRU
from repro.markov.batch import BatchEngine, EnabledCountLegitimacy
from repro.markov.builder import build_chain
from repro.markov.mdp import build_mdp
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.schedulers.distributions import CentralRandomizedDistribution
from repro.schedulers.relations import CentralRelation
from repro.schedulers.samplers import CentralRandomizedSampler
from repro.stabilization import StateSpace
from repro.store.columnar import (
    canonical_constants,
    system_cache_key,
    system_signature,
)
from repro.transformer.coin_toss import make_transformed_system

from conformance_registry import CONFORMANCE_SYSTEMS
from test_campaign import store_bytes
from test_class_tables import _dijkstra_point, _echo_system


@pytest.fixture
def compile_calls(monkeypatch):
    """Count real compilations (what a perfbench span would count)."""
    calls = []
    real = encoding_module.compile_tables

    def counting(system, *args, **kwargs):
        calls.append(system)
        return real(system, *args, **kwargs)

    monkeypatch.setattr(encoding_module, "compile_tables", counting)
    return calls


# ----------------------------------------------------------------------
# the cache key: constants are content
# ----------------------------------------------------------------------
def _terminal_point(system):
    """Legitimate exactly when nothing is enabled."""
    return SweepPointSpec(
        system=system,
        sampler=CentralRandomizedSampler(),
        legitimate=lambda c: not system.enabled_processes(c),
        trials=5,
        max_steps=20,
        seed=1,
        batch_legitimate=EnabledCountLegitimacy(0),
    )


def test_systems_differing_only_in_constants_get_distinct_keys():
    same, typed = _echo_system((0, 0)), _echo_system((0, False))
    # The signature cannot tell them apart (it is part of every shard
    # key and stays as it is); the cache key can.
    assert system_signature(same) == system_signature(typed)
    assert system_cache_key(same) != system_cache_key(typed)
    assert system_cache_key(same) == system_cache_key(_echo_system((0, 0)))
    assert system_cache_key(_echo_system((0.0, 0.0))) != system_cache_key(
        _echo_system((0.0, -0.0))
    )


def test_transforms_of_differently_biased_bases_get_distinct_tables():
    """``Trans(·)`` keeps its base in an attribute: the base's coin bias
    is content of the cache key (though not of the signature), so a warm
    cache never hands one bias's tables to the other."""
    low, high = (
        make_transformed_system(make_herman_random_bit_system(5, bias))
        for bias in (0.3, 0.7)
    )
    assert system_signature(low) == system_signature(high)
    assert system_cache_key(low) != system_cache_key(high)
    tables_for(low)
    warm, fresh = tables_for(high), compile_tables(high)
    assert np.array_equal(warm.outcome_prob, fresh.outcome_prob)
    assert not np.array_equal(
        tables_for(low).outcome_prob, fresh.outcome_prob
    )


def test_every_registry_system_has_a_distinct_key():
    keys = [
        system_cache_key(entry.build()) for entry in CONFORMANCE_SYSTEMS
    ]
    assert None not in keys
    assert len(set(keys)) == len(keys)


def test_sweep_of_constant_twins_matches_separate_runs():
    """``(0, 0)`` is terminal everywhere; ``(0, False)`` always has an
    enabled process.  Sharing one cache entry made the second report
    convergence at time 0."""
    same, typed = _echo_system((0, 0)), _echo_system((0, False))
    together = SweepRunner().run(
        [_terminal_point(same), _terminal_point(typed)]
    )
    (alone,) = SweepRunner().run([_terminal_point(typed)])
    assert together[0].converged == 5
    assert alone.timed_out == 5
    assert together[1].timed_out == alone.timed_out
    assert together[1].converged == alone.converged == 0
    assert tables_for(same) is not tables_for(typed)


def test_classes_and_cache_key_share_one_constant_rule():
    # A numpy scalar groups fine under ``==`` but has no canonical form:
    # the system gets no cache key, and its processes share no class.
    system = _echo_system((np.int64(0), np.int64(0)))
    assert system_cache_key(system) is None
    assert process_classes(system).tolist() == [0, 1]
    with pytest.raises(TypeError):
        canonical_constants(system.constants(0))


def test_uncanonical_constants_are_not_cached(compile_calls):
    system = _echo_system([[0], [0]])  # list constants: no canonical form
    assert system_cache_key(system) is None
    before = TABLE_CACHE.stats()
    first, second = tables_for(system), tables_for(system)
    assert first is not second
    assert len(compile_calls) == 2
    after = TABLE_CACHE.stats()
    for counter in ("hits", "misses"):
        assert after[counter] == before[counter]
    # The sweep runner still keeps one entry per such system object.
    runner = SweepRunner()
    runner.run([_terminal_point(system), _terminal_point(system)])
    assert runner.cached_systems == 1


# ----------------------------------------------------------------------
# sharing
# ----------------------------------------------------------------------
def test_equal_systems_share_one_tables_object(compile_calls):
    TABLE_CACHE.clear()
    first = make_token_ring_system(5)
    second = make_token_ring_system(5)
    assert first is not second
    tables = tables_for(first)
    assert tables_for(second) is tables
    assert BatchEngine(second).tables is tables
    assert BatchEngine(second).encoding is tables.encoding
    chain = build_chain(second, CentralRandomizedDistribution())
    chain.mark(EnabledCountLegitimacy(1))
    assert chain._compiled_tables() is tables
    assert len(compile_calls) == 1


def test_racing_threads_compile_once(monkeypatch, compile_calls):
    TABLE_CACHE.clear()
    counting = encoding_module.compile_tables

    def slow(system, *args, **kwargs):
        time.sleep(0.2)  # both threads are inside tables_for by now
        return counting(system, *args, **kwargs)

    monkeypatch.setattr(encoding_module, "compile_tables", slow)
    barrier = threading.Barrier(2)
    seen = []

    def consumer():
        system = make_dijkstra_system(5)
        barrier.wait()
        seen.append(tables_for(system))

    threads = [threading.Thread(target=consumer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(compile_calls) == 1
    assert seen[0] is seen[1]


# ----------------------------------------------------------------------
# budgets on hits
# ----------------------------------------------------------------------
#: ``TestClassBudget``'s system (test_class_tables.py).
BUDGET_SYSTEM = make_dijkstra_system(6)


def test_expanders_share_the_tables_expansion_context(monkeypatch):
    """Explorations, chains and MDPs of one system read the tables'
    memoized :class:`ExpansionContext` instead of deriving their own."""
    constructed = []
    real_init = encoding_module.ExpansionContext.__init__

    def counting(self, tables):
        constructed.append(tables)
        real_init(self, tables)

    monkeypatch.setattr(encoding_module.ExpansionContext, "__init__", counting)
    TABLE_CACHE.clear()
    system = make_token_ring_system(5)
    for _ in range(5):
        StateSpace.explore(system, CentralRelation())
    build_chain(system, CentralRandomizedDistribution())
    build_mdp(system, daemon="central")
    assert constructed == [tables_for(system)]


def test_hit_under_smaller_budget_raises_the_compile_error():
    system = BUDGET_SYSTEM
    tables = tables_for(system)
    budget = tables.num_entries - 1
    with pytest.raises(ModelError) as compiled:
        compile_tables(system, max_entries=budget)
    with pytest.raises(ModelError) as cached:
        tables_for(system, max_entries=budget)
    assert str(cached.value) == str(compiled.value)
    assert tables_for(system, max_entries=tables.num_entries) is tables


def test_hit_under_smaller_budget_still_falls_back_to_scalar():
    system = BUDGET_SYSTEM
    tables = tables_for(system)
    runner = SweepRunner(engine="auto", table_budget=tables.num_classes - 1)
    runner.run([_dijkstra_point(system)])
    assert runner.last_plan[0].engine == "scalar"
    fused = SweepRunner(engine="auto")
    fused.run([_dijkstra_point(system)])
    assert fused.last_plan[0].engine == "fused"


def test_failed_compile_caches_nothing(compile_calls):
    TABLE_CACHE.clear()
    system = make_dijkstra_system(4)
    with pytest.raises(ModelError):
        tables_for(system, max_entries=1)
    assert system_cache_key(system) not in TABLE_CACHE
    tables_for(system)
    assert len(compile_calls) == 2


# ----------------------------------------------------------------------
# read-only sharing
# ----------------------------------------------------------------------
def test_cached_tables_are_read_only():
    tables = tables_for(make_token_ring_system(4))
    names = [
        "neighbor_index",
        "neighbor_weight",
        "key_offset",
        "enabled_flat",
        "action_count",
        "action_base",
        "outcome_cum",
        "outcome_code",
        "outcome_prob",
        "process_class",
    ]
    for name in names:
        array = getattr(tables, name)
        assert not array.flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        tables.enabled_flat[0] = not tables.enabled_flat[0]
    with pytest.raises(ValueError, match="read-only"):
        tables.outcome_prob[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        tables.encoding.sizes[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        expansion_context(tables).arity[0] = 0


def test_parametric_tables_are_read_only():
    from repro.algorithms.herman_variants import make_herman_random_bit_system

    tables = tables_for(make_herman_random_bit_system(5))
    assert tables.parametric
    for array in (tables.outcome_prob_const, tables.outcome_prob_coeff):
        assert not array.flags.writeable
    # Evaluations are fresh, writable arrays.
    assert tables.evaluate_outcome_probs({"p": 0.25}).flags.writeable


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------
def test_table_cache_bound_is_fixed():
    assert TABLE_CACHE.maxsize == TABLE_CACHE_SIZE


def test_lru_bound_holds_and_evicted_tables_recompile(
    monkeypatch, compile_calls
):
    small = SignatureLRU("tables", 2)
    monkeypatch.setattr(encoding_module, "TABLE_CACHE", small)
    rings = {n: make_token_ring_system(n) for n in (3, 4, 5)}
    for n in (3, 4, 5):
        tables_for(rings[n])
    assert len(small) == 2
    assert small.evictions == 1
    assert system_cache_key(rings[3]) not in small
    again = tables_for(make_token_ring_system(3))
    assert len(compile_calls) == 4
    reference = compile_tables(rings[3])
    assert np.array_equal(again.enabled_flat, reference.enabled_flat)
    assert np.array_equal(again.outcome_code, reference.outcome_code)


def test_failed_build_lets_the_next_caller_build():
    cache = SignatureLRU("flaky", 4)

    def fail():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        cache.get_or_build("k", fail)
    assert "k" not in cache
    assert cache.get_or_build("k", lambda: 7) == 7
    assert cache.stats()["misses"] == 2


# ----------------------------------------------------------------------
# fork: locks re-created, entries inherited
# ----------------------------------------------------------------------
fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


def _child_reads_cache(cache, queue):
    queue.put(
        (cache.get_or_build("warm", lambda: "rebuilt"),
         cache.get_or_build("cold", lambda: "built"))
    )


@fork_only
def test_forked_child_gets_fresh_locks_and_inherits_entries():
    cache = SignatureLRU("forked", 4)
    cache.get_or_build("warm", lambda: "inherited")
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    # Fork while the cache lock is held: without the at-fork hook the
    # child would wait on it forever.
    with cache._lock:
        child = context.Process(target=_child_reads_cache, args=(cache, queue))
        child.start()
    assert queue.get(timeout=30) == ("inherited", "built")
    child.join(30)
    assert child.exitcode == 0


@fork_only
def test_warm_campaign_workers_never_compile(tmp_path, monkeypatch):
    """The supervisor compiles every system two or more shards run;
    the forked workers hit its cache.  Compiling in a worker raises
    here, so any worker that compiled would die."""
    selection = CampaignSelection(
        families=("Q1", "FT1"),
        sizes=(3, 4),
        trials=4,
        shard_trials=2,
        max_steps=20_000,
        seed=9,
    )
    TABLE_CACHE.clear()
    run_campaign(tmp_path / "cold", selection, CampaignConfig(sequential=True))

    supervisor = os.getpid()
    real = encoding_module.compile_tables

    def parent_only(system, *args, **kwargs):
        if os.getpid() != supervisor:
            raise RuntimeError("a forked worker compiled tables")
        return real(system, *args, **kwargs)

    monkeypatch.setattr(encoding_module, "compile_tables", parent_only)
    TABLE_CACHE.clear()
    report = run_campaign(
        tmp_path / "warm", selection, CampaignConfig(workers=2)
    )
    assert report.worker_deaths == 0 and report.in_process == 0
    assert report.executed == report.total == 8
    assert store_bytes(tmp_path / "warm") == store_bytes(tmp_path / "cold")

    # A system only one shard runs is not warmed: its worker compiles
    # (and here dies), so the seam above really guards the workers.
    TABLE_CACHE.clear()
    single = CampaignSelection(
        families=("Q1",), sizes=(3,), trials=2, shard_trials=2, seed=9
    )
    report = run_campaign(
        tmp_path / "single",
        single,
        CampaignConfig(workers=2, max_retries=0),
    )
    assert report.worker_deaths == 1 and report.in_process == 1
