"""Cross-engine conformance tier (``pytest -m conformance``).

One parametrized matrix — algorithms (token ring, leader tree, Herman
ring, Israeli–Jalfon, coloring) × topologies (ring/chain/star/tree) ×
schedulers (central/distributed/synchronous/Bernoulli) — drawn from the
shared fixture registry in ``tests/conformance_registry.py`` (exposed
as the ``conformance`` fixture by ``tests/conftest.py``), asserting
every execution tier against its oracle:

* **Monte-Carlo**: seeded scalar-vs-batch-vs-fused equivalence.
  Stochastic cells must fully converge on every engine and agree under
  a two-sample Kolmogorov–Smirnov bound; deterministic cells (a
  deterministic algorithm under the synchronous sampler consumes no
  randomness, so all engines see identical initial draws) must be
  *identical*, censored trials included.
* **One lockstep loop**: a one-point fused sweep against
  ``BatchEngine.run`` / ``run_with_fault`` on every cell, with and
  without a fault — bit-for-bit, final generator state included.
* **Exact analysis**: compiled-vs-scalar chain building bit-equality,
  compiled-vs-dict-walk exploration bit-equality, and the explored
  digraph as the support of the randomized chain, over the same
  registry systems.

This module replaces the need for future per-PR ad-hoc equivalence
files: a new engine or a new algorithm/topology/scheduler combination
earns a row in the shared registry and inherits the whole tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from conformance_registry import (
    CONFORMANCE_SAMPLERS,
    CONFORMANCE_SYSTEMS,
    conformance_entry,
    conformance_fault_plan,
    conformance_matrix,
    conformance_system,
    ks_bound,
    ks_statistic,
)
from repro.markov.batch import (
    BatchEngine,
    batch_strategy_for,
    compile_legitimacy,
    encode_initials,
)
from repro.markov.builder import build_chain
from repro.markov.montecarlo import (
    fault_result_from_arrays,
    random_configurations,
)
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner, _fold_seeds
from repro.random_source import RandomSource
from repro.schedulers.distributions import (
    CentralRandomizedDistribution,
    DistributedRandomizedDistribution,
    SynchronousDistribution,
)
from repro.schedulers.relations import (
    CentralRelation,
    DistributedRelation,
    SynchronousRelation,
)
from repro.stabilization.faults import compile_fault
from repro.stabilization.statespace import StateSpace

pytestmark = pytest.mark.conformance

MATRIX = conformance_matrix()
MATRIX_IDS = [
    f"{system}-{sampler}-{mode}" for system, sampler, mode in MATRIX
]


#: Step budget for "exact"-mode cells: deterministic livelocks burn the
#: whole budget on every engine, so it stays small.
EXACT_MAX_STEPS = 200


def _point(entry, system, sampler_key, seed, mode="ks", fault=None):
    if mode == "exact":
        # Deterministic dynamics with *explicit* initial configurations:
        # every engine cycles the same list the same way, so outcomes
        # must be identical (the scalar engine's lazy initial draws
        # would otherwise interleave with its action-selection draws).
        initials = tuple(
            random_configurations(system, RandomSource(seed), entry.trials)
        )
        return SweepPointSpec(
            system=system,
            sampler=CONFORMANCE_SAMPLERS[sampler_key](),
            legitimate=entry.legitimate(system),
            trials=entry.trials,
            max_steps=EXACT_MAX_STEPS,
            seed=seed,
            batch_legitimate=entry.batch_legitimate,
            initial_configurations=initials,
            label=f"{entry.name}-{sampler_key}",
            fault=fault,
        )
    return SweepPointSpec(
        system=system,
        sampler=CONFORMANCE_SAMPLERS[sampler_key](),
        legitimate=entry.legitimate(system),
        trials=entry.trials,
        max_steps=entry.max_steps,
        seed=seed,
        batch_legitimate=entry.batch_legitimate,
        label=f"{entry.name}-{sampler_key}",
        fault=fault,
    )


def _run(entry, system, sampler_key, engine, seed, mode="ks", fault=None):
    runner = SweepRunner(engine=engine)
    (result,) = runner.run(
        [_point(entry, system, sampler_key, seed, mode, fault)]
    )
    assert runner.last_plan[0].engine == engine
    return result


@pytest.mark.parametrize(
    "system_name,sampler_key,mode", MATRIX, ids=MATRIX_IDS
)
def test_montecarlo_engines_agree(system_name, sampler_key, mode):
    entry = conformance_entry(system_name)
    system = conformance_system(system_name)
    seed = 977
    scalar = _run(entry, system, sampler_key, "scalar", seed, mode)
    batch = _run(entry, system, sampler_key, "batch", seed, mode)
    fused = _run(entry, system, sampler_key, "fused", seed, mode)

    if mode == "exact":
        # Deterministic dynamics: identical initial draws, identical
        # trajectories — the three engines must agree bit-for-bit,
        # censored (livelocked) trials included.
        assert scalar == batch == fused
        return

    # Stochastic dynamics: structural outcomes are exact, per-trial
    # stabilization times distributional.
    for result in (scalar, batch, fused):
        assert result.trials == entry.trials
        assert result.censored == 0, (
            f"{system_name}/{sampler_key}: engine failed to converge"
        )
    for name, result in (("batch", batch), ("fused", fused)):
        statistic = ks_statistic(scalar.samples, result.samples)
        bound = ks_bound(len(scalar.samples), len(result.samples))
        assert statistic < bound, (
            f"{system_name}/{sampler_key}: scalar-vs-{name} KS statistic"
            f" {statistic:.4f} exceeds bound {bound:.4f}"
        )
        scalar_mean = float(np.mean(scalar.samples))
        other_mean = float(np.mean(result.samples))
        scalar_sem = float(
            np.std(scalar.samples) / np.sqrt(len(scalar.samples))
        )
        assert other_mean == pytest.approx(
            scalar_mean, abs=max(5.0 * scalar_sem, 0.5)
        )


@pytest.mark.parametrize(
    "system_name,sampler_key,mode", MATRIX, ids=MATRIX_IDS
)
def test_montecarlo_engines_agree_under_fault(system_name, sampler_key, mode):
    """The fault axis: every matrix cell re-run under transient
    corruption (see ``conformance_fault_plan``).  Deterministic cells
    must stay bit-identical through the corruption; stochastic cells
    must recover on every engine and agree on both the total
    stabilization-time and the post-fault recovery-time distributions."""
    entry = conformance_entry(system_name)
    system = conformance_system(system_name)
    seed = 1409
    fault = conformance_fault_plan(system, mode)
    scalar = _run(entry, system, sampler_key, "scalar", seed, mode, fault)
    batch = _run(entry, system, sampler_key, "batch", seed, mode, fault)
    fused = _run(entry, system, sampler_key, "fused", seed, mode, fault)

    if mode == "exact":
        assert scalar == batch == fused
        return

    for result in (scalar, batch, fused):
        assert result.trials == entry.trials
        assert result.faulted == entry.trials, (
            f"{system_name}/{sampler_key}: at-convergence fault"
            " failed to fire on every trial"
        )
        assert result.censored == 0, (
            f"{system_name}/{sampler_key}: engine failed to recover"
        )
        assert result.recovery_samples is not None
    for name, result in (("batch", batch), ("fused", fused)):
        for metric in ("samples", "recovery_samples"):
            reference = getattr(scalar, metric)
            candidate = getattr(result, metric)
            statistic = ks_statistic(reference, candidate)
            bound = ks_bound(len(reference), len(candidate))
            assert statistic < bound, (
                f"{system_name}/{sampler_key}: scalar-vs-{name}"
                f" {metric} KS statistic {statistic:.4f} exceeds"
                f" bound {bound:.4f}"
            )


@pytest.mark.parametrize(
    "system_name,sampler_key,mode",
    [cell for cell in MATRIX if cell[2] == "ks"][::3],
    ids=[
        f"{system}-{sampler}"
        for system, sampler, mode in MATRIX
        if mode == "ks"
    ][::3],
)
def test_fused_multi_seed_replications_match_scalar(
    system_name, sampler_key, mode
):
    """Fusing several seed replications of one cell into one matrix
    leaves each replication distribution-equivalent to its own scalar
    oracle run (pooled comparison over the whole fused group)."""
    entry = conformance_entry(system_name)
    system = conformance_system(system_name)
    seeds = (11, 22, 33)
    points = [
        _point(entry, system, sampler_key, seed) for seed in seeds
    ]
    fused_runner = SweepRunner(engine="fused")
    fused = fused_runner.run(points)
    assert all(
        execution.engine == "fused"
        and execution.fused_rows == entry.trials * len(seeds)
        for execution in fused_runner.last_plan
    )
    scalar = SweepRunner(engine="scalar").run(points)
    pooled_fused = [t for result in fused for t in result.samples]
    pooled_scalar = [t for result in scalar for t in result.samples]
    assert len(pooled_fused) == len(pooled_scalar) == entry.trials * 3
    statistic = ks_statistic(pooled_scalar, pooled_fused)
    assert statistic < ks_bound(len(pooled_scalar), len(pooled_fused))


# ----------------------------------------------------------------------
# one lockstep loop: a one-point fused run is the BatchEngine path
# ----------------------------------------------------------------------
def _assert_fused_is_batch_engine(
    entry, system, sampler_key, seed, mode, monkeypatch, fault=None
):
    """Run one point through ``SweepRunner(engine="fused")`` and through
    ``BatchEngine.run`` / ``run_with_fault`` with the same initial codes
    and the same generator seed, and demand bit-identical outcome
    vectors *and* final generator state."""
    generators = []
    numpy_generator = RandomSource.numpy_generator

    def recording(source):
        generator = numpy_generator(source)
        generators.append(generator)
        return generator

    monkeypatch.setattr(RandomSource, "numpy_generator", recording)
    spec = _point(entry, system, sampler_key, seed, mode, fault)
    emitted = []
    (fused_result,) = SweepRunner(engine="fused").run(
        [spec], sink=emitted.append
    )
    (fused,) = emitted
    (fused_generator,) = generators

    engine = BatchEngine(system)
    if spec.initial_configurations is not None:
        codes = encode_initials(
            engine.encoding, spec.initial_configurations, spec.trials
        )
    else:
        codes = engine.encoding.encode_batch(
            random_configurations(system, RandomSource(seed), spec.trials)
        )
    strategy = batch_strategy_for(spec.sampler)
    legitimacy = compile_legitimacy(
        spec.batch_legitimate
        if spec.batch_legitimate is not None
        else spec.legitimate
    )
    generator = RandomSource(_fold_seeds([seed])).numpy_generator()
    if fault is None:
        outcome = engine.run(
            strategy, legitimacy, codes, spec.max_steps, generator
        )
        assert fused.fault_times is None
    else:
        outcome = engine.run_with_fault(
            strategy,
            legitimacy,
            codes,
            spec.max_steps,
            generator,
            compile_fault(fault, engine.encoding, spec.trials),
        )
        assert np.array_equal(fused.fault_times, outcome.fault_times)
        assert fused_result == fault_result_from_arrays(
            spec.trials,
            outcome.times,
            outcome.converged,
            outcome.hit_terminal,
            outcome.timed_out,
            outcome.fault_times,
            outcome.legit_counts,
            outcome.observations,
            outcome.max_runs,
        )
    assert np.array_equal(fused.times, outcome.times)
    assert np.array_equal(fused.converged, outcome.converged)
    assert np.array_equal(fused.hit_terminal, outcome.hit_terminal)
    assert np.array_equal(fused.timed_out, outcome.timed_out)
    assert (
        fused_generator.bit_generator.state
        == generator.bit_generator.state
    )


@pytest.mark.parametrize(
    "system_name,sampler_key,mode", MATRIX, ids=MATRIX_IDS
)
def test_fused_equals_batch_engine(
    system_name, sampler_key, mode, monkeypatch
):
    """The lockstep loop's contract, pinned on every matrix cell: a
    one-point fused sweep and ``BatchEngine.run`` are the same run —
    identical retirement vectors and an identical random stream, so
    even stochastic cells must agree bit-for-bit."""
    _assert_fused_is_batch_engine(
        conformance_entry(system_name),
        conformance_system(system_name),
        sampler_key,
        515,
        mode,
        monkeypatch,
    )


@pytest.mark.parametrize(
    "system_name,sampler_key,mode", MATRIX, ids=MATRIX_IDS
)
def test_fused_equals_batch_engine_under_fault(
    system_name, sampler_key, mode, monkeypatch
):
    """The same contract on the fault axis: a one-point faulted fused
    sweep and ``BatchEngine.run_with_fault`` agree on every vector of
    the fault timeline and on the generator state."""
    system = conformance_system(system_name)
    _assert_fused_is_batch_engine(
        conformance_entry(system_name),
        system,
        sampler_key,
        1583,
        mode,
        monkeypatch,
        fault=conformance_fault_plan(system, mode),
    )


# ----------------------------------------------------------------------
# exact tier: compiled chains and exploration, bit-equality
# ----------------------------------------------------------------------
#: Registry systems with full spaces small enough for exact analysis.
CHAIN_SYSTEMS = (
    "token-ring5",
    "herman-ring5",
    "israeli-jalfon-ring6",
    "leader-path5",
    "coloring-star4",
)

CHAIN_DISTRIBUTIONS = {
    "central": CentralRandomizedDistribution,
    "synchronous": SynchronousDistribution,
    "distributed": DistributedRandomizedDistribution,
}


@pytest.mark.parametrize("distribution_key", sorted(CHAIN_DISTRIBUTIONS))
@pytest.mark.parametrize("system_name", CHAIN_SYSTEMS)
def test_compiled_chain_bit_equal_to_scalar(system_name, distribution_key):
    system = conformance_system(system_name)
    make_distribution = CHAIN_DISTRIBUTIONS[distribution_key]
    scalar = build_chain(system, make_distribution(), engine="scalar")
    compiled = build_chain(system, make_distribution(), engine="compiled")
    assert scalar.states == compiled.states
    assert scalar.scheduler_name == compiled.scheduler_name
    scalar_data, scalar_indices, scalar_indptr = scalar.transition_arrays()
    data, indices, indptr = compiled.transition_arrays()
    assert (scalar_indptr == indptr).all()
    assert (scalar_indices == indices).all()
    # Bit-equality, not approximation: the compiled builder accumulates
    # in the oracle's emission order (see docs/architecture.md).
    assert (scalar_data == data).all()


@pytest.mark.parametrize(
    "relation_key,make_relation",
    [("central", CentralRelation), ("synchronous", SynchronousRelation)],
)
@pytest.mark.parametrize("system_name", CHAIN_SYSTEMS)
def test_sharded_exploration_bit_equal_to_sequential(
    system_name, relation_key, make_relation
):
    system = conformance_system(system_name)
    # The dict walk is the oracle of the compiled explorer.
    walk = StateSpace._explore_walk(system, make_relation())
    compiled = StateSpace.explore(system, make_relation())
    assert walk.configurations == compiled.configurations
    assert walk.index == compiled.index
    assert walk.edges == compiled.edges
    assert walk.enabled == compiled.enabled


CHAIN_RELATIONS = {
    "central": CentralRelation,
    "synchronous": SynchronousRelation,
    "distributed": DistributedRelation,
}


@pytest.mark.parametrize("relation_key", sorted(CHAIN_RELATIONS))
@pytest.mark.parametrize("system_name", CHAIN_SYSTEMS)
def test_explored_support_equals_chain_support(system_name, relation_key):
    """The explored digraph is the support of the randomized chain over
    the same subsets — what carries weak stabilization over to
    probabilistic self-stabilization.  Terminal states differ only by
    the chain's self-loop."""
    system = conformance_system(system_name)
    space = StateSpace.explore(system, CHAIN_RELATIONS[relation_key]())
    chain = build_chain(system, CHAIN_DISTRIBUTIONS[relation_key]())
    assert chain.states == space.configurations
    data, indices, indptr = chain.transition_arrays()
    for source, outgoing in enumerate(space.edges):
        row = slice(indptr[source], indptr[source + 1])
        support = set(indices[row][data[row] > 0.0].tolist())
        if space.is_terminal(source):
            assert outgoing == [] and support == {source}
        else:
            assert {target for _, target in outgoing} == support


def test_matrix_covers_required_axes():
    """The registry spans the algorithms, topologies, and schedulers the
    conformance tier promises to cover."""
    algorithms = {entry.algorithm for entry in CONFORMANCE_SYSTEMS}
    topologies = {entry.topology for entry in CONFORMANCE_SYSTEMS}
    samplers = {
        sampler_key
        for entry in CONFORMANCE_SYSTEMS
        for sampler_key, _ in entry.sampler_modes
    }
    assert {
        "token-ring",
        "leader-tree",
        "herman",
        "israeli-jalfon",
        "coloring",
    } <= algorithms
    assert {"ring", "chain", "star", "tree"} <= topologies
    assert samplers == {
        "synchronous",
        "central",
        "distributed",
        "bernoulli",
    }
