"""Seeded property tests: the compiled kernel tables' source of truth.

:func:`repro.core.encoding.compile_tables` builds every table entry from
:meth:`System.resolve_neighborhood`, and the scalar oracle paths
(:class:`repro.core.simulate.Cursor`, the explorer's dict walk, the
chain builder's ``engine="scalar"``) read :class:`System` directly.
These tests assert that each of them is bit-for-bit the full-configuration
semantics — ``enabled_processes``, ``enabled_actions``, ``outcome_states``,
``sample_step``, whole sampled traces, state-space exploration, and chain
building — across deterministic and probabilistic algorithms on assorted
topologies and seeds.

Israeli–Jalfon is deliberately absent from the system zoo: it is modeled
directly as a Markov process on token-position sets (see the substitution
note in :mod:`repro.algorithms.israeli_jalfon`), not as a guarded-command
``System``, so there is no neighborhood resolution to compare.  The
probabilistic slots are covered by Herman's ring, randomized coloring,
and the coin-toss-transformed token ring instead.
"""

import pytest

from repro.algorithms.herman_ring import make_herman_system
from repro.algorithms.leader_tree import make_leader_tree_system
from repro.algorithms.randomized_coloring import (
    make_randomized_coloring_system,
)
from repro.algorithms.token_ring import make_token_ring_system
from repro.core.encoding import compile_tables
from repro.core.simulate import Cursor, run, run_until
from repro.core.system import System
from repro.errors import ModelError
from repro.graphs.generators import path, random_tree, ring, star
from repro.markov.builder import build_chain
from repro.markov.montecarlo import (
    estimate_stabilization_time,
    random_configuration,
)
from repro.random_source import RandomSource
from repro.schedulers.distributions import (
    BernoulliDistribution,
    CentralRandomizedDistribution,
    SynchronousDistribution,
)
from repro.schedulers.relations import (
    CentralRelation,
    DistributedRelation,
    SynchronousRelation,
)
from repro.schedulers.samplers import (
    CentralRandomizedSampler,
    DistributedRandomizedSampler,
    RoundRobinSampler,
    SynchronousSampler,
)
from repro.stabilization.statespace import StateSpace
from repro.transformer.coin_toss import make_transformed_system


def _system_zoo():
    return [
        ("token-ring-5", make_token_ring_system(5)),
        ("token-ring-6", make_token_ring_system(6)),
        ("leader-path-5", make_leader_tree_system(path(5))),
        ("leader-star-4", make_leader_tree_system(star(4))),
        (
            "leader-random-tree-8",
            make_leader_tree_system(random_tree(8, RandomSource(42))),
        ),
        ("herman-5", make_herman_system(5)),
        ("herman-7", make_herman_system(7)),
        ("coloring-ring-5", make_randomized_coloring_system(ring(5))),
        (
            "coloring-random-tree-7",
            make_randomized_coloring_system(random_tree(7, RandomSource(7))),
        ),
        ("trans-token-ring-4", make_transformed_system(make_token_ring_system(4))),
    ]


ZOO = _system_zoo()
ZOO_IDS = [name for name, _ in ZOO]


def _sample_configurations(system, count=40, seed=11):
    rng = RandomSource(seed)
    return [random_configuration(system, rng) for _ in range(count)]


def _normalize(resolved):
    """Comparable form of ``resolved_actions``-shaped output."""
    return {
        process: [
            (action.name, list(outcomes)) for action, outcomes in choices
        ]
        for process, choices in resolved.items()
    }


def _neighborhood_key(system, configuration, process):
    return (configuration[process],) + tuple(
        configuration[q] for q in system.topology.neighbors(process)
    )


@pytest.mark.parametrize("name,system", ZOO, ids=ZOO_IDS)
class TestReadPathEquivalence:
    def test_enabled_and_resolved_match(self, name, system):
        """A neighborhood resolves exactly as the full configuration."""
        for configuration in _sample_configurations(system):
            resolved = {}
            for process in system.processes:
                actions = system.resolve_neighborhood(
                    process, _neighborhood_key(system, configuration, process)
                )
                assert tuple(
                    action for action, _ in actions
                ) == system.enabled_actions(configuration, process)
                assert bool(actions) == system.is_enabled(
                    configuration, process
                )
                if actions:
                    resolved[process] = actions
            assert tuple(resolved) == system.enabled_processes(configuration)
            assert _normalize(resolved) == _normalize(
                system.resolved_actions(configuration)
            )

    def test_statements_run_once_per_neighborhood(
        self, name, system, monkeypatch
    ):
        """Compilation resolves each stored class entry exactly once."""
        calls = []
        resolve = System.resolve_neighborhood

        def spy(self, process, key):
            calls.append((process, tuple(key)))
            return resolve(self, process, key)

        monkeypatch.setattr(System, "resolve_neighborhood", spy)
        tables = compile_tables(system)
        assert len(calls) == tables.num_entries
        assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("name,system", ZOO, ids=ZOO_IDS)
def test_sample_step_consumes_identical_random_stream(name, system):
    """The simulator's cursor steps exactly as ``System.sample_step``."""
    rng_step = RandomSource(97)
    rng_cursor = RandomSource(97)
    picker = RandomSource(3)
    for configuration in _sample_configurations(system, count=20, seed=5):
        enabled = system.enabled_processes(configuration)
        if not enabled:
            continue
        subset = [p for p in enabled if picker.coin()] or [enabled[0]]
        target, moves = system.sample_step(configuration, subset, rng_step)
        cursor = Cursor(system, configuration)
        assert cursor.enabled == enabled
        assert cursor.advance(subset, rng_cursor) == moves
        assert cursor.configuration == target
        assert cursor.enabled == system.enabled_processes(target)
    # Both sources must be in the same state afterwards.
    assert rng_step.random() == rng_cursor.random()


def _reference_run(system, sampler, initial, max_steps, rng):
    """``run`` spelled out over the full-configuration semantics."""
    configurations = [initial]
    steps = []
    configuration = initial
    for _ in range(max_steps):
        enabled = system.enabled_processes(configuration)
        if not enabled:
            break
        subset = list(sampler.choose(system, configuration, enabled, rng))
        configuration, moves = system.sample_step(configuration, subset, rng)
        configurations.append(configuration)
        steps.append(moves)
    return configurations, steps


@pytest.mark.parametrize(
    "sampler_factory",
    [
        SynchronousSampler,
        CentralRandomizedSampler,
        DistributedRandomizedSampler,
        RoundRobinSampler,
    ],
    ids=lambda f: f.name,
)
@pytest.mark.parametrize("seed", [0, 1, 2008])
def test_sampled_traces_identical_across_paths(sampler_factory, seed):
    for _, system in ZOO:
        initial = random_configuration(system, RandomSource(seed + 1))
        configurations, steps = _reference_run(
            system, sampler_factory(), initial, 300, RandomSource(seed)
        )
        trace = run(
            system,
            sampler_factory(),
            initial,
            max_steps=300,
            rng=RandomSource(seed),
        )
        assert trace.configurations == configurations
        assert [step.moves for step in trace.steps] == steps


def test_cursor_tracks_enabled_incrementally():
    system = make_token_ring_system(8)
    cursor = Cursor(system, next(system.all_configurations()))
    rng = RandomSource(13)
    picker = RandomSource(14)
    for _ in range(200):
        enabled = cursor.enabled
        assert enabled == system.enabled_processes(cursor.configuration)
        if not enabled:
            break
        subset = [p for p in enabled if picker.coin()] or [enabled[-1]]
        cursor.advance(subset, rng)


@pytest.mark.parametrize(
    "relation_factory",
    [CentralRelation, SynchronousRelation, DistributedRelation],
    ids=lambda f: f.name,
)
def test_statespace_exploration_identical(relation_factory):
    for name, system in (
        ("token-ring-5", make_token_ring_system(5)),
        ("herman-5", make_herman_system(5)),
    ):
        walk = StateSpace._explore_walk(system, relation_factory())
        compiled = StateSpace.explore(system, relation_factory())
        assert walk.configurations == compiled.configurations
        assert walk.index == compiled.index
        assert walk.edges == compiled.edges
        assert walk.enabled == compiled.enabled


@pytest.mark.parametrize(
    "distribution_factory",
    [
        CentralRandomizedDistribution,
        SynchronousDistribution,
        lambda: BernoulliDistribution(0.3),
    ],
    ids=["central-randomized", "synchronous", "bernoulli-0.3"],
)
def test_chain_rows_identical(distribution_factory):
    for system in (make_token_ring_system(5), make_herman_system(5)):
        scalar = build_chain(system, distribution_factory(), engine="scalar")
        compiled = build_chain(system, distribution_factory())
        assert scalar.states == compiled.states
        assert scalar.rows == compiled.rows


def test_run_until_and_montecarlo_identical_across_paths():
    system = make_leader_tree_system(random_tree(9, RandomSource(3)))
    initial = random_configuration(system, RandomSource(8))
    full = run_until(
        system,
        DistributedRandomizedSampler(),
        initial,
        stop=system.is_terminal,
        max_steps=20_000,
        rng=RandomSource(6),
    )
    compact = run_until(
        system,
        DistributedRandomizedSampler(),
        initial,
        stop=system.is_terminal,
        max_steps=20_000,
        rng=RandomSource(6),
        record=False,
    )
    assert full.converged == compact.converged
    assert full.steps_taken == compact.steps_taken
    assert full.trace.final == compact.trace.final
    # Compact traces retain only the endpoints and refuse
    # history-derived queries instead of answering from thin air.
    assert len(compact.trace.configurations) <= 2
    assert compact.trace.initial == initial
    assert not compact.trace.has_full_history
    with pytest.raises(ModelError):
        compact.trace.acting_sets()
    with pytest.raises(ModelError):
        compact.trace.visits(initial)

    result = estimate_stabilization_time(
        system,
        DistributedRandomizedSampler(),
        system.is_terminal,
        trials=25,
        max_steps=20_000,
        rng=RandomSource(21),
    )
    assert result.converged == result.trials
    assert result.stats is not None and result.stats.mean > 0
