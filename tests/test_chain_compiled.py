"""Compiled-vs-scalar chain equivalence: the oracle contract.

The compiled wire-format builder (``build_chain(engine="compiled")``)
must reproduce the dict-walk oracle (``engine="scalar"``) exactly: same
state list in the same order, bit-identical CSR arrays (multi-action
cells included), and identical downstream verdicts
(``hitting_summary``, ``classify_probabilistic``) — across topologies,
scheduler distributions, deterministic and probabilistic systems, and
both full-space and restricted-initial modes.  Every view of the one
expander (chain, ``ParametricChain``, ``build_mdp``) takes its array
layer; what the compiled path cannot take (custom distributions, rank
spaces beyond int64) ``"auto"`` builds with the dict walk, and
``"compiled"`` and ``ParametricChain`` refuse.  Also covers the
CSR-native :class:`MarkovChain` surface: cached matrix exports, the lazy
``rows`` view, and vectorized ``mark`` predicates.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from conformance_registry import conformance_system, make_two_action_system
from repro.algorithms.dijkstra_ring import make_dijkstra_system
from repro.algorithms.herman_ring import HermanSingleTokenSpec, make_herman_system
from repro.algorithms.leader_tree import TreeLeaderSpec, make_leader_tree_system
from repro.algorithms.token_ring import TokenCirculationSpec, make_token_ring_system
from repro.algorithms.two_process import BothTrueSpec, make_two_process_system
from repro.core.encoding import expansion_context, tables_for
from repro.errors import MarkovError, SchedulerError
from repro.graphs.generators import figure3_chain, star
from repro.markov.batch import DecodingLegitimacy, EnabledCountLegitimacy
import repro.markov.builder as builder_module
from repro.markov.builder import CHAIN_ENGINES, build_chain
from repro.markov.hitting import hitting_summary
from repro.markov.mdp import MDP_DAEMONS, build_mdp
from repro.markov.parametric import ParametricChain
from repro.schedulers.distributions import (
    BernoulliDistribution,
    CentralRandomizedDistribution,
    DistributedRandomizedDistribution,
    SchedulerDistribution,
    SynchronousDistribution,
)
from repro.schedulers.relations import CentralRelation
from repro.stabilization.probabilistic import classify_probabilistic
from repro.stabilization.statespace import StateSpace
from repro.transformer.coin_toss import TransformedSpec, make_transformed_system

#: Probability agreement demanded of the compiled path, per entry.
TOLERANCE = 1e-12

SYSTEMS = {
    "ring5": lambda: make_token_ring_system(5),
    "chain4": lambda: make_leader_tree_system(figure3_chain()),
    "star3": lambda: make_leader_tree_system(star(3)),
    "two-process": lambda: make_two_process_system(),
    "herman5": lambda: make_herman_system(5),
    "trans(two-process)": lambda: make_transformed_system(
        make_two_process_system()
    ),
    # An inexact coin: products of 0.3/0.7 factors depend on their order.
    "trans(ring4, 0.3)": lambda: make_transformed_system(
        make_token_ring_system(4), 0.3
    ),
    # Two enabled actions per cell, each a 0.3/0.7 coin: the action
    # assignments and the outcome combinations both expand.
    "trans(two-action3, 0.3)": lambda: make_transformed_system(
        make_two_action_system(3), 0.3
    ),
}

DISTRIBUTIONS = {
    "central": CentralRandomizedDistribution,
    "synchronous": SynchronousDistribution,
    "distributed": DistributedRandomizedDistribution,
    "bernoulli-lazy": lambda: BernoulliDistribution(0.5, True),
    "bernoulli-strict": lambda: BernoulliDistribution(0.3, False),
}


def assert_chains_equivalent(scalar, compiled):
    assert scalar.states == compiled.states
    assert scalar.scheduler_name == compiled.scheduler_name
    assert len(scalar.rows) == len(compiled.rows)
    for row_scalar, row_compiled in zip(scalar.rows, compiled.rows):
        assert set(row_scalar) == set(row_compiled)
        for target, probability in row_scalar.items():
            assert row_compiled[target] == pytest.approx(
                probability, abs=TOLERANCE
            )


@pytest.mark.parametrize("distribution_name", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_full_space_equivalence(system_name, distribution_name):
    system = SYSTEMS[system_name]()
    make_distribution = DISTRIBUTIONS[distribution_name]
    scalar = build_chain(system, make_distribution(), engine="scalar")
    compiled = build_chain(system, make_distribution(), engine="compiled")
    assert_chains_equivalent(scalar, compiled)


@pytest.mark.parametrize("distribution_name", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize(
    "system_name", ["ring5", "two-process", "herman5", "trans(two-process)"]
)
def test_restricted_initial_equivalence(system_name, distribution_name):
    system = SYSTEMS[system_name]()
    make_distribution = DISTRIBUTIONS[distribution_name]
    initial = [next(iter(system.all_configurations()))]
    scalar = build_chain(
        system, make_distribution(), initial=initial, engine="scalar"
    )
    compiled = build_chain(
        system, make_distribution(), initial=initial, engine="compiled"
    )
    assert_chains_equivalent(scalar, compiled)
    # The forward closure must be a strict restriction, not the full
    # space, for this test to exercise the BFS interning path.
    assert compiled.num_states <= system.num_configurations()


def _replay_twin(distribution):
    """The same distribution as a trivial subclass: identical subsets, but
    not an exact built-in type, so ``"auto"`` replays its own subset
    enumeration in the dict walk and ``"compiled"`` refuses it."""
    twin = copy.copy(distribution)
    twin.__class__ = type(
        f"Replay{type(distribution).__name__}", (type(distribution),), {}
    )
    return twin


def _count_calls(monkeypatch, name):
    """Counts the calls of ``repro.markov.builder.<name>``."""
    calls = []
    original = getattr(builder_module, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(builder_module, name, spy)
    return calls


@pytest.fixture
def array_layer_calls(monkeypatch):
    """Counts the compiled blocks expanded by the array layer."""
    return _count_calls(monkeypatch, "_array_edges")


@pytest.fixture
def dict_walk_calls(monkeypatch):
    """Counts the chains built by the dict walk (``_build_scalar``)."""
    return _count_calls(monkeypatch, "_build_scalar")


def assert_arrays_identical(expected, actual):
    assert expected.states == actual.states
    for ours, theirs in zip(
        expected.transition_arrays(), actual.transition_arrays()
    ):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("distribution_name", sorted(DISTRIBUTIONS))
@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
def test_array_layer_bit_identical_to_replay(
    system_name, distribution_name, array_layer_calls
):
    """The array layer against the dict walk, and against the dict
    walk's replay of a subclass twin's own subset enumeration."""
    system = SYSTEMS[system_name]()
    distribution = DISTRIBUTIONS[distribution_name]()
    array = build_chain(system, distribution, engine="compiled")
    assert array_layer_calls, "the exact built-in type takes the array layer"
    array_layer_calls.clear()
    replay = build_chain(system, _replay_twin(distribution))
    assert not array_layer_calls, "a subclass takes the dict walk"
    assert_arrays_identical(replay, array)
    scalar = build_chain(system, distribution, engine="scalar")
    assert_arrays_identical(scalar, array)


@pytest.mark.parametrize(
    "distribution",
    [
        DistributedRandomizedDistribution(max_enabled=2),
        BernoulliDistribution(0.5, True, max_enabled=2),
    ],
    ids=["distributed", "bernoulli"],
)
def test_max_enabled_overflow_raises_on_both_paths(distribution):
    """The array layer raises the dict walk's ``SchedulerError``."""
    system = make_herman_system(5)
    messages = []
    for candidate, engine in (
        (distribution, "compiled"),
        (distribution, "scalar"),
        (_replay_twin(distribution), "auto"),
    ):
        with pytest.raises(SchedulerError) as raised:
            build_chain(system, candidate, engine=engine)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] == messages[2]


@pytest.mark.parametrize("distribution_name", sorted(DISTRIBUTIONS))
def test_multi_action_blocks_take_the_array_layer(
    distribution_name, array_layer_calls
):
    """Every block of the full space holds a two-action cell; the chain
    and the parametric view take the array layer and equal the dict
    walk bit for bit."""
    system = make_two_action_system(4)
    distribution = DISTRIBUTIONS[distribution_name]()
    compiled = build_chain(system, distribution, engine="compiled")
    assert array_layer_calls
    scalar = build_chain(system, distribution, engine="scalar")
    assert_arrays_identical(scalar, compiled)
    array_layer_calls.clear()
    assert_arrays_identical(
        scalar, ParametricChain(system, distribution).instantiate()
    )
    assert array_layer_calls


@pytest.mark.parametrize("daemon", MDP_DAEMONS)
def test_multi_action_mdp_takes_the_array_layer(daemon, array_layer_calls):
    """``tests/test_mdp.py`` pins these MDPs to its scalar oracle."""
    build_mdp(make_two_action_system(4), daemon=daemon)
    assert array_layer_calls


class FirstEnabledDistribution(SchedulerDistribution):
    """A custom distribution: the smallest enabled process moves."""

    name = "first-enabled"

    def weighted_subsets(self, enabled):
        return [(1.0, (min(enabled),))]


def test_custom_distribution_takes_the_dict_walk(
    array_layer_calls, dict_walk_calls
):
    system = make_token_ring_system(4)
    chain = build_chain(system, FirstEnabledDistribution())
    assert dict_walk_calls and not array_layer_calls
    assert chain.scheduler_name == "first-enabled"
    assert all(len(row) == 1 for row in chain.rows)
    with pytest.raises(MarkovError, match="not a built-in distribution"):
        build_chain(system, FirstEnabledDistribution(), engine="compiled")
    with pytest.raises(MarkovError, match="not a built-in distribution"):
        ParametricChain(system, FirstEnabledDistribution())


@pytest.mark.parametrize("distribution_name", sorted(DISTRIBUTIONS))
def test_rank_space_beyond_int64_takes_the_dict_walk(
    distribution_name, array_layer_calls, dict_walk_calls
):
    """Dijkstra's ring of 20 has 20^20 configurations: its ranks do not
    fit int64, so a chain seeded at a legitimate configuration is built
    by the dict walk, and the compiled engine refuses."""
    system = make_dijkstra_system(20)
    assert not expansion_context(tables_for(system)).int64_safe
    seed = [next(system.all_configurations())]
    distribution = DISTRIBUTIONS[distribution_name]()
    auto = build_chain(system, distribution, initial=seed)
    assert dict_walk_calls and not array_layer_calls
    assert auto.num_states == 400  # the N·K legitimate configurations
    assert_arrays_identical(
        build_chain(system, distribution, initial=seed, engine="scalar"),
        auto,
    )
    with pytest.raises(MarkovError, match="exceed int64"):
        build_chain(system, distribution, initial=seed, engine="compiled")
    with pytest.raises(MarkovError, match="exceed int64"):
        ParametricChain(system, distribution, initial=seed)


def test_rank_space_beyond_int64_compiles_no_tables(monkeypatch):
    """Whether ranks fit int64 is known from the local-state counts, so
    neither the chain builder nor the explorer compiles the Dijkstra
    ring-20 tables before taking its dict walk."""
    import repro.stabilization.statespace as statespace_module

    compiled = []
    for module in (builder_module, statespace_module):
        original = module.tables_for

        def spy(system, *args, _original=original, **kwargs):
            compiled.append(system)
            return _original(system, *args, **kwargs)

        monkeypatch.setattr(module, "tables_for", spy)
    system = make_dijkstra_system(20)
    seed = [next(system.all_configurations())]  # the all-zero configuration
    assert set(seed[0]) == {(0,)}
    chain = build_chain(system, CentralRandomizedDistribution(), initial=seed)
    space = StateSpace.explore(system, CentralRelation(), initial=seed)
    assert compiled == []
    assert_arrays_identical(
        build_chain(
            system, CentralRandomizedDistribution(), initial=seed,
            engine="scalar",
        ),
        chain,
    )
    oracle = StateSpace._explore_walk(system, CentralRelation(), seed)
    assert space.configurations == oracle.configurations
    assert space.edges == oracle.edges
    assert space.enabled == oracle.enabled


def test_parametric_and_mdp_views_take_the_array_layer(array_layer_calls):
    ParametricChain(
        conformance_system("herman-ring5"), SynchronousDistribution()
    )
    assert array_layer_calls, "ParametricChain takes the array layer"
    array_layer_calls.clear()
    build_mdp(conformance_system("token-ring5"), daemon="central")
    assert array_layer_calls, "build_mdp takes the array layer"


def test_auto_engine_matches_both(ring5_system):
    auto = build_chain(ring5_system, CentralRandomizedDistribution())
    scalar = build_chain(
        ring5_system, CentralRandomizedDistribution(), engine="scalar"
    )
    assert_chains_equivalent(scalar, auto)


@pytest.mark.parametrize(
    "system_name, spec",
    [
        ("ring5", TokenCirculationSpec()),
        ("chain4", TreeLeaderSpec()),
        ("herman5", HermanSingleTokenSpec()),
    ],
)
@pytest.mark.parametrize("distribution_name", ["central", "synchronous"])
def test_downstream_hitting_verdicts_identical(
    system_name, spec, distribution_name
):
    system = SYSTEMS[system_name]()
    make_distribution = DISTRIBUTIONS[distribution_name]
    summaries = []
    for engine in ("scalar", "compiled"):
        chain = build_chain(system, make_distribution(), engine=engine)
        summaries.append(hitting_summary(chain, chain.mark(spec.legitimate)))
    scalar_summary, compiled_summary = summaries
    assert (
        scalar_summary.converges_with_probability_one
        == compiled_summary.converges_with_probability_one
    )
    assert scalar_summary.num_target == compiled_summary.num_target
    assert compiled_summary.min_absorption == pytest.approx(
        scalar_summary.min_absorption, abs=1e-9
    )
    assert compiled_summary.mean_expected_steps == pytest.approx(
        scalar_summary.mean_expected_steps, rel=1e-9
    )
    assert compiled_summary.worst_expected_steps == pytest.approx(
        scalar_summary.worst_expected_steps, rel=1e-9
    )


def test_downstream_classify_verdicts_identical(two_process_system):
    transformed = make_transformed_system(two_process_system)
    spec = TransformedSpec(BothTrueSpec(), two_process_system)
    verdicts = [
        classify_probabilistic(
            transformed,
            spec,
            DistributedRandomizedDistribution(),
            engine=engine,
        )
        for engine in ("scalar", "compiled")
    ]
    scalar_verdict, compiled_verdict = verdicts
    assert (
        scalar_verdict.is_probabilistically_self_stabilizing
        == compiled_verdict.is_probabilistically_self_stabilizing
    )
    assert scalar_verdict.support_closure == compiled_verdict.support_closure
    assert (
        scalar_verdict.num_closure_violations
        == compiled_verdict.num_closure_violations
    )
    assert scalar_verdict.num_states == compiled_verdict.num_states
    assert compiled_verdict.min_absorption == pytest.approx(
        scalar_verdict.min_absorption, abs=1e-9
    )
    assert compiled_verdict.mean_expected_steps == pytest.approx(
        scalar_verdict.mean_expected_steps, rel=1e-9
    )


# ----------------------------------------------------------------------
# engine selection
# ----------------------------------------------------------------------
def test_unknown_engine_rejected(ring5_system):
    with pytest.raises(MarkovError):
        build_chain(
            ring5_system, CentralRandomizedDistribution(), engine="warp"
        )
    assert CHAIN_ENGINES == ("auto", "compiled", "scalar")


def test_compiled_engine_over_table_budget(monkeypatch, ring5_system):
    # Force table compilation failure to check the demand-vs-auto split.
    import repro.markov.builder as builder_module

    def refuse(system, *args, **kwargs):
        from repro.errors import ModelError

        raise ModelError("neighborhood space over budget (forced)")

    monkeypatch.setattr(builder_module, "tables_for", refuse)
    with pytest.raises(MarkovError):
        build_chain(
            ring5_system,
            CentralRandomizedDistribution(),
            engine="compiled",
        )
    # auto silently falls back to the scalar oracle.
    chain = build_chain(ring5_system, CentralRandomizedDistribution())
    scalar = build_chain(
        ring5_system, CentralRandomizedDistribution(), engine="scalar"
    )
    assert chain.rows == scalar.rows


def test_budget_errors_match_scalar(ring6_system):
    with pytest.raises(MarkovError):
        build_chain(
            ring6_system,
            CentralRandomizedDistribution(),
            max_states=100,
        )
    with pytest.raises(MarkovError):
        build_chain(
            ring6_system,
            CentralRandomizedDistribution(),
            max_states=100,
            engine="compiled",
        )
    # Restricted-initial budget overflow raises from the interning path.
    with pytest.raises(MarkovError):
        build_chain(
            ring6_system,
            CentralRandomizedDistribution(),
            initial=list(ring6_system.all_configurations())[:200],
            max_states=150,
            engine="compiled",
        )


# ----------------------------------------------------------------------
# CSR-native MarkovChain surface
# ----------------------------------------------------------------------
def test_matrix_exports_cached(ring5_system):
    chain = build_chain(ring5_system, CentralRandomizedDistribution())
    assert chain.sparse_matrix() is chain.sparse_matrix()
    assert chain.dense_matrix() is chain.dense_matrix()
    np.testing.assert_allclose(
        chain.dense_matrix(), chain.sparse_matrix().toarray()
    )


def test_transition_arrays_consistent_with_rows(two_process_system):
    chain = build_chain(
        two_process_system, DistributedRandomizedDistribution()
    )
    data, indices, indptr = chain.transition_arrays()
    assert indptr[0] == 0 and indptr[-1] == len(data) == len(indices)
    for state_id, row in enumerate(chain.rows):
        start, stop = indptr[state_id], indptr[state_id + 1]
        assert indices[start:stop].tolist() == sorted(row)
        assert data[start:stop].tolist() == [
            row[t] for t in sorted(row)
        ]


def test_lazy_rows_view_matches_scalar(ring5_system):
    compiled = build_chain(
        ring5_system, CentralRandomizedDistribution(), engine="compiled"
    )
    scalar = build_chain(
        ring5_system, CentralRandomizedDistribution(), engine="scalar"
    )
    assert compiled.rows == scalar.rows
    for source in range(scalar.num_states):
        for target in scalar.rows[source]:
            assert compiled.probability(source, target) == pytest.approx(
                scalar.probability(source, target), abs=TOLERANCE
            )
        assert compiled.probability(source, (source + 1) % 32) == (
            scalar.probability(source, (source + 1) % 32)
        )


@pytest.mark.parametrize("engine", ["scalar", "compiled"])
def test_vectorized_mark_matches_predicate(engine, ring5_system):
    spec = TokenCirculationSpec()
    chain = build_chain(
        ring5_system, CentralRandomizedDistribution(), engine=engine
    )
    scalar_mark = chain.mark(spec.legitimate)
    # Token ring: a process holds a token iff it is enabled, so
    # "legitimate" is "exactly one enabled".
    vector_mark = chain.mark(EnabledCountLegitimacy(1))
    np.testing.assert_array_equal(scalar_mark, vector_mark)
    decoding_mark = chain.mark(
        DecodingLegitimacy(
            lambda cfg, s=ring5_system: spec.legitimate(s, cfg)
        )
    )
    np.testing.assert_array_equal(scalar_mark, decoding_mark)


def test_vectorized_mark_over_table_budget(monkeypatch, ring5_system):
    """Over-budget tables degrade mark() to a walk over the system."""
    import repro.core.encoding as encoding_module

    chain = build_chain(
        ring5_system, CentralRandomizedDistribution(), engine="scalar"
    )

    def refuse(*args, **kwargs):
        from repro.errors import ModelError

        raise ModelError("neighborhood space over budget (forced)")

    monkeypatch.setattr(encoding_module, "tables_for", refuse)
    spec = TokenCirculationSpec()
    np.testing.assert_array_equal(
        chain.mark(EnabledCountLegitimacy(1)), chain.mark(spec.legitimate)
    )


def test_vectorized_mark_restricted_chain(two_process_system):
    chain = build_chain(
        two_process_system,
        CentralRandomizedDistribution(),
        initial=[((False,), (False,))],
        engine="compiled",
    )
    spec = BothTrueSpec()
    np.testing.assert_array_equal(
        chain.mark(spec.legitimate),
        chain.mark(
            DecodingLegitimacy(
                lambda cfg, s=two_process_system: spec.legitimate(s, cfg)
            )
        ),
    )


def test_scalar_engine_bitexact_oracle(ring5_system):
    """engine="scalar" is the pre-PR4 dict walk — and the compiled path
    agrees bit-for-bit on the paper's deterministic workloads."""
    scalar = build_chain(
        ring5_system, CentralRandomizedDistribution(), engine="scalar"
    )
    compiled = build_chain(
        ring5_system, CentralRandomizedDistribution(), engine="compiled"
    )
    assert scalar.rows == compiled.rows
