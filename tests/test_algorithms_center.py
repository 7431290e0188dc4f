"""Tests for BGKP center finding and the log N-bit center-leader election."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.center_finding import (
    CentersCorrectSpec,
    local_centers,
    make_center_finding_system,
)
from repro.algorithms.center_leader import (
    CenterLeaderSpec,
    center_leader_leaders,
    make_center_leader_system,
)
from repro.core.encoding import expansion_context, tables_for
from repro.errors import TopologyError
from repro.graphs.generators import (
    broom,
    path,
    random_tree,
    ring,
    spider,
    star,
)
from repro.graphs.properties import centers as true_centers
from repro.graphs.prufer import all_labeled_trees
from repro.random_source import RandomSource
from repro.schedulers.relations import CentralRelation, DistributedRelation
from repro.stabilization.classify import classify
from repro.stabilization.statespace import StateSpace
from repro.stabilization.witnesses import synchronous_lasso


#: Configuration ranks decoded per table scan block.
SCAN_BLOCK = 65_536


def _terminal_configurations(system, limit=None):
    """Terminal configurations in ``all_configurations()`` order, found
    with the compiled tables (entry-for-entry equal to ``System`` by
    ``test_encoding``) rather than by re-running every guard per
    configuration."""
    found = []
    total = system.num_configurations()
    context = expansion_context(tables_for(system))
    tables = context.tables
    for start in range(0, total, SCAN_BLOCK):
        ranks = np.arange(start, min(start + SCAN_BLOCK, total))
        enabled = tables.enabled(tables.pack(context.codes_of_ranks(ranks)))
        for rank in ranks[~enabled.any(axis=1)].tolist():
            found.append(context.configuration_of_rank(rank))
            if limit and len(found) >= limit:
                return found
    return found


class TestCenterFinding:
    def test_rejects_non_tree(self):
        with pytest.raises(TopologyError):
            make_center_finding_system(ring(4))

    @pytest.mark.parametrize(
        "graph",
        [path(2), path(3), path(4), path(5), star(3), spider(3, 2),
         broom(2, 2)],
        ids=["P2", "P3", "P4", "P5", "K13", "spider", "broom"],
    )
    def test_terminal_marks_true_centers(self, graph):
        """At every fixed point the local Center predicate marks exactly
        the brute-force centers."""
        system = make_center_finding_system(graph)
        terminals = _terminal_configurations(system)
        assert len(terminals) == 1  # the height fixed point is unique
        assert local_centers(system, terminals[0]) == true_centers(graph)

    def test_all_trees_n5_unique_fixed_point(self):
        for tree in all_labeled_trees(5):
            system = make_center_finding_system(tree)
            terminals = _terminal_configurations(system)
            assert len(terminals) == 1
            assert local_centers(system, terminals[0]) == true_centers(tree)

    @pytest.mark.parametrize(
        "graph", [path(3), path(4), star(3)], ids=["P3", "P4", "K13"]
    )
    def test_self_stabilizing_under_distributed(self, graph):
        verdict = classify(
            make_center_finding_system(graph),
            CentersCorrectSpec(graph),
            DistributedRelation(),
        )
        assert verdict.is_self_stabilizing

    def test_synchronous_converges_small(self):
        """BGKP height iteration also converges synchronously on the
        trees we test (no symmetric livelock: heights are not pointers)."""
        for graph in (path(4), star(3)):
            system = make_center_finding_system(graph)
            for configuration in system.all_configurations():
                _, lasso = synchronous_lasso(system, configuration)
                assert lasso is None

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.integers(0, 10**6))
    def test_random_trees_fixed_point_correct(self, n, seed):
        tree = random_tree(n, RandomSource(seed))
        system = make_center_finding_system(tree)
        # run the unique synchronous execution to its terminal config
        trace, lasso = synchronous_lasso(
            system, next(system.all_configurations())
        )
        assert lasso is None
        assert local_centers(system, trace.final) == true_centers(tree)

    def test_two_center_partner_detection(self):
        """With two centers the partner is the unique equal-height
        neighbor at the fixed point (used by the tie-break)."""
        graph = path(4)
        system = make_center_finding_system(graph)
        (terminal,) = _terminal_configurations(system)
        slot = system.layouts[0].slot("h")
        c0, c1 = true_centers(graph)
        assert terminal[c0][slot] == terminal[c1][slot]
        # no other neighbor of a center carries the same height
        for center in (c0, c1):
            partners = [
                q
                for q in system.topology.neighbors(center)
                if terminal[q][slot] == terminal[center][slot]
            ]
            assert partners == [c0 if center == c1 else c1]


class TestCenterLeader:
    def test_rejects_non_tree(self):
        with pytest.raises(TopologyError):
            make_center_leader_system(ring(3))

    def test_unique_center_leader_is_center(self):
        graph = path(5)
        system = make_center_leader_system(graph)
        spec = CenterLeaderSpec()
        legitimate = [
            c
            for c in system.all_configurations()
            if spec.legitimate(system, c)
        ]
        assert legitimate
        for configuration in legitimate:
            assert center_leader_leaders(system, configuration) == (
                true_centers(graph)
            )

    def test_two_center_tiebreak(self):
        graph = path(4)
        system = make_center_leader_system(graph)
        spec = CenterLeaderSpec()
        leaders_seen = set()
        for configuration in system.all_configurations():
            if spec.legitimate(system, configuration):
                (leader,) = center_leader_leaders(system, configuration)
                leaders_seen.add(leader)
        assert leaders_seen == set(true_centers(graph))

    def test_legitimate_iff_terminal_with_correct_centers(self):
        graph = path(3)
        system = make_center_leader_system(graph)
        spec = CenterLeaderSpec()
        for configuration in system.all_configurations():
            if spec.legitimate(system, configuration):
                assert system.is_terminal(configuration)

    @pytest.mark.parametrize("graph", [path(3), path(4)], ids=["P3", "P4"])
    def test_weak_not_self(self, graph):
        verdict = classify(
            make_center_leader_system(graph),
            CenterLeaderSpec(),
            CentralRelation(),
        )
        assert verdict.is_weak_stabilizing
        # On P3 the center is unique: no tie-break, certain convergence
        # may hold; on P4 two centers force the B-flip livelock.
        if len(true_centers(graph)) == 2:
            assert not verdict.is_self_stabilizing

    def test_mutually_exclusive_guards(self):
        system = make_center_leader_system(path(4))
        for configuration in system.all_configurations():
            for p in system.processes:
                assert len(system.enabled_actions(configuration, p)) <= 1
