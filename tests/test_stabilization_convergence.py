"""Unit tests for closure and convergence analysis."""

import numpy as np
import pytest

from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
    single_token_configuration,
)
from repro.algorithms.two_process import BothTrueSpec
from repro.schedulers.relations import CentralRelation, DistributedRelation
from repro.stabilization.closure import check_strong_closure
from repro.markov.hitting import backward_closure
from repro.stabilization.convergence import (
    certain_convergence,
    possible_convergence,
    shortest_distances_to_legitimate,
    strongly_connected_components,
    transient_cycles_exist,
)
from repro.stabilization.statespace import StateSpace


class TestSCC:
    def test_single_cycle(self):
        adjacency = [[1], [2], [0]]
        components = strongly_connected_components(adjacency)
        assert sorted(map(sorted, components)) == [[0, 1, 2]]

    def test_dag(self):
        adjacency = [[1], [2], []]
        components = strongly_connected_components(adjacency)
        assert all(len(c) == 1 for c in components)
        # reverse topological: sinks first
        assert components[0] == [2]

    def test_two_components(self):
        adjacency = [[1], [0], [3], [2]]
        components = strongly_connected_components(adjacency)
        assert sorted(map(sorted, components)) == [[0, 1], [2, 3]]

    def test_self_loop_is_singleton_component(self):
        adjacency = [[0], []]
        components = strongly_connected_components(adjacency)
        assert sorted(map(sorted, components)) == [[0], [1]]

    def test_big_line(self):
        n = 5000
        adjacency = [[i + 1] for i in range(n - 1)] + [[]]
        components = strongly_connected_components(adjacency)
        assert len(components) == n  # iterative: no recursion overflow


class TestClosure:
    def test_token_ring_single_token_closed(self, ring5_system):
        space = StateSpace.explore(ring5_system, DistributedRelation())
        legitimate = space.legitimate_mask(
            TokenCirculationSpec().legitimate
        )
        assert check_strong_closure(space, legitimate) == []

    def test_two_token_set_not_closed(self, ring5_system):
        """'At most 2 tokens' is not closed downward... but '≥2 tokens'
        escapes into L when tokens merge — a closure violation."""
        space = StateSpace.explore(ring5_system, DistributedRelation())
        from repro.algorithms.token_ring import count_tokens

        at_least_two = space.legitimate_mask(
            lambda system, config: count_tokens(system, config) >= 2
        )
        violations = check_strong_closure(space, at_least_two)
        assert violations
        first = violations[0]
        assert at_least_two[first.source_id]
        assert not at_least_two[first.target_id]


class TestPossibleConvergence:
    def test_token_ring_possible(self, ring5_system):
        space = StateSpace.explore(ring5_system, DistributedRelation())
        legitimate = space.legitimate_mask(
            TokenCirculationSpec().legitimate
        )
        possible, stranded = possible_convergence(space, legitimate)
        assert possible and not stranded

    def test_two_process_central_stranded(self, two_process_system):
        space = StateSpace.explore(two_process_system, CentralRelation())
        legitimate = space.legitimate_mask(BothTrueSpec().legitimate)
        possible, stranded = possible_convergence(space, legitimate)
        assert not possible
        # every transient configuration is stranded: (T,T) unreachable
        assert len(stranded) == 3

    def test_empty_target(self, two_process_system):
        space = StateSpace.explore(two_process_system, CentralRelation())
        possible, stranded = possible_convergence(space, [False] * 4)
        assert not possible
        assert len(stranded) == 4

    def test_backward_reachable(self, two_process_system):
        space = StateSpace.explore(two_process_system, CentralRelation())
        target = [
            config == ((False,), (False,))
            for config in space.configurations
        ]
        reached = backward_closure(
            space.targets, space.indptr, np.array(target)
        ) >= 0
        # (T,T) is terminal and never reaches (F,F)
        assert not reached[space.id_of(((True,), (True,)))]
        assert reached[space.id_of(((True,), (False,)))]


class TestCertainConvergence:
    def test_token_ring_not_certain(self, ring5_system):
        space = StateSpace.explore(ring5_system, DistributedRelation())
        legitimate = space.legitimate_mask(
            TokenCirculationSpec().legitimate
        )
        report = certain_convergence(space, legitimate)
        assert not report.holds
        assert report.has_transient_cycle
        assert not report.terminal_outside

    def test_two_process_distributed_not_certain(self, two_process_system):
        space = StateSpace.explore(two_process_system, DistributedRelation())
        legitimate = space.legitimate_mask(BothTrueSpec().legitimate)
        report = certain_convergence(space, legitimate)
        assert not report.holds
        assert report.has_transient_cycle

    def test_certain_when_l_is_everything(self, two_process_system):
        space = StateSpace.explore(two_process_system, DistributedRelation())
        report = certain_convergence(space, [True] * 4)
        assert report.holds

    def test_terminal_outside_detected(self, two_process_system):
        space = StateSpace.explore(two_process_system, DistributedRelation())
        # declare only (F,F) legitimate: the terminal (T,T) is outside
        legitimate = [
            config == ((False,), (False,))
            for config in space.configurations
        ]
        report = certain_convergence(space, legitimate)
        assert space.id_of(((True,), (True,))) in report.terminal_outside

    def test_transient_cycles_flag(self, two_process_system):
        space = StateSpace.explore(two_process_system, DistributedRelation())
        legitimate = space.legitimate_mask(BothTrueSpec().legitimate)
        assert transient_cycles_exist(space, legitimate)
        assert not transient_cycles_exist(space, [True] * 4)

    def test_transient_self_loop_is_a_cycle(self, two_process_system):
        # 0 ⟲ and 0 → 1: with L = {1} the self-loop alone is the cycle.
        space = StateSpace(
            two_process_system,
            DistributedRelation(),
            [((False,), (False,)), ((True,), (True,))],
            {},
            indptr=np.array([0, 2, 2]),
            targets=np.array([0, 1]),
            masks=np.array([1, 3]),
            enabled_bits=np.array([3, 0]),
        )
        assert transient_cycles_exist(space, [False, True])
        assert not transient_cycles_exist(space, [True, True])


class TestDistances:
    def test_distance_zero_on_legitimate(self, ring5_system):
        space = StateSpace.explore(ring5_system, DistributedRelation())
        legitimate = space.legitimate_mask(
            TokenCirculationSpec().legitimate
        )
        distances = shortest_distances_to_legitimate(space, legitimate)
        legit_id = space.id_of(single_token_configuration(ring5_system))
        assert distances[legit_id] == 0

    def test_distances_positive_and_finite(self, ring5_system):
        space = StateSpace.explore(ring5_system, DistributedRelation())
        legitimate = space.legitimate_mask(
            TokenCirculationSpec().legitimate
        )
        distances = shortest_distances_to_legitimate(space, legitimate)
        assert all(d >= 0 for d in distances)  # -1 never appears: weak-stab

    def test_stranded_marked_minus_one(self, two_process_system):
        space = StateSpace.explore(two_process_system, CentralRelation())
        legitimate = space.legitimate_mask(BothTrueSpec().legitimate)
        distances = shortest_distances_to_legitimate(space, legitimate)
        assert distances[space.id_of(((False,), (False,)))] == -1
