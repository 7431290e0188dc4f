"""Unit tests for state-space exploration."""

import pytest

from repro.algorithms.token_ring import TokenCirculationSpec
from repro.algorithms.two_process import make_two_process_system
from repro.errors import StateSpaceError
from repro.schedulers.relations import (
    CentralRelation,
    DistributedRelation,
    SynchronousRelation,
)
from repro.stabilization.statespace import (
    StateSpace,
    mask_to_subset,
    subset_to_mask,
)


class TestMasks:
    def test_roundtrip(self):
        for subset in [(0,), (1, 3), (0, 2, 5), ()]:
            assert mask_to_subset(subset_to_mask(subset)) == tuple(
                sorted(subset)
            )

    def test_mask_values(self):
        assert subset_to_mask((0, 2)) == 0b101
        assert mask_to_subset(0b110) == (1, 2)


class TestExploreFullSpace:
    def test_two_process_full(self, two_process_system):
        space = StateSpace.explore(two_process_system, DistributedRelation())
        assert space.num_configurations == 4
        assert space.index[((True,), (True,))] is not None

    def test_terminal_detection(self, two_process_system):
        space = StateSpace.explore(two_process_system, DistributedRelation())
        terminal = space.terminal_ids()
        assert [space.configurations[t] for t in terminal] == [
            ((True,), (True,))
        ]

    def test_edges_respect_relation(self, two_process_system):
        central = StateSpace.explore(two_process_system, CentralRelation())
        config_id = central.id_of(((False,), (False,)))
        # central: only singleton moves from (F,F) -> (T,F) or (F,T)
        targets = {
            central.configurations[t] for t in central.successors(config_id)
        }
        assert targets == {((True,), (False,)), ((False,), (True,))}

    def test_synchronous_single_successor(self, two_process_system):
        sync = StateSpace.explore(two_process_system, SynchronousRelation())
        config_id = sync.id_of(((False,), (False,)))
        targets = set(sync.successors(config_id))
        assert targets == {sync.id_of(((True,), (True,)))}

    def test_budget_guard(self, ring6_system):
        with pytest.raises(StateSpaceError):
            StateSpace.explore(
                ring6_system, CentralRelation(), max_configurations=10
            )

    def test_id_of_unknown(self, two_process_system):
        space = StateSpace.explore(two_process_system, CentralRelation())
        with pytest.raises(StateSpaceError):
            space.id_of(((True,), (True,), (True,)))


class TestExploreReachable:
    def test_restricted_initial_set(self, two_process_system):
        space = StateSpace.explore(
            two_process_system,
            CentralRelation(),
            initial=[((True,), (True,))],
        )
        assert space.num_configurations == 1
        assert space.num_edges == 0

    def test_reachable_closure(self, two_process_system):
        space = StateSpace.explore(
            two_process_system,
            CentralRelation(),
            initial=[((False,), (False,))],
        )
        # (F,F) -> (T,F)/(F,T) -> back to (F,F); (T,T) is unreachable
        # under a central scheduler.
        assert space.num_configurations == 3


class TestQueries:
    @pytest.fixture
    def space(self, ring5_system):
        return StateSpace.explore(ring5_system, CentralRelation())

    def test_legitimate_mask(self, space, ring5_system):
        mask = space.legitimate_mask(TokenCirculationSpec().legitimate)
        assert sum(mask) == 10  # |L| = N * m_N = 5 * 2

    def test_repr(self, space):
        assert "StateSpace" in repr(space)
