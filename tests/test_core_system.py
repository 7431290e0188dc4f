"""Unit tests for repro.core.system step semantics."""

import pytest

from repro.algorithms.token_ring import make_token_ring_system
from repro.algorithms.two_process import make_two_process_system
from repro.core.actions import Action, Outcome, deterministic_action
from repro.core.algorithm import Algorithm
from repro.core.system import Branch, Move, System
from repro.core.topology import Topology
from repro.core.variables import VariableLayout, VarSpec
from repro.errors import MarkovError, ModelError, SchedulerError
from repro.graphs.generators import path
from repro.markov.montecarlo import MonteCarloRunner
from repro.random_source import RandomSource
from repro.schedulers.samplers import CentralRandomizedSampler


class _Flip(Algorithm):
    """Every process is always enabled and flips its bit."""

    name = "flip"

    def layout(self, topology, process):
        return VariableLayout((VarSpec("b", (0, 1)),))

    def actions(self):
        return (
            deterministic_action(
                "F",
                lambda view: True,
                lambda view: view.set("b", 1 - view.get("b")),
            ),
        )


class _Coin(Algorithm):
    """Probabilistic: set the bit by a fair coin when 0."""

    name = "coin"

    @property
    def is_probabilistic(self):
        return True

    def layout(self, topology, process):
        return VariableLayout((VarSpec("b", (0, 1)),))

    def actions(self):
        def outcomes(view):
            return (
                Outcome(0.5, lambda v: v.set("b", 0)),
                Outcome(0.5, lambda v: v.set("b", 1)),
            )

        return (Action("C", lambda view: view.get("b") == 0, outcomes),)


class TestEnabledness:
    def test_enabled_processes(self, two_process_system):
        assert two_process_system.enabled_processes(
            ((False,), (False,))
        ) == (0, 1)
        assert two_process_system.enabled_processes(
            ((True,), (False,))
        ) == (0,)

    def test_terminal(self, two_process_system):
        assert two_process_system.is_terminal(((True,), (True,)))
        assert not two_process_system.is_terminal(((False,), (False,)))

    def test_enabled_actions_names(self, two_process_system):
        actions = two_process_system.enabled_actions(
            ((False,), (False,)), 0
        )
        assert [a.name for a in actions] == ["A1"]


class TestStep:
    def test_simultaneous_step_reads_old_values(self):
        system = System(_Flip(), Topology(path(2)))
        config = ((0,), (1,))
        moves = {
            0: (system.actions[0], 0),
            1: (system.actions[0], 0),
        }
        assert system.step(config, moves) == ((1,), (0,))

    def test_empty_step_rejected(self, two_process_system):
        with pytest.raises(SchedulerError):
            two_process_system.step(((False,), (False,)), {})

    def test_disabled_action_rejected(self, two_process_system):
        config = ((True,), (True,))
        action = two_process_system.actions[0]
        with pytest.raises(SchedulerError):
            two_process_system.step(config, {0: (action, 0)})

    def test_bad_outcome_index(self, two_process_system):
        config = ((False,), (False,))
        action = two_process_system.actions[0]
        with pytest.raises(ModelError):
            two_process_system.step(config, {0: (action, 5)})


class TestSubsetBranches:
    def test_deterministic_single_branch(self, two_process_system):
        config = ((False,), (False,))
        branches = list(
            two_process_system.subset_branches(config, (0, 1))
        )
        assert len(branches) == 1
        assert branches[0].target == ((True,), (True,))
        assert branches[0].probability == 1.0

    def test_probabilistic_branch_product(self):
        system = System(_Coin(), Topology(path(2)))
        branches = list(system.subset_branches(((0,), (0,)), (0, 1)))
        assert len(branches) == 4
        assert all(abs(b.probability - 0.25) < 1e-12 for b in branches)
        targets = {b.target for b in branches}
        assert targets == {
            ((0,), (0,)),
            ((0,), (1,)),
            ((1,), (0,)),
            ((1,), (1,)),
        }

    def test_empty_subset_rejected(self, two_process_system):
        with pytest.raises(SchedulerError):
            list(
                two_process_system.subset_branches(
                    ((False,), (False,)), ()
                )
            )

    def test_disabled_process_rejected(self, two_process_system):
        with pytest.raises(SchedulerError):
            list(
                two_process_system.subset_branches(
                    ((True,), (False,)), (1,)
                )
            )

    def test_unknown_action_mode(self, two_process_system):
        with pytest.raises(ModelError):
            list(
                two_process_system.subset_branches(
                    ((False,), (False,)), (0,), action_mode="zzz"
                )
            )

    def test_moves_recorded(self, two_process_system):
        (branch,) = two_process_system.subset_branches(
            ((False,), (False,)), (0,)
        )
        assert branch.moves == (Move(0, "A1", 0),)

    def test_successors_support(self, two_process_system):
        successors = two_process_system.successors(
            ((False,), (False,)), [(0,), (1,), (0, 1)]
        )
        assert successors == {
            ((True,), (False,)),
            ((False,), (True,)),
            ((True,), (True,)),
        }


class TestSampling:
    def test_sample_step_deterministic_case(self, two_process_system):
        rng = RandomSource(1)
        target, moves = two_process_system.sample_step(
            ((False,), (False,)), (0, 1), rng
        )
        assert target == ((True,), (True,))
        assert {m.process for m in moves} == {0, 1}

    def test_sample_step_rejects_disabled(self, two_process_system):
        rng = RandomSource(1)
        with pytest.raises(SchedulerError):
            two_process_system.sample_step(((True,), (True,)), (0,), rng)

    def test_probabilistic_sampling_covers_outcomes(self):
        system = System(_Coin(), Topology(path(2)))
        rng = RandomSource(3)
        seen = set()
        for _ in range(60):
            target, _ = system.sample_step(((0,), (0,)), (0,), rng)
            seen.add(target)
        assert seen == {((0,), (0,)), ((1,), (0,))}


class TestConfigurationSpace:
    def test_counts(self, ring5_system):
        assert ring5_system.num_configurations() == 2**5
        assert len(list(ring5_system.all_configurations())) == 32

    def test_check_configuration(self, ring5_system):
        with pytest.raises(ModelError):
            ring5_system.check_configuration(((0,),))
        ring5_system.check_configuration(((0,),) * 5)

    def test_variable_names(self, ring5_system):
        assert ring5_system.variable_names() == ("dt",)


class TestValidation:
    def test_mismatched_layouts_rejected(self):
        class Lopsided(Algorithm):
            name = "lopsided"

            def layout(self, topology, process):
                name = "a" if process == 0 else "b"
                return VariableLayout((VarSpec(name, (0,)),))

            def actions(self):
                return (
                    deterministic_action(
                        "X", lambda v: False, lambda v: None
                    ),
                )

        with pytest.raises(ModelError):
            System(Lopsided(), Topology(path(2)))

    def test_no_actions_rejected(self):
        class NoActions(Algorithm):
            name = "empty"

            def layout(self, topology, process):
                return VariableLayout((VarSpec("a", (0,)),))

            def actions(self):
                return ()

        with pytest.raises(ModelError):
            System(NoActions(), Topology(path(2)))


def test_system_rejects_disabled_and_empty_subsets():
    system = make_token_ring_system(4)
    configuration = next(system.all_configurations())
    disabled = [
        p
        for p in system.processes
        if not system.is_enabled(configuration, p)
    ]
    rng = RandomSource(0)
    with pytest.raises(SchedulerError):
        system.sample_step(configuration, [], rng)
    if disabled:
        with pytest.raises(SchedulerError):
            system.sample_step(configuration, [disabled[0]], rng)
    with pytest.raises(MarkovError):
        MonteCarloRunner(system).estimate(
            CentralRandomizedSampler(),
            system.is_terminal,
            trials=1,
            max_steps=10,
            rng=rng,
            initial_configurations=[],
        )
