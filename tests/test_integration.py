"""End-to-end integration tests crossing all subsystem boundaries."""

import math

import numpy as np
import pytest

from repro import (
    RandomSource,
    build_chain,
    classify,
    hitting_summary,
    make_leader_tree_system,
    make_token_ring_system,
    make_transformed_system,
    make_two_process_system,
    run_until,
)
from repro.algorithms.leader_tree import TreeLeaderSpec, satisfies_lc
from repro.algorithms.token_ring import TokenCirculationSpec
from repro.algorithms.two_process import BothTrueSpec
from repro.graphs.generators import random_tree
from repro.markov.hitting import expected_hitting_times
from repro.markov.montecarlo import MonteCarloRunner
from repro.schedulers.distributions import CentralRandomizedDistribution
from repro.schedulers.relations import CentralRelation, DistributedRelation
from repro.schedulers.samplers import (
    CentralRandomizedSampler,
    DistributedRandomizedSampler,
    SynchronousSampler,
)
from repro.stabilization.convergence import (
    possible_convergence,
    shortest_distances_to_legitimate,
)
from repro.stabilization.statespace import StateSpace
from repro.transformer.coin_toss import TransformedSpec


class TestExactVsMonteCarlo:
    """The two measurement paths must agree — the strongest end-to-end
    consistency check in the suite."""

    def test_token_ring_central_randomized(self):
        system = make_token_ring_system(4)
        spec = TokenCirculationSpec()
        chain = build_chain(system, CentralRandomizedDistribution())
        exact = expected_hitting_times(
            chain, chain.mark(spec.legitimate)
        )
        exact_mean = float(exact.mean())  # uniform over all 81 configs
        result = MonteCarloRunner(system).estimate(
            CentralRandomizedSampler(),
            lambda c: spec.legitimate(system, c),
            trials=4000,
            max_steps=100_000,
            rng=RandomSource(17),
        )
        assert result.censored == 0
        assert abs(result.stats.mean - exact_mean) < 0.35

    def test_transformed_two_process_synchronous(self):
        base = make_two_process_system()
        transformed = make_transformed_system(base)
        tspec = TransformedSpec(BothTrueSpec(), base)
        chain = build_chain(
            transformed,
            __import__(
                "repro.schedulers.distributions", fromlist=["x"]
            ).SynchronousDistribution(),
        )
        exact = expected_hitting_times(
            chain, chain.mark(tspec.legitimate)
        )
        exact_mean = float(exact.mean())
        result = MonteCarloRunner(transformed).estimate(
            SynchronousSampler(),
            lambda c: tspec.legitimate(transformed, c),
            trials=4000,
            max_steps=100_000,
            rng=RandomSource(23),
        )
        assert result.censored == 0
        assert abs(result.stats.mean - exact_mean) < 0.6


class TestSimulationRespectsTheory:
    def test_weak_stabilizing_converges_under_randomized_scheduler(self):
        """Theorem 7 empirically: every random run of Algorithm 2 under
        the distributed randomized sampler converges."""
        rng = RandomSource(5)
        for seed in range(5):
            tree = random_tree(6, rng.spawn(seed))
            system = make_leader_tree_system(tree)
            spec = TreeLeaderSpec()
            from repro.markov.montecarlo import random_configuration

            initial = random_configuration(system, rng)
            result = run_until(
                system,
                DistributedRandomizedSampler(),
                initial,
                stop=lambda c: spec.legitimate(system, c),
                max_steps=50_000,
                rng=rng.spawn(100 + seed),
            )
            assert result.converged
            assert satisfies_lc(system, result.trace.final)

    def test_converged_leader_is_stable(self):
        """Once LC holds the configuration is terminal: running further
        changes nothing (strong closure, Lemma 10)."""
        system = make_leader_tree_system(random_tree(5, RandomSource(2)))
        spec = TreeLeaderSpec()
        rng = RandomSource(3)
        from repro.markov.montecarlo import random_configuration

        result = run_until(
            system,
            CentralRandomizedSampler(),
            random_configuration(system, rng),
            stop=lambda c: spec.legitimate(system, c),
            max_steps=50_000,
            rng=rng,
        )
        assert result.converged
        assert system.is_terminal(result.trace.final)


class TestCrossCheckerConsistency:
    def test_distance_field_vs_classification(self):
        """possible convergence ⟺ no -1 in the BFS distance field."""
        system = make_token_ring_system(5)
        spec = TokenCirculationSpec()
        space = StateSpace.explore(system, DistributedRelation())
        legitimate = space.legitimate_mask(spec.legitimate)
        possible, stranded = possible_convergence(space, legitimate)
        distances = shortest_distances_to_legitimate(space, legitimate)
        assert possible == all(d >= 0 for d in distances)
        assert not stranded

    def test_verdicts_match_chain_absorption(self):
        """classify() possible-convergence vs Markov absorption — the
        Theorem 7 equivalence as a library-level invariant."""
        from repro.markov.hitting import absorption_probabilities

        for maker, spec in (
            (make_two_process_system, BothTrueSpec()),
            (lambda: make_token_ring_system(4), TokenCirculationSpec()),
        ):
            system = maker()
            verdict = classify(system, spec, CentralRelation())
            chain = build_chain(system, CentralRandomizedDistribution())
            absorption = absorption_probabilities(
                chain, chain.mark(spec.legitimate)
            )
            assert verdict.possible_convergence == bool(
                np.all(absorption > 1 - 1e-9)
            )

    def test_public_api_quickstart(self):
        """The README quickstart must keep working."""
        system = make_token_ring_system(6)
        verdict = classify(
            system, TokenCirculationSpec(), DistributedRelation()
        )
        assert verdict.is_weak_stabilizing
        assert not verdict.is_self_stabilizing
        summary = hitting_summary(
            build_chain(system, CentralRandomizedDistribution()),
            build_chain(
                system, CentralRandomizedDistribution()
            ).mark(TokenCirculationSpec().legitimate),
        )
        assert summary.converges_with_probability_one
