"""Unit + property tests for the Markov analysis stack."""

import math

import numpy as np
import pytest

from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.algorithms.two_process import BothTrueSpec, make_two_process_system
from repro.errors import MarkovError
from repro.markov.builder import build_chain
from repro.markov.chain import MarkovChain
from repro.markov.hitting import (
    absorption_probabilities,
    dense_structure,
    expected_hitting_times,
    hitting_summary,
)
from repro.markov.lumping import lumped_synchronous_transformed_chain
from repro.markov.montecarlo import (
    estimate_stabilization_time,
    random_configuration,
)
from repro.random_source import RandomSource
from repro.schedulers.distributions import (
    BernoulliDistribution,
    CentralRandomizedDistribution,
    DistributedRandomizedDistribution,
    SynchronousDistribution,
)
from repro.schedulers.samplers import (
    CentralRandomizedSampler,
    SynchronousSampler,
)
from repro.transformer.coin_toss import TransformedSpec, make_transformed_system


class TestBuilder:
    def test_rows_sum_to_one(self, ring5_system):
        chain = build_chain(ring5_system, CentralRandomizedDistribution())
        for row in chain.rows:
            assert math.isclose(sum(row.values()), 1.0, abs_tol=1e-9)

    def test_terminal_self_loop(self, two_process_system):
        chain = build_chain(two_process_system, CentralRandomizedDistribution())
        terminal_id = chain.id_of(((True,), (True,)))
        assert chain.rows[terminal_id] == {terminal_id: 1.0}

    def test_full_space_states(self, ring5_system):
        chain = build_chain(ring5_system, CentralRandomizedDistribution())
        assert chain.num_states == 32

    def test_restricted_initial(self, two_process_system):
        chain = build_chain(
            two_process_system,
            CentralRandomizedDistribution(),
            initial=[((False,), (False,))],
        )
        assert chain.num_states == 3  # (T,T) unreachable centrally

    def test_budget(self, ring6_system):
        with pytest.raises(MarkovError):
            build_chain(
                ring6_system,
                CentralRandomizedDistribution(),
                max_states=100,
            )

    def test_bernoulli_lazy_self_loops(self, two_process_system):
        chain = build_chain(
            two_process_system, BernoulliDistribution(0.5, True)
        )
        start = chain.id_of(((False,), (False,)))
        # empty draw probability 1/4 contributes a self-loop
        assert chain.probability(start, start) >= 0.25

    def test_probabilities_match_hand_computation(self, two_process_system):
        chain = build_chain(
            two_process_system, DistributedRandomizedDistribution()
        )
        start = chain.id_of(((False,), (False,)))
        # three equally likely subsets: {0}, {1}, {0,1}
        assert math.isclose(
            chain.probability(start, chain.id_of(((True,), (True,)))),
            1 / 3,
        )
        assert math.isclose(
            chain.probability(start, chain.id_of(((True,), (False,)))),
            1 / 3,
        )


class TestChain:
    def test_row_validation(self, two_process_system):
        with pytest.raises(MarkovError):
            MarkovChain(
                two_process_system,
                [((False,), (False,))],
                [{0: 0.5}],
                "bad",
            )

    def test_negative_probability_rejected(self, two_process_system):
        with pytest.raises(MarkovError):
            MarkovChain(
                two_process_system,
                [((False,), (False,)), ((True,), (True,))],
                [{0: 1.5, 1: -0.5}, {1: 1.0}],
                "bad",
            )

    def test_states_rows_length_mismatch(self, two_process_system):
        with pytest.raises(MarkovError):
            MarkovChain(two_process_system, [], [{0: 1.0}], "bad")

    def test_dense_equals_sparse(self, two_process_system):
        chain = build_chain(
            two_process_system, DistributedRandomizedDistribution()
        )
        dense = chain.dense_matrix()
        sparse = chain.sparse_matrix().toarray()
        assert np.allclose(dense, sparse)

    def test_mark(self, two_process_system):
        chain = build_chain(
            two_process_system, DistributedRandomizedDistribution()
        )
        marked = chain.mark(BothTrueSpec().legitimate)
        assert marked.sum() == 1

    def test_step_distribution(self, two_process_system):
        chain = build_chain(
            two_process_system, DistributedRandomizedDistribution()
        )
        uniform = np.full(chain.num_states, 0.25)
        pushed = chain.step_distribution(uniform)
        assert math.isclose(pushed.sum(), 1.0)

    def test_step_distribution_shape_check(self, two_process_system):
        chain = build_chain(
            two_process_system, DistributedRandomizedDistribution()
        )
        with pytest.raises(MarkovError):
            chain.step_distribution([1.0])

    def test_id_of_unknown(self, two_process_system):
        chain = build_chain(
            two_process_system, DistributedRandomizedDistribution()
        )
        with pytest.raises(MarkovError):
            chain.id_of(((True,),))


class TestHitting:
    def test_absorption_all_ones_for_weak_stab(self, ring5_system):
        chain = build_chain(ring5_system, CentralRandomizedDistribution())
        target = chain.mark(TokenCirculationSpec().legitimate)
        absorption = absorption_probabilities(chain, target)
        assert np.all(absorption > 1 - 1e-9)

    def test_absorption_zero_when_unreachable(self, two_process_system):
        chain = build_chain(
            two_process_system, CentralRandomizedDistribution()
        )
        target = chain.mark(BothTrueSpec().legitimate)
        absorption = absorption_probabilities(chain, target)
        assert absorption[chain.id_of(((False,), (False,)))] == 0.0
        assert absorption[chain.id_of(((True,), (True,)))] == 1.0

    def test_expected_times_finite_and_positive(self, ring5_system):
        chain = build_chain(ring5_system, CentralRandomizedDistribution())
        target = chain.mark(TokenCirculationSpec().legitimate)
        times = expected_hitting_times(chain, target)
        assert np.all(np.isfinite(times))
        assert np.all(times[~target] > 0)
        assert np.all(times[target] == 0)

    def test_expected_times_infinite_when_not_absorbing(
        self, two_process_system
    ):
        chain = build_chain(
            two_process_system, CentralRandomizedDistribution()
        )
        target = chain.mark(BothTrueSpec().legitimate)
        times = expected_hitting_times(chain, target)
        assert math.isinf(times[chain.id_of(((False,), (False,)))])

    def test_empty_target_rejected(self, two_process_system):
        chain = build_chain(
            two_process_system, CentralRandomizedDistribution()
        )
        with pytest.raises(MarkovError):
            absorption_probabilities(
                chain, np.zeros(chain.num_states, dtype=bool)
            )

    def test_shape_mismatch_rejected(self, two_process_system):
        chain = build_chain(
            two_process_system, CentralRandomizedDistribution()
        )
        with pytest.raises(MarkovError):
            absorption_probabilities(chain, np.array([True]))

    def test_summary_converging(self, ring5_system):
        chain = build_chain(ring5_system, CentralRandomizedDistribution())
        summary = hitting_summary(
            chain, chain.mark(TokenCirculationSpec().legitimate)
        )
        assert summary.converges_with_probability_one
        assert summary.worst_expected_steps >= summary.mean_expected_steps
        assert summary.row()["prob1"] is True

    def test_summary_non_converging(self, two_process_system):
        chain = build_chain(
            two_process_system, CentralRandomizedDistribution()
        )
        summary = hitting_summary(
            chain, chain.mark(BothTrueSpec().legitimate)
        )
        assert not summary.converges_with_probability_one
        assert math.isinf(summary.worst_expected_steps)

    def test_gamblers_ruin_sanity(self):
        """Hand-checkable chain: E[steps] for symmetric walk on 0..2
        absorbing at 2 from 0 is 4, from 1 is 3... (standard values)."""
        system = make_two_process_system()  # only carries the type; states
        states = [((False,), (False,)), ((True,), (False,)),
                  ((True,), (True,))]
        rows = [
            {0: 0.5, 1: 0.5},
            {0: 0.5, 2: 0.5},
            {2: 1.0},
        ]
        chain = MarkovChain(system, states, rows, "hand")
        target = np.array([False, False, True])
        times = expected_hitting_times(chain, target)
        assert math.isclose(times[0], 6.0)
        assert math.isclose(times[1], 4.0)

    def test_solver_policy_follows_structure(self):
        assert dense_structure(128, 0)
        assert not dense_structure(1000, 10_000)
        assert dense_structure(1000, 60_000)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_both_factorizations_agree(
        self, ring5_system, monkeypatch, dense
    ):
        from repro.markov import hitting

        chain = build_chain(ring5_system, CentralRandomizedDistribution())
        target = chain.mark(TokenCirculationSpec().legitimate)
        reference = expected_hitting_times(chain, target)
        monkeypatch.setattr(hitting, "dense_structure", lambda m, nnz: dense)
        chain._transient_lu = None
        times = expected_hitting_times(chain, target)
        assert chain._transient_lu[1].dense is dense
        np.testing.assert_allclose(times, reference, rtol=1e-12)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_bad_factor_raises_residual_error(
        self, ring5_system, monkeypatch, dense
    ):
        """A factorization of the wrong matrix must not return silently."""
        from repro.markov import hitting

        real_lu_factor, real_splu = hitting.lu_factor, hitting.splu
        monkeypatch.setattr(hitting, "dense_structure", lambda m, nnz: dense)
        monkeypatch.setattr(
            hitting, "lu_factor", lambda a: real_lu_factor(2.0 * a)
        )
        monkeypatch.setattr(
            hitting, "splu", lambda a, **kw: real_splu((2.0 * a).tocsc(), **kw)
        )
        chain = build_chain(ring5_system, CentralRandomizedDistribution())
        target = chain.mark(TokenCirculationSpec().legitimate)
        with pytest.raises(MarkovError, match="residual"):
            absorption_probabilities(chain, target)


class TestLumping:
    @pytest.mark.parametrize("maker,spec", [
        (make_two_process_system, BothTrueSpec()),
        (lambda: make_token_ring_system(4), TokenCirculationSpec()),
    ])
    def test_lumped_matches_full_chain(self, maker, spec):
        base = maker()
        transformed = make_transformed_system(base)
        tspec = TransformedSpec(spec, base)
        full = build_chain(transformed, SynchronousDistribution())
        full_summary = hitting_summary(full, full.mark(tspec.legitimate))
        lumped = lumped_synchronous_transformed_chain(base)
        lumped_summary = hitting_summary(
            lumped, lumped.mark(spec.legitimate)
        )
        assert math.isclose(
            full_summary.worst_expected_steps,
            lumped_summary.worst_expected_steps,
            rel_tol=1e-9,
        )
        assert math.isclose(
            full_summary.mean_expected_steps,
            lumped_summary.mean_expected_steps,
            rel_tol=1e-9,
        )


class TestMonteCarlo:
    def test_estimates_match_exact(self, two_process_system):
        """MC mean under the central randomized sampler vs exact chain."""
        chain = build_chain(
            two_process_system, DistributedRandomizedDistribution()
        )
        target = chain.mark(BothTrueSpec().legitimate)
        exact_mean_over_all = float(
            expected_hitting_times(chain, target).mean()
        )
        from repro.schedulers.samplers import DistributedRandomizedSampler

        result = estimate_stabilization_time(
            two_process_system,
            DistributedRandomizedSampler(),
            lambda c: BothTrueSpec().legitimate(two_process_system, c),
            trials=3000,
            max_steps=10_000,
            rng=RandomSource(5),
        )
        assert result.censored == 0
        assert abs(result.stats.mean - exact_mean_over_all) < 0.4

    def test_random_configuration_valid(self, ring6_system, rng):
        for _ in range(20):
            ring6_system.check_configuration(
                random_configuration(ring6_system, rng)
            )

    def test_censoring_counted(self, two_process_system):
        result = estimate_stabilization_time(
            two_process_system,
            CentralRandomizedSampler(),
            lambda c: BothTrueSpec().legitimate(two_process_system, c),
            trials=20,
            max_steps=50,
            rng=RandomSource(1),
            initial_configurations=[((False,), (False,))],
        )
        # central scheduler can never converge from (F,F)
        assert result.converged == 0
        assert result.censored == 20
        assert result.stats is None
        assert result.convergence_rate == 0.0

    def test_trial_validation(self, two_process_system):
        with pytest.raises(MarkovError):
            estimate_stabilization_time(
                two_process_system,
                CentralRandomizedSampler(),
                lambda c: True,
                trials=0,
                max_steps=1,
                rng=RandomSource(0),
            )

    def test_row_includes_stats(self, two_process_system):
        result = estimate_stabilization_time(
            two_process_system,
            SynchronousSampler(),
            lambda c: BothTrueSpec().legitimate(two_process_system, c),
            trials=10,
            max_steps=100,
            rng=RandomSource(2),
        )
        row = result.row()
        assert row["trials"] == 10
        assert "mean" in row
