"""Property tests for the certified optimal-bias synthesis.

The optimizer's contract (see :mod:`repro.analysis.bias`) is not "finds
the optimum" — it is *certification*: every global argmin lies inside
the surviving boxes.  These tests pin the three checkable halves of
that contract on Herman ring-7 variants:

* the certified interval contains the dense-grid argmin;
* region lower bounds sandwich every exactly-solved sample from below
  (and :func:`certified_lower_bound` never exceeds an exact solve
  inside its box);
* refinement monotonically shrinks the maximum surviving width.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.herman_ring import HermanSingleTokenSpec
from repro.algorithms.herman_variants import (
    make_herman_random_bit_system,
    make_herman_random_pass_system,
    make_herman_speed_reducer_system,
)
from repro.analysis import bias
from repro.analysis.bias import certified_lower_bound, synthesize_optimal_bias
from repro.core.parametric import CoinParameter
from repro.errors import ModelError
from repro.markov.parametric import ParametricChain
from repro.schedulers.distributions import SynchronousDistribution


@pytest.fixture(scope="module")
def ring7_chain():
    pchain = ParametricChain(
        make_herman_random_pass_system(7), SynchronousDistribution()
    )
    target = pchain.mark(HermanSingleTokenSpec().legitimate)
    return pchain, target


@pytest.fixture(scope="module")
def ring7_synthesis(ring7_chain):
    pchain, target = ring7_chain
    return synthesize_optimal_bias(pchain, target, tolerance=0.02)


class TestCertification:
    def test_interval_contains_dense_grid_argmin(self, ring7_chain, ring7_synthesis):
        pchain, target = ring7_chain
        grid = [{"p": value} for value in np.linspace(0.05, 0.95, 91)]
        values = pchain.hitting_sweep(grid, target, objective="mean")
        argmin = grid[int(np.argmin(values))]
        low, high = ring7_synthesis.interval("p")
        assert low <= argmin["p"] <= high
        assert ring7_synthesis.contains(argmin)
        # The incumbent is an upper bound on the dense-grid minimum only
        # up to grid resolution; it must at least not beat the grid by
        # more than continuity allows at this tolerance.
        assert ring7_synthesis.best_value <= min(values) + 1e-9

    def test_region_bounds_sandwich_sampled_values(self, ring7_synthesis):
        for region in ring7_synthesis.regions:
            assert region.lower_bound <= region.sample_value + 1e-9

    def test_lower_bound_below_exact_solves_inside_box(self, ring7_chain):
        pchain, target = ring7_chain
        lows, highs = {"p": 0.3}, {"p": 0.7}
        bound = certified_lower_bound(pchain, target, lows, highs)
        grid = [{"p": value} for value in np.linspace(0.3, 0.7, 9)]
        values = pchain.hitting_sweep(grid, target, objective="mean")
        assert bound <= min(values) + 1e-9
        assert bound > 0.0

    def test_width_history_monotonically_shrinks(self, ring7_synthesis):
        history = ring7_synthesis.width_history
        assert len(history) >= 3
        assert all(
            later <= earlier
            for earlier, later in zip(history, history[1:])
        )
        assert history[-1] <= 0.02 + 1e-12

    def test_symmetric_dynamics_keep_fair_coin_certified(
        self, ring7_synthesis
    ):
        # Random-pass is p ↔ 1−p symmetric: the fair coin is optimal and
        # must survive every pruning round.
        assert ring7_synthesis.contains({"p": 0.5})
        assert ring7_synthesis.best_assignment["p"] == pytest.approx(
            0.5, abs=0.02
        )


class TestRefinementMechanics:
    def test_random_bit_agrees_with_random_pass_at_fair_coin(self):
        # Both variants collapse to classic Herman at p = 1/2.
        spec = HermanSingleTokenSpec()
        results = []
        for build in (
            make_herman_random_bit_system,
            make_herman_random_pass_system,
        ):
            pchain = ParametricChain(build(7), SynchronousDistribution())
            target = pchain.mark(spec.legitimate)
            results.append(
                pchain.hitting_sweep([{"p": 0.5}], target, "mean")[0]
            )
        assert results[0] == pytest.approx(results[1], rel=1e-12)

    def test_bounds_override_narrows_the_search_box(self, ring7_chain):
        pchain, target = ring7_chain
        result = synthesize_optimal_bias(
            pchain,
            target,
            tolerance=0.05,
            bounds={"p": (0.4, 0.6)},
        )
        low, high = result.interval("p")
        assert 0.4 <= low <= high <= 0.6

    def test_invalid_bounds_rejected(self, ring7_chain):
        pchain, target = ring7_chain
        with pytest.raises(ModelError):
            synthesize_optimal_bias(
                pchain, target, bounds={"p": (0.0, 0.5)}
            )

    def test_non_parametric_chain_rejected(self):
        from repro.algorithms.herman_ring import make_herman_system

        pchain = ParametricChain(
            make_herman_system(5), SynchronousDistribution()
        )
        target = pchain.mark(HermanSingleTokenSpec().legitimate)
        with pytest.raises(ModelError):
            synthesize_optimal_bias(pchain, target)

    def test_two_coin_synthesis_certifies_its_own_best(self):
        pchain = ParametricChain(
            make_herman_speed_reducer_system(5), SynchronousDistribution()
        )
        target = pchain.mark(HermanSingleTokenSpec().legitimate)
        result = synthesize_optimal_bias(
            pchain, target, tolerance=0.2, max_regions=32
        )
        assert result.param_names == ("p", "q")
        assert result.contains(result.best_assignment)
        for region in result.regions:
            assert region.lower_bound <= result.best_value + 1e-9
        # The asymmetric reducer beats the all-fair default.
        default_value = pchain.hitting_sweep(
            [pchain.default_assignment], target, "mean"
        )[0]
        assert result.best_value < default_value


class _StubChain:
    """A one-coin chain whose objective is a lookup by ``p``."""

    param_names = ("p",)
    parameters = (CoinParameter("p", default=0.5),)

    def __init__(self, values):
        self.values = values

    def hitting_sweep(self, assignments, target, objective):
        return [self.values.get(a["p"], 3.0) for a in assignments]


class TestArgminTies:
    """Samples within 1e-12 relative of the minimum tie; the first
    evaluated wins, so round-off cannot pick between mirror images."""

    @pytest.mark.parametrize(
        "later_scale,expected", [(1.0 - 1e-15, 0.5), (1.0 - 1e-9, 0.275)]
    )
    def test_first_sample_wins_a_round_off_tie(
        self, monkeypatch, later_scale, expected
    ):
        monkeypatch.setattr(bias, "certified_lower_bound", lambda *a, **k: 0.0)
        # Root center 0.5 is sampled first, then the children 0.275, 0.725.
        stub = _StubChain({0.5: 2.0, 0.275: 2.0 * later_scale})
        assert stub.values[0.275] < stub.values[0.5]
        result = synthesize_optimal_bias(stub, None, tolerance=0.5)
        assert [a["p"] for a, _ in result.evaluations] == [0.5, 0.275, 0.725]
        assert result.best_assignment == {"p": expected}
        assert result.best_value == stub.values[expected]

    def test_mirrored_random_bit_9_samples_keep_the_first(self):
        pchain = ParametricChain(
            make_herman_random_bit_system(9), SynchronousDistribution()
        )
        target = pchain.mark(HermanSingleTokenSpec().legitimate)
        low, high = pchain.hitting_sweep(
            [{"p": 0.4578125}, {"p": 0.5421875}], target
        )
        assert low == pytest.approx(high, rel=1e-12)
        result = synthesize_optimal_bias(
            pchain, target, tolerance=0.05, max_regions=96
        )
        assert round(result.best_assignment["p"], 3) == 0.458
