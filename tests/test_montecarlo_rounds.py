"""Tests for the rounds-aware Monte-Carlo extension and the scalar
trial loop it runs on."""

import numpy as np
import pytest

from repro.algorithms.leader_tree import make_leader_tree_system
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.algorithms.two_process import BothTrueSpec, make_two_process_system
from repro.analysis.rounds import count_rounds
from repro.analysis.stats import summarize
from repro.core.simulate import run_until
from repro.graphs.generators import path
from repro.markov.montecarlo import (
    MonteCarloRunner,
    random_configuration,
)
from repro.random_source import RandomSource
from repro.schedulers.samplers import (
    CentralRandomizedSampler,
    DistributedRandomizedSampler,
    GreedySingletonSampler,
    RoundRobinSampler,
    SynchronousSampler,
)
from repro.transformer.coin_toss import TransformedSpec, make_transformed_system


class TestRoundsMeasurement:
    def test_rounds_never_exceed_steps(self):
        system = make_token_ring_system(5)
        spec = TokenCirculationSpec()
        result = MonteCarloRunner(system).estimate(
            CentralRandomizedSampler(),
            lambda c: spec.legitimate(system, c),
            trials=100,
            max_steps=10_000,
            rng=RandomSource(3),
            measure_rounds=True,
        )
        assert result.round_stats is not None
        assert result.round_stats.mean <= result.stats.mean + 1e-9

    def test_synchronous_rounds_equal_steps(self):
        base = make_two_process_system()
        transformed = make_transformed_system(base)
        tspec = TransformedSpec(BothTrueSpec(), base)
        result = MonteCarloRunner(transformed).estimate(
            SynchronousSampler(),
            lambda c: tspec.legitimate(transformed, c),
            trials=200,
            max_steps=10_000,
            rng=RandomSource(4),
            measure_rounds=True,
        )
        # under the synchronous scheduler every step is one round
        assert result.round_stats.mean == result.stats.mean

    def test_rounds_omitted_by_default(self):
        system = make_token_ring_system(4)
        spec = TokenCirculationSpec()
        result = MonteCarloRunner(system).estimate(
            CentralRandomizedSampler(),
            lambda c: spec.legitimate(system, c),
            trials=10,
            max_steps=10_000,
            rng=RandomSource(5),
        )
        assert result.round_stats is None

    def test_round_gap_visible_under_central(self):
        """On a many-token start, central scheduling pays ≈|Enabled|
        steps per round, so steps must exceed rounds noticeably."""
        system = make_token_ring_system(6)
        spec = TokenCirculationSpec()
        result = MonteCarloRunner(system).estimate(
            CentralRandomizedSampler(),
            lambda c: spec.legitimate(system, c),
            trials=200,
            max_steps=10_000,
            rng=RandomSource(6),
            measure_rounds=True,
        )
        assert result.round_stats.mean < result.stats.mean


# ----------------------------------------------------------------------
# the scalar trial loop against per-trial run_until / count_rounds
# ----------------------------------------------------------------------
def _token_spec(system):
    spec = TokenCirculationSpec()
    return lambda c: spec.legitimate(system, c)


def _priority_by_id(system, configuration, process):
    return process


#: ``(system factory, legitimacy factory, sampler factory, max_steps,
#: explicit initials, a retirement some trial must take)`` — the cells
#: of the scalar trial loop's replay contract: randomized, distributed,
#: stateful (round-robin) and adversary-driven (greedy-singleton)
#: samplers, the two-process ``(False, False)`` start that no central
#: step can save (it cycles until the budget runs out), an
#: illegitimate-terminal cell, and a budget-exhausted cell.
_REPLAY_CELLS = [
    pytest.param(
        lambda: make_token_ring_system(5),
        _token_spec,
        CentralRandomizedSampler,
        5_000,
        None,
        "converged",
        id="central",
    ),
    pytest.param(
        lambda: make_token_ring_system(5),
        _token_spec,
        DistributedRandomizedSampler,
        5_000,
        None,
        "converged",
        id="distributed",
    ),
    pytest.param(
        lambda: make_token_ring_system(5),
        _token_spec,
        RoundRobinSampler,
        5_000,
        None,
        "converged",
        id="round-robin",
    ),
    pytest.param(
        lambda: make_token_ring_system(5),
        _token_spec,
        lambda: GreedySingletonSampler(_priority_by_id),
        200,
        None,
        "converged",
        id="greedy-singleton",
    ),
    pytest.param(
        make_two_process_system,
        lambda system: (lambda c: BothTrueSpec().legitimate(system, c)),
        CentralRandomizedSampler,
        50,
        [((False,), (False,))],
        "timed_out",
        id="two-process-central-censored",
    ),
    pytest.param(
        lambda: make_leader_tree_system(path(3)),
        lambda system: (lambda c: False),
        CentralRandomizedSampler,
        50,
        [((0,), (0,), (0,))],
        "hit_terminal",
        id="illegitimate-terminal",
    ),
    pytest.param(
        lambda: make_token_ring_system(6),
        _token_spec,
        CentralRandomizedSampler,
        3,
        None,
        "timed_out",
        id="budget-exhausted",
    ),
]


def _replay(system, sampler, legitimate, trials, max_steps, seed,
            initials, record):
    """Per-trial ``run_until`` runs over one ``RandomSource``, initials
    drawn by ``random_configuration`` between the runs."""
    rng = RandomSource(seed)
    runs = []
    for trial in range(trials):
        initial = (
            initials[trial % len(initials)]
            if initials is not None
            else random_configuration(system, rng)
        )
        runs.append(
            run_until(
                system,
                sampler,
                initial,
                stop=legitimate,
                max_steps=max_steps,
                rng=rng,
                record=record,
            )
        )
    return runs


def _scalar_outcomes(system, sampler, legitimate, trials, max_steps, seed,
                     initials, measure_rounds):
    emitted = []
    result = MonteCarloRunner(system).estimate(
        sampler,
        legitimate,
        trials=trials,
        max_steps=max_steps,
        rng=RandomSource(seed),
        initial_configurations=initials,
        measure_rounds=measure_rounds,
        engine="scalar",
        sink=emitted.append,
    )
    (outcome,) = emitted
    return result, outcome


@pytest.mark.parametrize(
    "make_system, make_legitimate, make_sampler, max_steps, initials,"
    " retirement",
    _REPLAY_CELLS,
)
def test_scalar_loop_matches_run_until_replay(
    make_system, make_legitimate, make_sampler, max_steps, initials,
    retirement,
):
    system = make_system()
    legitimate = make_legitimate(system)
    trials = 30
    result, outcome = _scalar_outcomes(
        system, make_sampler(), legitimate, trials, max_steps, 17,
        initials, False,
    )
    runs = _replay(
        system, make_sampler(), legitimate, trials, max_steps, 17,
        initials, False,
    )
    assert outcome.converged.tolist() == [run.converged for run in runs]
    assert outcome.hit_terminal.tolist() == [
        run.hit_terminal for run in runs
    ]
    assert outcome.timed_out.tolist() == [
        not run.converged and not run.hit_terminal for run in runs
    ]
    assert outcome.times.tolist() == [
        run.steps_taken if run.converged else 0 for run in runs
    ]
    assert outcome.rounds is None and outcome.fault_times is None
    assert result.converged == sum(run.converged for run in runs)
    assert result.timed_out == int(outcome.timed_out.sum())
    assert getattr(outcome, retirement).any()


@pytest.mark.parametrize(
    "make_sampler",
    [
        CentralRandomizedSampler,
        RoundRobinSampler,
        DistributedRandomizedSampler,
        SynchronousSampler,
    ],
    ids=["central", "round-robin", "distributed", "synchronous"],
)
def test_cursor_rounds_match_count_rounds_of_recorded_traces(make_sampler):
    """Rounds counted on the cursor equal ``count_rounds`` of each
    converged trial's recorded trace; censored trials carry ``NaN``.
    The transformed ring converges under every sampler here, the
    synchronous one included."""
    base = make_token_ring_system(6)
    system = make_transformed_system(base)
    spec = TransformedSpec(TokenCirculationSpec(), base)

    def legitimate(configuration):
        return spec.legitimate(system, configuration)

    trials = 40
    result, outcome = _scalar_outcomes(
        system, make_sampler(), legitimate, trials, 2_000, 23, None, True,
    )
    runs = _replay(
        system, make_sampler(), legitimate, trials, 2_000, 23, None, True,
    )
    assert outcome.converged.tolist() == [run.converged for run in runs]
    expected = [
        float(count_rounds(system, run.trace)) if run.converged
        else float("nan")
        for run in runs
    ]
    assert np.array_equal(outcome.rounds, expected, equal_nan=True)
    assert outcome.converged.sum() >= trials // 2
    counted = [rounds for rounds in expected if rounds == rounds]
    assert result.round_stats == summarize(counted)
