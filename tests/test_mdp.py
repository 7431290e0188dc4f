"""MDP tier: daemons as optimization variables.

Covers the wire-format invariants of :func:`repro.markov.mdp.build_mdp`,
engine-string validation, the synchronous pin (a choice-free daemon
family must reproduce the exact chain bit-for-tolerance), the per-state
``best ≤ expected ≤ worst`` sandwich against the PR 4 compiled chain,
and the paper-faithful Theorem 2 separation (the distributed adversary
starves the token ring while the randomized daemon converges).
"""

from __future__ import annotations

import numpy as np
import pytest

from conformance_registry import (
    conformance_entry,
    conformance_system,
    make_two_action_system,
)
from repro.core.system import compose_weighted_targets
from repro.errors import MarkovError
from repro.markov.builder import build_chain
from repro.markov.hitting import (
    absorption_probabilities,
    expected_hitting_times,
)
from repro.markov.mdp import MDP_DAEMONS, MDP_OBJECTIVES, build_mdp
from repro.schedulers.distributions import SynchronousDistribution
from repro.stabilization.adversarial import (
    best_case_convergence,
    daemon_bracket,
    randomized_distribution_for,
    worst_case_convergence,
)

#: Registry systems with full spaces small enough for exact analysis —
#: the same set the chain conformance tier uses.
BRACKET_SYSTEMS = (
    "token-ring5",
    "herman-ring5",
    "israeli-jalfon-ring6",
    "leader-path5",
    "coloring-star4",
)


def _spec(name):
    """System plus its legitimacy in ``mark()``'s scalar two-arg form."""
    entry = conformance_entry(name)
    system = conformance_system(name)
    one_arg = entry.legitimate(system)
    return system, lambda _system, configuration: one_arg(configuration)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_build_mdp_rejects_unknown_daemon():
    system = conformance_system("token-ring5")
    with pytest.raises(MarkovError, match="unknown daemon") as excinfo:
        build_mdp(system, daemon="chaotic")
    for daemon in MDP_DAEMONS:
        assert daemon in str(excinfo.value)


def test_solvers_reject_unknown_objective():
    system = conformance_system("token-ring5")
    mdp = build_mdp(system, daemon="central")
    target = mdp.mark(_spec("token-ring5")[1])
    with pytest.raises(MarkovError, match="unknown objective") as excinfo:
        mdp.reachability(target, "best")
    for objective in MDP_OBJECTIVES:
        assert objective in str(excinfo.value)
    with pytest.raises(MarkovError, match="unknown objective"):
        mdp.expected_hitting_times(target, "worst")


def test_randomized_distribution_for_rejects_unknown_daemon():
    with pytest.raises(MarkovError, match="unknown daemon"):
        randomized_distribution_for("fair")


# ----------------------------------------------------------------------
# wire-format invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("daemon", sorted(MDP_DAEMONS))
def test_wire_format_is_well_formed(daemon):
    system = conformance_system("token-ring5")
    mdp = build_mdp(system, daemon=daemon)
    # Every state has at least one action (terminal states self-loop)…
    assert (np.diff(mdp.action_indptr) >= 1).all()
    assert mdp.action_indptr[0] == 0
    assert mdp.action_indptr[-1] == mdp.num_actions
    # …every action has at least one edge…
    assert (np.diff(mdp.edge_indptr) >= 1).all()
    # …and every action's outgoing probabilities sum to one (zero-mass
    # branches are dropped at build time).
    sums = np.add.reduceat(mdp.edge_prob, mdp.edge_indptr[:-1])
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert (mdp.edge_prob > 0.0).all()
    assert (0 <= mdp.edge_target).all()
    assert (mdp.edge_target < mdp.num_states).all()


def test_mdp_states_align_with_chain_states():
    system, scalar = _spec("token-ring5")
    mdp = build_mdp(system, daemon="central")
    chain = build_chain(system, randomized_distribution_for("central"))
    assert list(mdp.states) == list(chain.states)
    assert (
        mdp.mark(scalar) == np.asarray(chain.mark(scalar), dtype=bool)
    ).all()


# ----------------------------------------------------------------------
# scalar oracle: the exact wire arrays, rebuilt from the System
# ----------------------------------------------------------------------
def _daemon_subsets(daemon, enabled):
    """The daemon's choices from a sorted enabled tuple, enumerated here
    so the oracle does not read the scheduler relations it checks:
    enabled singletons (central), the all-enabled subset (synchronous),
    or every non-empty subset in bitmask order (distributed)."""
    if daemon == "central":
        return [(process,) for process in enabled]
    if daemon == "synchronous":
        return [enabled]
    k = len(enabled)
    return [
        tuple(enabled[i] for i in range(k) if mask >> i & 1)
        for mask in range(1, 2**k)
    ]


def _scalar_mdp(system, daemon):
    """The MDP's four wire arrays from :class:`System` alone.

    One action per :func:`_daemon_subsets` subset (a terminal
    configuration gets one self-loop action), each edge ``branch /
    action_choices`` with zero-probability branches dropped, duplicate
    targets summed in dict (emission) order, edges sorted by target.
    """
    states = list(system.all_configurations())
    index = {state: state_id for state_id, state in enumerate(states)}
    action_counts, edge_counts, targets, probs = [], [], [], []
    for state_id, configuration in enumerate(states):
        resolved = system.resolved_actions(configuration)
        enabled = tuple(sorted(resolved))
        if not enabled:
            action_counts.append(1)
            edge_counts.append(1)
            targets.append(state_id)
            probs.append(1.0)
            continue
        subsets = _daemon_subsets(daemon, enabled)
        action_counts.append(len(subsets))
        for subset in subsets:
            action_choices = 1
            for process in subset:
                action_choices *= len(resolved[process])
            row: dict[int, float] = {}
            for branch, target in compose_weighted_targets(
                configuration, subset, resolved
            ):
                if branch <= 0.0:
                    continue
                target_id = index[target]
                row[target_id] = (
                    row.get(target_id, 0.0) + branch / action_choices
                )
            edge_counts.append(len(row))
            for target_id in sorted(row):
                targets.append(target_id)
                probs.append(row[target_id])
    return (
        np.concatenate([[0], np.cumsum(action_counts)]),
        np.concatenate([[0], np.cumsum(edge_counts)]),
        np.array(targets, dtype=np.int64),
        np.array(probs, dtype=float),
    )


@pytest.mark.parametrize("daemon", sorted(MDP_DAEMONS))
@pytest.mark.parametrize("name", BRACKET_SYSTEMS + ("two-action-ring4",))
def test_mdp_matches_scalar_oracle_exactly(name, daemon):
    if name == "two-action-ring4":
        system = make_two_action_system(4)
    else:
        system = conformance_system(name)
    mdp = build_mdp(system, daemon=daemon)
    expected = _scalar_mdp(system, daemon)
    actual = (
        mdp.action_indptr, mdp.edge_indptr, mdp.edge_target, mdp.edge_prob
    )
    for ours, theirs in zip(expected, actual):
        assert np.array_equal(ours, theirs)


# ----------------------------------------------------------------------
# synchronous pin: a choice-free family must equal the exact chain
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["token-ring5", "herman-ring5"])
def test_synchronous_mdp_matches_exact_chain(name):
    """The synchronous daemon has exactly one action per state, so min
    and max both collapse to the chain solved by the PR 4 pipeline —
    on deterministic (token ring) and probabilistic (Herman) dynamics."""
    system, scalar = _spec(name)
    mdp = build_mdp(system, daemon="synchronous")
    chain = build_chain(system, SynchronousDistribution())
    target = mdp.mark(scalar)
    absorption = absorption_probabilities(
        chain, np.asarray(chain.mark(scalar), dtype=bool)
    )
    times = expected_hitting_times(
        chain, np.asarray(chain.mark(scalar), dtype=bool)
    )
    for objective in ("min", "max"):
        reach = mdp.reachability(target, objective)
        assert np.allclose(reach, absorption, atol=1e-9)
        optimized = mdp.expected_hitting_times(target, objective)
        finite = np.isfinite(times)
        assert (np.isfinite(optimized) == finite).all()
        assert np.allclose(optimized[finite], times[finite], atol=1e-6)


# ----------------------------------------------------------------------
# the sandwich: best ≤ randomized chain ≤ worst, per state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BRACKET_SYSTEMS)
def test_per_state_daemon_sandwich(name):
    """The randomized central daemon is one strategy inside the central
    MDP's strategy space, so its exact per-state hitting times must be
    bracketed by the optimized ones (``inf``-aware)."""
    system, scalar = _spec(name)
    mdp = build_mdp(system, daemon="central")
    chain = build_chain(system, randomized_distribution_for("central"))
    target = mdp.mark(scalar)
    expected = expected_hitting_times(
        chain, np.asarray(chain.mark(scalar), dtype=bool)
    )
    best = mdp.expected_hitting_times(target, "min")
    worst = mdp.expected_hitting_times(target, "max")
    tolerance = 1e-6
    # Wherever the randomized chain converges, some daemon does too.
    finite = np.isfinite(expected)
    assert np.isfinite(best[finite]).all()
    assert (best[finite] <= expected[finite] + tolerance).all()
    both = finite & np.isfinite(worst)
    assert (expected[both] <= worst[both] + tolerance).all()
    # And the reach probabilities bracket the chain's absorption mass.
    absorption = absorption_probabilities(
        chain, np.asarray(chain.mark(scalar), dtype=bool)
    )
    reach_best = mdp.reachability(target, "max")
    reach_worst = mdp.reachability(target, "min")
    assert (reach_best >= absorption - 1e-9).all()
    assert (reach_worst <= absorption + 1e-9).all()


@pytest.mark.parametrize("name", BRACKET_SYSTEMS[:4])
def test_daemon_bracket_is_ordered(name):
    """Satellite invariant: aggregate ``best ≤ expected ≤ worst`` for
    every registry algorithm's bracket."""
    entry = conformance_entry(name)
    system = conformance_system(name)
    spec_predicate = entry.legitimate(system)

    class _Spec:
        name = entry.name

        @staticmethod
        def legitimate(_, configuration):
            return spec_predicate(configuration)

    bracket = daemon_bracket(system, _Spec(), daemon="central")
    assert bracket.ordered, bracket.row()
    assert bracket.best.mean_expected_steps <= (
        bracket.expected.mean_expected_steps + 1e-6
    )


# ----------------------------------------------------------------------
# Theorem 2, quantitatively: the adversary separates weak from self
# ----------------------------------------------------------------------
def test_token_ring_distributed_adversary_starves():
    system, scalar = _spec("token-ring5")
    entry = conformance_entry("token-ring5")

    class _Spec:
        name = "token-circulation"

        @staticmethod
        def legitimate(system_, configuration):
            return scalar(system_, configuration)

    worst = worst_case_convergence(system, _Spec(), daemon="distributed")
    best = best_case_convergence(system, _Spec(), daemon="distributed")
    # The hostile distributed daemon starves the ring from some state…
    assert not worst.converges_with_probability_one
    assert worst.max_nonconvergence_probability > 0.5
    assert worst.mean_expected_steps == float("inf")
    # …while a helpful daemon of the *same family* always converges
    # (weak stabilization), and so does the randomized one (Theorem 7).
    assert best.converges_with_probability_one
    assert np.isfinite(best.mean_expected_steps)
    chain = build_chain(system, randomized_distribution_for("distributed"))
    times = expected_hitting_times(
        chain, np.asarray(chain.mark(entry.batch_legitimate), dtype=bool)
    )
    assert np.isfinite(times).all()
