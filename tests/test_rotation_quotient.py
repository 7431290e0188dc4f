"""Rotation quotients of parametric chains equal the full chain.

A symmetric ring's chain lumps exactly onto its rotation orbits when
turning every configuration by one process is an automorphism of the
symbolic chain and the target is rotation-invariant
(``ParametricChain._rotation``, ``_HittingStructure``).  Its oracle is
the full chain itself: hitting times from one dense solve of the
instantiated chain, and certified lower bounds from the interval value
iteration run on every state of it.  Chains the rotation does not map
onto themselves must decline — each with its reason — and still answer
exactly like the full chain, since they then solve it.

Whether the rotation commutes with the step is decided on the compiled
tables (:meth:`repro.stabilization.symmetry.Automorphism.equivariant`);
its oracle here is the symbolic chain's own wire-edge multiset, under
each of the four scheduler distributions the compiled builder takes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.algorithms.dijkstra_ring import SinglePrivilegeSpec, make_dijkstra_system
from repro.algorithms.herman_ring import HermanSingleTokenSpec, make_herman_system
from repro.algorithms.herman_variants import (
    make_herman_random_bit_system,
    make_herman_random_pass_system,
    make_herman_speed_reducer2_system,
    make_herman_speed_reducer_system,
)
from repro.algorithms.israeli_jalfon import make_israeli_jalfon_system
from repro.algorithms.token_ring import make_token_ring_system
from repro.analysis.bias import certified_lower_bound
from repro.core.encoding import expansion_context
from repro.errors import MarkovError
from repro.markov.parametric import ParametricChain
from repro.schedulers.distributions import (
    BernoulliDistribution,
    CentralRandomizedDistribution,
    DistributedRandomizedDistribution,
    SynchronousDistribution,
)
from repro.stabilization.symmetry import Automorphism

from test_class_tables import systems

pytestmark = pytest.mark.conformance

RTOL = 1e-12

#: (builder, ring size, coin points) per symmetric case.
SYMMETRIC = {
    **{
        f"random-bit-{n}": (make_herman_random_bit_system, n,
                            [{"p": 0.3}, {"p": 0.5}, {"p": 0.85}])
        for n in (3, 5, 7, 9)
    },
    **{
        f"random-pass-{n}": (make_herman_random_pass_system, n,
                             [{"p": 0.2}, {"p": 0.5}, {"p": 0.7}])
        for n in (3, 5, 7, 9)
    },
    **{
        f"speed-reducer-{n}": (make_herman_speed_reducer_system, n,
                               [{"p": 0.4, "q": 0.3}, {"p": 0.8, "q": 0.6}])
        for n in (3, 5)
    },
    **{
        f"speed-reducer2-{n}": (make_herman_speed_reducer2_system, n,
                                [{"p": 0.6, "q": 0.4, "r": 0.2},
                                 {"p": 0.3, "q": 0.1, "r": 0.5}])
        for n in (3, 5)
    },
    **{
        f"herman-{n}": (make_herman_system, n, [None])
        for n in (3, 5, 7)
    },
}


def full_reference(pchain, assignment, target):
    """Expected hitting times of the full chain, one dense solve."""
    chain = pchain.instantiate(assignment)
    data, indices, indptr = chain.transition_arrays()
    n = target.shape[0]
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    ids = np.flatnonzero(~target)
    times = np.zeros(n)
    block = np.eye(ids.size) - matrix.toarray()[np.ix_(ids, ids)]
    times[ids] = np.linalg.solve(block, np.ones(ids.size))
    return times


def full_lower_bound(pchain, target, lows, highs, objective):
    """The interval value iteration over every state of the full chain."""
    atom_lo = pchain.atom_lower_bounds(lows, highs)
    branch = np.ones(pchain.num_edges)
    for column in pchain._edge_atoms.T:
        branch = branch * atom_lo[column]
    data_lo = pchain._plan.accumulate(
        pchain._edge_weights / pchain._edge_divisors * branch
    )
    starts = pchain.indptr[:-1]
    slack = np.maximum(1.0 - np.add.reduceat(data_lo, starts), 0.0)
    v = np.zeros(target.shape[0])
    for _ in range(300):
        successor_v = v[pchain.indices]
        v_next = np.where(
            target,
            0.0,
            1.0
            + np.add.reduceat(data_lo * successor_v, starts)
            + slack * np.minimum.reduceat(successor_v, starts),
        )
        residual = float(np.max(np.abs(v_next - v)))
        v = v_next
        if residual <= 1e-9 * (1.0 + float(v.max())):
            break
    transient = v[~target]
    return float(transient.mean() if objective == "mean" else transient.max())


def symmetric_case(name):
    build, n, points = SYMMETRIC[name]
    pchain = ParametricChain(build(n), SynchronousDistribution())
    return pchain, pchain.mark(HermanSingleTokenSpec()), points


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_quotient_hitting_times_match_full_chain(name):
    pchain, target, points = symmetric_case(name)
    solver = pchain._solver(target)
    assert solver.declined is None
    assert solver.num_orbits < pchain.num_states
    assert solver.orbit_size.sum() == pchain.num_states
    transient = ~target
    for assignment in points:
        reference = full_reference(pchain, assignment, target)
        np.testing.assert_allclose(
            pchain.expected_times(assignment, target),
            reference,
            rtol=RTOL,
            atol=0,
        )
        mean, worst = (
            pchain.hitting_sweep([assignment], target, objective)[0]
            for objective in ("mean", "worst")
        )
        assert mean == pytest.approx(reference[transient].mean(), rel=RTOL)
        assert worst == pytest.approx(reference[transient].max(), rel=RTOL)


def boxes(assignment):
    """A narrow, a wide and a lopsided box around one coin point."""
    if assignment is None:
        return [({}, {})]
    return [
        (
            {name: value - width for name, value in assignment.items()},
            {name: value + width for name, value in assignment.items()},
        )
        for width in (0.01, 0.05)
    ] + [
        (
            {name: 0.05 for name in assignment},
            {name: value for name, value in assignment.items()},
        )
    ]


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_quotient_bounds_match_full_chain_iteration(name):
    pchain, target, points = symmetric_case(name)
    assert pchain._solver(target).declined is None
    for lows, highs in boxes(points[0]):
        for objective in ("mean", "worst"):
            expected = full_lower_bound(pchain, target, lows, highs, objective)
            bound = certified_lower_bound(
                pchain, target, lows, highs, objective=objective
            )
            assert bound == pytest.approx(expected, rel=RTOL)


# ----------------------------------------------------------------------
# declines: each reason, each still exact
# ----------------------------------------------------------------------
def declined_case(name):
    if name == "dijkstra":
        # The bottom process runs a different rule: no rotation symmetry.
        pchain = ParametricChain(
            make_dijkstra_system(4), CentralRandomizedDistribution()
        )
        return pchain, pchain.mark(SinglePrivilegeSpec()), None
    if name == "single-state-target":
        # The chain is symmetric, but one configuration is not an orbit.
        pchain = ParametricChain(
            make_herman_random_bit_system(5), SynchronousDistribution()
        )
        target = np.zeros(pchain.num_states, dtype=bool)
        target[5] = True  # a legitimate configuration every state reaches
        return pchain, target, {"p": 0.4}
    # The forward closure of one configuration misses its rotations.
    seed = ((0, 0), (0, 0), (0, 0), (0, 0), (0, 1))
    pchain = ParametricChain(
        make_herman_speed_reducer_system(5),
        SynchronousDistribution(),
        initial=[seed],
    )
    return pchain, pchain.mark(HermanSingleTokenSpec()), {"p": 0.4, "q": 0.3}


@pytest.mark.parametrize(
    "name,reason",
    [
        ("dijkstra", "not equivariant"),
        ("single-state-target", "target not invariant"),
        ("open-initial-set", "state set not closed"),
    ],
)
def test_declines_with_reason_and_matches_full_chain(name, reason):
    pchain, target, assignment = declined_case(name)
    solver = pchain._solver(target)
    assert solver.declined == reason
    assert solver.num_orbits == pchain.num_states
    assert (solver.orbit_size == 1).all()
    reference = full_reference(pchain, assignment, target)
    np.testing.assert_allclose(
        pchain.expected_times(assignment, target), reference, rtol=RTOL, atol=0
    )
    transient = ~target
    [mean] = pchain.hitting_sweep([assignment], target, "mean")
    assert mean == pytest.approx(reference[transient].mean(), rel=RTOL)
    lows = highs = {} if assignment is None else assignment
    assert certified_lower_bound(pchain, target, lows, highs) == pytest.approx(
        full_lower_bound(pchain, target, lows, highs, "mean"), rel=RTOL
    )


def test_equivariant_chain_with_open_target_keeps_other_targets_quotiented():
    pchain, target, _ = declined_case("single-state-target")
    assert pchain._solver(target).declined == "target not invariant"
    legitimate = pchain.mark(HermanSingleTokenSpec())
    assert pchain._solver(legitimate).declined is None


# ----------------------------------------------------------------------
# invalid assignments fail the same way through the quotient
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "build,assignment",
    [
        (make_herman_speed_reducer_system, {"p": 1.7, "q": 0.5}),
        (make_herman_speed_reducer2_system, {"p": 0.5, "q": 0.9, "r": 0.9}),
    ],
    ids=["p-above-one", "q-plus-r-above-one"],
)
def test_negative_assignment_raises_the_full_chain_error(build, assignment):
    pchain = ParametricChain(build(5), SynchronousDistribution())
    target = pchain.mark(HermanSingleTokenSpec())
    assert pchain._solver(target).declined is None
    with pytest.raises(MarkovError) as full:
        pchain.data_vector(assignment)
    assert "negative transition probability" in str(full.value)
    for solve in (
        lambda: pchain.hitting_sweep([assignment], target),
        lambda: pchain.expected_times(assignment, target),
    ):
        with pytest.raises(MarkovError) as quotient:
            solve()
        assert str(quotient.value) == str(full.value)


def test_row_mass_off_one_raises_through_the_quotient(monkeypatch):
    pchain = ParametricChain(
        make_herman_random_bit_system(5), SynchronousDistribution()
    )
    target = pchain.mark(HermanSingleTokenSpec())
    assert pchain._solver(target).declined is None
    real = pchain._atom_values
    monkeypatch.setattr(
        pchain, "_atom_values", lambda assignment: 0.9 * real(assignment)
    )
    with pytest.raises(MarkovError, match="row mass off one"):
        pchain.hitting_sweep([{"p": 0.5}], target)
    with pytest.raises(MarkovError, match="row mass off one"):
        pchain.data_vector({"p": 0.5})


# ----------------------------------------------------------------------
# the table verdict against the wire-edge oracle
# ----------------------------------------------------------------------
def rotation(num_processes):
    return [(p + 1) % num_processes for p in range(num_processes)]


def wire_equivariant(pchain):
    """Whether rotating every configuration by one process maps the
    symbolic chain's wire edges ``(source, target, weight / divisor,
    sorted atom forms)`` onto themselves as a multiset; ``None`` when
    the state set does not map onto itself.  An atom's form is its
    construction value and affine ``(constant, coefficients)`` row."""
    expansion = expansion_context(pchain._tables)
    codes = pchain._codes.astype(np.int64)
    rotated = np.roll(codes, 1, axis=1)
    if (rotated >= np.asarray(expansion.sizes)).any():
        return None
    ranks = codes @ expansion.weights_row
    order = np.argsort(ranks)
    rotated_ranks = rotated @ expansion.weights_row
    slot = np.minimum(
        np.searchsorted(ranks[order], rotated_ranks), ranks.shape[0] - 1
    )
    if not np.array_equal(ranks[order][slot], rotated_ranks):
        return None
    sigma = order[slot]

    tables = pchain._tables
    form_columns = [tables.outcome_prob.reshape(-1, 1)]
    if tables.param_names:
        form_columns += [
            tables.outcome_prob_const.reshape(-1, 1),
            tables.outcome_prob_coeff.reshape(-1, len(tables.param_names)),
        ]
    forms = np.hstack(form_columns)
    forms = np.vstack([forms, np.zeros(forms.shape[1])])
    forms[-1, :2] = 1.0  # the padding atom: exactly 1.0, no terms
    _, form_of_atom = np.unique(forms, axis=0, return_inverse=True)
    edge_forms = np.sort(form_of_atom.reshape(-1)[pchain._edge_atoms], axis=1)
    scale = pchain._edge_weights / pchain._edge_divisors
    sources = np.repeat(
        np.arange(pchain.num_states, dtype=np.int64), pchain._edge_counts
    )

    def sorted_edges(src, dst):
        columns = [src, dst, scale, *edge_forms.T]
        order = np.lexsort(columns[::-1])
        return [column[order] for column in columns]

    image = sorted_edges(sigma[sources], sigma[pchain._edge_targets])
    return all(
        np.array_equal(a, b)
        for a, b in zip(sorted_edges(sources, pchain._edge_targets), image)
    )


#: The symmetric cases above plus two central-daemon rings and a ring
#: whose bottom process breaks the symmetry.
ORACLE_CASES = {
    **{name: (build, n) for name, (build, n, _) in SYMMETRIC.items()},
    "token-ring-5": (make_token_ring_system, 5),
    "israeli-jalfon-5": (make_israeli_jalfon_system, 5),
    "dijkstra-4": (make_dijkstra_system, 4),
}

#: The four distribution types the compiled chain builder takes.
DISTRIBUTIONS = [
    SynchronousDistribution(),
    CentralRandomizedDistribution(),
    DistributedRandomizedDistribution(),
    BernoulliDistribution(0.3),
]


@pytest.mark.parametrize(
    "distribution", DISTRIBUTIONS, ids=lambda d: type(d).__name__
)
@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_table_verdict_equals_wire_edge_oracle(name, distribution):
    build, n = ORACLE_CASES[name]
    system = build(n)
    verdict = Automorphism(system, rotation(n)).equivariant()
    assert verdict == (name != "dijkstra-4")
    pchain = ParametricChain(system, distribution)
    assert wire_equivariant(pchain) == verdict
    assert pchain._rotation[1] == (None if verdict else "not equivariant")


@settings(
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(systems(), st.sampled_from(DISTRIBUTIONS))
def test_table_verdict_equals_wire_edge_oracle_on_generated_rings(
    system, distribution
):
    sigma = rotation(system.num_processes)
    assume(system.topology.graph.is_automorphism(sigma))
    assume(system.num_configurations() <= 4096)
    pchain = ParametricChain(system, distribution)
    assert wire_equivariant(pchain) == Automorphism(system, sigma).equivariant()
