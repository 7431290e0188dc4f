"""Block-triangular transient solves (``hitting.TransientPlan``).

The plan splits ``I − Q`` into strongly connected super-blocks, sinks
first, and solves them by block forward substitution.  These tests pin
its answers to a dense ``numpy.linalg.solve`` reference through both
hitting paths (concrete chains and parametric sweeps), its merge rule,
its residual check and its guard on scipy's component labelling.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.algorithms.herman_ring import (
    HermanSingleTokenSpec,
    make_herman_system,
)
from repro.algorithms.herman_variants import (
    make_herman_random_bit_system,
    make_herman_random_pass_system,
    make_herman_speed_reducer2_system,
    make_herman_speed_reducer_system,
)
from repro.algorithms.two_process import make_two_process_system
from repro.errors import MarkovError
from repro.markov import hitting
from repro.markov.chain import MarkovChain
from repro.markov.hitting import backward_closure, expected_hitting_times
from repro.markov.parametric import ParametricChain
from repro.schedulers.distributions import SynchronousDistribution

#: (system, coin assignment) per case; the reducers' transient blocks
#: hold hundreds of strongly connected components, random-bit and
#: random-pass n=9 four large ones, Herman n=5 a single small block.
CASES = {
    "random-bit-9": (lambda: make_herman_random_bit_system(9), {"p": 0.3}),
    "random-pass-9": (lambda: make_herman_random_pass_system(9), {"p": 0.7}),
    "speed-reducer-5": (
        lambda: make_herman_speed_reducer_system(5),
        {"p": 0.4, "q": 0.3},
    ),
    "speed-reducer2-5": (
        lambda: make_herman_speed_reducer2_system(5),
        {"p": 0.6, "q": 0.4, "r": 0.2},
    ),
    "herman-5": (lambda: make_herman_system(5), None),
}


def dense_reference(data, indices, indptr, target):
    """Expected hitting times from one dense ``numpy.linalg.solve``."""
    n = target.shape[0]
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    ids = np.flatnonzero(~target)
    times = np.zeros(n)
    if ids.size:
        block = np.eye(ids.size) - matrix.toarray()[np.ix_(ids, ids)]
        times[ids] = np.linalg.solve(block, np.ones(ids.size))
    return times


def parametric(name):
    build, assignment = CASES[name]
    pchain = ParametricChain(build(), SynchronousDistribution())
    return pchain, pchain.mark(HermanSingleTokenSpec().legitimate), assignment


@pytest.mark.parametrize("name", sorted(CASES))
def test_both_paths_match_dense_reference(name):
    pchain, target, assignment = parametric(name)
    reference = dense_reference(
        pchain.data_vector(assignment), pchain.indices, pchain.indptr, target
    )
    chain = pchain.instantiate(assignment)
    chain_times = expected_hitting_times(chain, target)
    np.testing.assert_allclose(chain_times, reference, rtol=1e-12, atol=0)
    swept = pchain.expected_times(assignment, target)
    np.testing.assert_allclose(swept, reference, rtol=1e-12, atol=0)


def ring_walk_chain(size):
    """One strongly connected transient level: a lazy walk on a ring of
    ``size`` states that leaves to an absorbing state w.p. 0.2."""
    states = [((index,), (0,)) for index in range(size + 1)]
    rows = [
        {(index - 1) % size: 0.4, (index + 1) % size: 0.4, size: 0.2}
        for index in range(size)
    ]
    rows.append({size: 1.0})
    return MarkovChain(make_two_process_system(), states, rows, "hand")


def test_single_component_is_one_super_block():
    chain = ring_walk_chain(300)
    target = np.zeros(301, dtype=bool)
    target[-1] = True
    data, indices, indptr = chain.transition_arrays()
    reference = dense_reference(data, indices, indptr, target)
    times = expected_hitting_times(chain, target)
    np.testing.assert_allclose(times, reference, rtol=1e-12, atol=0)
    factor = chain._transient_lu[1]
    assert [block.ids.size for block in factor.plan.blocks] == [300]
    np.testing.assert_array_equal(factor.plan.blocks[0].ids, np.arange(300))


def test_empty_transient_block():
    pchain, _, assignment = parametric("random-bit-9")
    everything = np.ones(pchain.num_states, dtype=bool)
    zeros = np.zeros(pchain.num_states)
    assert np.array_equal(pchain.expected_times(assignment, everything), zeros)
    chain = pchain.instantiate(assignment)
    assert np.array_equal(expected_hitting_times(chain, everything), zeros)


def full_chain_plan(name):
    """The full (unquotiented) chain's transient plan at the case's point."""
    pchain, target, assignment = parametric(name)
    chain = pchain.instantiate(assignment)
    expected_hitting_times(chain, target)
    return chain, target, chain._transient_lu[1].plan


def test_merge_rule_and_block_order():
    _, _, plan = full_chain_plan("random-bit-9")
    assert sorted(block.ids.size for block in plan.blocks) == [74, 168, 252]
    # Sinks first: every entry leaving a super-block leads to an earlier
    # one, whose solution is final by the time the block is solved.
    solved = np.zeros(plan.num_states, dtype=bool)
    for block in plan.blocks:
        assert solved[block.outer_cols].all()
        assert not solved[block.ids].any()
        solved[block.ids] = True
    assert solved.all()


def perturb_block(monkeypatch, size):
    """Make every dense solve of a ``size``-state super-block off by 1e-6."""
    real_lu_solve = hitting.lu_solve

    def perturbed(lu, rhs):
        x = real_lu_solve(lu, rhs)
        return x * (1.0 + 1e-6) if rhs.shape[0] == size else x

    monkeypatch.setattr(hitting, "lu_solve", perturbed)


def test_perturbed_block_solution_raises(monkeypatch):
    pchain, target, assignment = parametric("random-bit-9")
    chain = pchain.instantiate(assignment)
    # Only the last (74-state) super-block is off, by 1e-6.
    perturb_block(monkeypatch, 74)
    with pytest.raises(MarkovError, match="transient solve residual"):
        expected_hitting_times(chain, target)


def test_perturbed_quotient_block_raises(monkeypatch):
    pchain, target, assignment = parametric("random-bit-9")
    plan = pchain._solver(target).plan
    perturb_block(monkeypatch, max(block.ids.size for block in plan.blocks))
    with pytest.raises(MarkovError, match="transient solve residual"):
        pchain.expected_times(assignment, target)


def test_non_topological_labels_fall_back_to_one_super_block(monkeypatch):
    pchain, target, assignment = parametric("random-bit-9")
    reference = pchain.expected_times(assignment, target)
    real = hitting.connected_components

    def reversed_labels(*args, **kwargs):
        count, labels = real(*args, **kwargs)
        return count, count - 1 - labels

    monkeypatch.setattr(hitting, "connected_components", reversed_labels)
    fresh, _, _ = parametric("random-bit-9")
    plan = fresh._solver(target).plan
    assert [block.ids.size for block in plan.blocks] == [plan.num_states]
    np.testing.assert_allclose(
        fresh.expected_times(assignment, target), reference, rtol=1e-12
    )
    chain = fresh.instantiate(assignment)
    np.testing.assert_allclose(
        expected_hitting_times(chain, target), reference, rtol=1e-12
    )
    assert len(chain._transient_lu[1].plan.blocks) == 1


def test_backward_closure_follows_edges_backwards():
    # BFS levels into the target; -1 = unreached.
    # 0 → 1 → 2 (target), 3 → 3, 4 → 0.
    indices = np.array([1, 2, 2, 3, 0])
    indptr = np.array([0, 1, 2, 3, 4, 5])
    target = np.array([False, False, True, False, False])
    level = backward_closure(indices, indptr, target)
    assert level.tolist() == [2, 1, 0, -1, 3]
    assert (level >= 0).tolist() == [True, True, True, False, True]


def test_one_plan_serves_every_point():
    pchain, target, _ = parametric("speed-reducer-5")
    solver = pchain._solver(target)
    grid = [{"p": p, "q": q} for p in (0.2, 0.5, 0.8) for q in (0.3, 0.6)]
    for assignment in grid:
        data = pchain.data_vector(assignment)
        reference = dense_reference(
            data, pchain.indices, pchain.indptr, target
        )
        np.testing.assert_allclose(
            pchain.expected_times(assignment, target),
            reference,
            rtol=1e-12,
            atol=0,
        )
        assert pchain._solver(target) is solver
