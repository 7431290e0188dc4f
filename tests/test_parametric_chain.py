"""Parametric-chain oracle contract: re-instantiation is bit-identical.

:class:`~repro.markov.parametric.ParametricChain` builds CSR structure
once and re-instantiates only the ``data`` vector per parameter point.
Its oracle is the concrete compiled builder: at *any* concrete
assignment, the re-instantiated chain must equal — bit for bit, no
tolerance — what ``build_chain(engine="compiled")`` produces for a
system constructed at those biases.  This holds over the whole
conformance registry (non-parametric systems instantiate their baked
tables verbatim), in full-space and frontier modes, and the cached-LU
hitting solver must agree with the reference solver on every system.

Also covers the :mod:`repro.core.parametric` substrate (affine forms,
coin declarations, the ≤ 3-parameter compile budget) and the
MarkovError parity between ``ParametricChain`` and
``build_chain(engine="compiled")`` when tables cannot compile.
"""

from __future__ import annotations

import numpy as np
import pytest
from conformance_registry import (
    CONFORMANCE_SYSTEMS,
    conformance_entry,
    conformance_system,
)

from repro.algorithms.herman_ring import HermanSingleTokenSpec
from repro.algorithms.herman_variants import (
    make_herman_random_bit_system,
    make_herman_random_pass_system,
    make_herman_speed_reducer2_system,
    make_herman_speed_reducer_system,
)
from repro.core.encoding import compile_tables
from repro.core.parametric import (
    MAX_COIN_PARAMETERS,
    AffineProbability,
    CoinParameter,
    affine_array_bounds,
    affine_terms,
    evaluate_affine,
    evaluate_affine_arrays,
)
from repro.errors import MarkovError, ModelError
from repro.markov.builder import build_chain
from repro.markov.hitting import expected_hitting_times
from repro.markov.parametric import ParametricChain, build_parametric_chain
from repro.schedulers.distributions import (
    BernoulliDistribution,
    CentralRandomizedDistribution,
    DistributedRandomizedDistribution,
    SynchronousDistribution,
)

DISTRIBUTIONS = {
    "synchronous": SynchronousDistribution,
    "central": CentralRandomizedDistribution,
    "distributed": DistributedRandomizedDistribution,
    "bernoulli": lambda: BernoulliDistribution(0.7),
}

#: (registry name, declared sampler key) for the whole matrix.
MATRIX = [
    (entry.name, sampler_key)
    for entry in CONFORMANCE_SYSTEMS
    for sampler_key, _ in entry.sampler_modes
]

#: Parametric Herman variants with off-default concrete bias points.
VARIANT_POINTS = {
    "random-bit": (
        lambda **kw: make_herman_random_bit_system(5, **kw),
        [{"bias": 0.3}, {"bias": 0.71}],
        lambda kw: {"p": kw["bias"]},
    ),
    "random-pass": (
        lambda **kw: make_herman_random_pass_system(5, **kw),
        [{"bias": 0.25}, {"bias": 0.9}],
        lambda kw: {"p": kw["bias"]},
    ),
    "speed-reducer": (
        lambda **kw: make_herman_speed_reducer_system(5, **kw),
        [{"bias": 0.8, "wake": 0.2}, {"bias": 0.35, "wake": 0.6}],
        lambda kw: {"p": kw["bias"], "q": kw["wake"]},
    ),
    "speed-reducer2": (
        lambda **kw: make_herman_speed_reducer2_system(5, **kw),
        [
            {"bias": 0.8, "wake": 0.25, "slip": 0.1},
            {"bias": 0.45, "wake": 0.5, "slip": 0.3},
        ],
        lambda kw: {"p": kw["bias"], "q": kw["wake"], "r": kw["slip"]},
    ),
}


def assert_bit_identical(chain, pchain, assignment):
    reference_data, reference_indices, reference_indptr = (
        chain.transition_arrays()
    )
    data = pchain.data_vector(assignment)
    assert np.array_equal(pchain.indices, reference_indices)
    assert np.array_equal(pchain.indptr, reference_indptr)
    assert np.array_equal(data, reference_data)
    instantiated = pchain.instantiate(assignment)
    assert instantiated.states == chain.states
    assert np.array_equal(
        instantiated.transition_arrays()[0], reference_data
    )


# ----------------------------------------------------------------------
# registry-wide oracle equality
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,sampler_key", MATRIX)
def test_registry_instantiation_matches_compiled_builder(name, sampler_key):
    entry = conformance_entry(name)
    system = entry.build()
    distribution = DISTRIBUTIONS[sampler_key]()
    chain = build_chain(system, distribution, engine="compiled")
    pchain = ParametricChain(system, distribution)
    # Raw baked tables (assignment=None) are always available…
    assert_bit_identical(chain, pchain, None)
    # …and for parametric systems the affine evaluation at the
    # construction defaults must reproduce them bit-for-bit.
    if pchain.param_names:
        assert_bit_identical(chain, pchain, pchain.default_assignment)


@pytest.mark.parametrize("name,sampler_key", MATRIX)
def test_registry_hitting_times_match_reference_solver(name, sampler_key):
    entry = conformance_entry(name)
    system = entry.build()
    distribution = DISTRIBUTIONS[sampler_key]()
    chain = build_chain(system, distribution, engine="compiled")
    pchain = ParametricChain(system, distribution)
    predicate = entry.legitimate(system)
    target = chain.mark(lambda _system, cfg: predicate(cfg))
    reference = expected_hitting_times(chain, target)
    if np.isinf(reference).any():
        # Absorption below one somewhere (e.g. deterministic synchronous
        # livelocks): the reference reports ``inf`` there, the sweep
        # solver refuses the whole target by contract.
        with pytest.raises(MarkovError):
            pchain.expected_times(None, target)
        return
    times = pchain.expected_times(None, target)
    assert np.allclose(times, reference, rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# off-default bias points (the actual re-instantiation use case)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(VARIANT_POINTS))
def test_variant_reinstantiation_matches_fresh_concrete_build(family):
    build, points, to_assignment = VARIANT_POINTS[family]
    pchain = ParametricChain(build(), SynchronousDistribution())
    for kwargs in points:
        concrete = build_chain(
            build(**kwargs), SynchronousDistribution(), engine="compiled"
        )
        assert_bit_identical(concrete, pchain, to_assignment(kwargs))


def test_variant_sweep_matches_pointwise_rebuild():
    spec = HermanSingleTokenSpec()
    pchain = ParametricChain(
        make_herman_random_pass_system(5), SynchronousDistribution()
    )
    target = pchain.mark(spec.legitimate)
    grid = [{"p": value} for value in np.linspace(0.2, 0.8, 7)]
    swept = pchain.hitting_sweep(grid, target, objective="mean")
    for assignment, value in zip(grid, swept):
        chain = build_chain(
            make_herman_random_pass_system(5, bias=assignment["p"]),
            SynchronousDistribution(),
            engine="compiled",
        )
        reference = expected_hitting_times(chain, target)
        expected = float(reference[~target].mean())
        assert value == pytest.approx(expected, rel=1e-9)


def test_frontier_mode_matches_compiled_builder():
    from repro.algorithms.herman_ring import herman_token_holders

    system = make_herman_random_bit_system(5, bias=0.6)
    # Seed from a single-token configuration: under the synchronous
    # scheduler the token count never grows, so the forward closure is
    # a strict subset of the space.
    seeds = [
        configuration
        for configuration in system.all_configurations()
        if len(herman_token_holders(system, configuration)) == 1
    ][:1]
    chain = build_chain(
        system,
        SynchronousDistribution(),
        initial=seeds,
        engine="compiled",
    )
    pchain = ParametricChain(
        system, SynchronousDistribution(), initial=seeds
    )
    assert pchain.num_states == chain.num_states
    assert pchain.num_states < system.num_configurations()
    assert_bit_identical(chain, pchain, {"p": 0.6})


def test_empty_initial_set_matches_compiled_builder():
    system = conformance_system("herman-ring5")
    distribution = SynchronousDistribution()
    chain = build_chain(system, distribution, initial=[], engine="compiled")
    pchain = ParametricChain(system, distribution, initial=[])
    assert pchain.num_states == chain.num_states == 0
    instantiated = pchain.instantiate()
    assert instantiated.states == chain.states
    for ours, theirs in zip(
        instantiated.transition_arrays(), chain.transition_arrays()
    ):
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
    assert np.array_equal(pchain.data_vector(), chain.transition_arrays()[0])


# ----------------------------------------------------------------------
# failure parity and validation
# ----------------------------------------------------------------------
def test_uncompilable_tables_raise_like_compiled_engine(monkeypatch):
    import repro.markov.builder as builder_module

    def refuse(*_args, **_kwargs):
        raise ModelError("neighborhood space over budget (forced)")

    monkeypatch.setattr(builder_module, "tables_for", refuse)
    system = make_herman_random_bit_system(5)
    with pytest.raises(MarkovError):
        build_chain(
            system, SynchronousDistribution(), engine="compiled"
        )
    with pytest.raises(MarkovError):
        ParametricChain(system, SynchronousDistribution())


def test_unknown_parameter_rejected():
    pchain = ParametricChain(
        make_herman_random_bit_system(5), SynchronousDistribution()
    )
    with pytest.raises(ModelError):
        pchain.data_vector({"q": 0.5})


def test_extra_parameter_rejected():
    pchain = ParametricChain(
        make_herman_speed_reducer_system(3), SynchronousDistribution()
    )
    with pytest.raises(ModelError, match="zz"):
        pchain.data_vector({"p": 0.5, "q": 0.5, "zz": 3})


@pytest.mark.parametrize(
    "build,assignment",
    [
        # p > 1: the complement coin 1 − p is negative.
        (make_herman_speed_reducer_system, {"p": 1.7, "q": 0.5}),
        # Every coin inside (0, 1), but the hold coin 1 − q − r < 0.
        (make_herman_speed_reducer2_system, {"p": 0.5, "q": 0.9, "r": 0.9}),
    ],
    ids=["p-above-one", "q-plus-r-above-one"],
)
def test_negative_probability_assignment_rejected(build, assignment):
    pchain = ParametricChain(build(3), SynchronousDistribution())
    target = pchain.mark(HermanSingleTokenSpec().legitimate)
    with pytest.raises(MarkovError, match="negative transition probability"):
        pchain.hitting_sweep([assignment], target)
    with pytest.raises(MarkovError, match=repr(assignment["p"])):
        pchain.expected_times(assignment, target)
    with pytest.raises(MarkovError):
        pchain.instantiate(assignment)


def test_row_mass_off_one_rejected(monkeypatch):
    pchain = ParametricChain(
        make_herman_random_bit_system(3), SynchronousDistribution()
    )
    real = pchain.edge_probs
    monkeypatch.setattr(
        pchain, "edge_probs", lambda assignment: 0.9 * real(assignment)
    )
    with pytest.raises(MarkovError, match="row mass off one"):
        pchain.data_vector({"p": 0.5})


def test_max_states_guard():
    with pytest.raises(MarkovError):
        ParametricChain(
            make_herman_random_bit_system(5),
            SynchronousDistribution(),
            max_states=4,
        )


def test_build_parametric_chain_wrapper():
    pchain = build_parametric_chain(
        make_herman_random_pass_system(5), SynchronousDistribution()
    )
    assert pchain.param_names == ("p",)
    assert pchain.default_assignment == {"p": 0.5}


# ----------------------------------------------------------------------
# affine substrate units
# ----------------------------------------------------------------------
class TestAffineSubstrate:
    def test_scalar_and_array_evaluation_bit_identical(self):
        probability = AffineProbability(
            1.0, {"q": -1.0, "r": -1.0}, {"q": 0.37, "r": 0.21}
        )
        constant, coefficients = affine_terms(probability)
        scalar = evaluate_affine(
            constant, coefficients, {"q": 0.37, "r": 0.21}
        )
        constants = np.array([constant])
        slab = np.array([[-1.0, -1.0]])
        vector = evaluate_affine_arrays(
            constants, slab, ("q", "r"), {"q": 0.37, "r": 0.21}
        )
        assert float(probability) == scalar == vector[0]

    def test_plain_float_has_no_affine_terms(self):
        assert affine_terms(0.5) is None

    def test_invalid_probability_rejected(self):
        with pytest.raises(ModelError):
            AffineProbability(0.0, {"p": 1.0}, {"p": 0.0})
        with pytest.raises(ModelError):
            AffineProbability(1.0, {"p": 1.0}, {"p": 0.5})

    def test_coin_parameter_validation(self):
        with pytest.raises(ModelError):
            CoinParameter("not an identifier", 0.5)
        with pytest.raises(ModelError):
            CoinParameter("p", 0.99, low=0.05, high=0.95)
        coin = CoinParameter("p", 0.5)
        assert float(coin.value(0.3)) == 0.3
        assert float(coin.complement(0.3)) == 0.7

    def test_affine_bounds_bracket_every_grid_point(self):
        constants = np.array([1.0, 0.0])
        slab = np.array([[-1.0, -1.0], [1.0, 0.0]])
        lows = {"q": 0.1, "r": 0.2}
        highs = {"q": 0.4, "r": 0.3}
        lower, upper = affine_array_bounds(
            constants, slab, ("q", "r"), lows, highs
        )
        for q in np.linspace(0.1, 0.4, 5):
            for r in np.linspace(0.2, 0.3, 5):
                point = evaluate_affine_arrays(
                    constants, slab, ("q", "r"), {"q": q, "r": r}
                )
                assert np.all(lower <= point + 1e-15)
                assert np.all(point <= upper + 1e-15)

    def test_too_many_coin_parameters_rejected_at_compile(self):
        from repro.core.actions import Action, Outcome
        from repro.core.algorithm import Algorithm
        from repro.core.system import System
        from repro.core.topology import Topology
        from repro.core.variables import VariableLayout, VarSpec
        from repro.graphs.generators import path

        coins = [
            CoinParameter(f"c{i}", 0.2)
            for i in range(MAX_COIN_PARAMETERS + 1)
        ]

        def _reset(view):
            view.set("x", 0)

        class TooManyCoins(Algorithm):
            name = "too-many-coins"

            def layout(self, topology, process):
                return VariableLayout((VarSpec("x", (0, 1)),))

            @property
            def is_probabilistic(self):
                return True

            def actions(self):
                def _outcomes(view):
                    # 4 coins at 0.2 plus a plain 0.2 remainder: a
                    # valid distribution over 4 > MAX parameters.
                    return tuple(
                        Outcome(coin.value(), _reset) for coin in coins
                    ) + (Outcome(0.2, _reset),)

                return (Action("A", lambda view: True, _outcomes),)

        system = System(TooManyCoins(), Topology(path(2)))
        with pytest.raises(ModelError):
            compile_tables(system)
