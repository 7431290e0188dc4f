"""Specification batch forms, the tables' action index, the compiled
symmetry check, and the theorem experiments that read them.

A specification's batch form
(:meth:`~repro.stabilization.specification.Specification.batch_legitimacy`)
must equal its scalar predicate on *every* configuration, because THM2/4
verify the paper's lemmas through it; the compiled Theorem 3 check
(:func:`~repro.stabilization.symmetry.check_symmetry`) must equal the
per-configuration symmetry functions it replaced.
"""

import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.algorithms.center_leader import CenterLeaderAlgorithm
from repro.algorithms.dijkstra_ring import (
    SinglePrivilegeSpec,
    make_dijkstra_system,
)
from repro.algorithms.herman_ring import (
    HermanSingleTokenSpec,
    make_herman_system,
)
from repro.algorithms.leader_tree import (
    LeaderTreeAlgorithm,
    TreeLeaderSpec,
    make_leader_tree_system,
)
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.core.encoding import compile_tables, expansion_context, tables_for
from repro.core.system import System
from repro.core.topology import Topology
from repro.errors import ModelError, StateSpaceError
from repro.experiments.thm2 import run_thm2
from repro.experiments.thm3 import _SYMMETRIC_PORTS, run_thm3
from repro.experiments.thm4 import run_thm4
from repro.graphs.generators import path, ring
from repro.markov.batch import mark_states
from repro.stabilization import witnesses
from repro.stabilization.symmetry import (
    Automorphism,
    check_symmetric_class_closed,
    check_symmetry,
    is_equivariant_synchronous_step,
    mirror_of_path,
    symmetric_configurations,
    transport_configuration,
)
from repro.transformer.coin_toss import make_transformed_system

from test_class_tables import ODD_RING_ALGORITHMS, prufer_trees, systems

SETTINGS = settings(
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# batch forms equal the scalar predicates on the full code space
# ----------------------------------------------------------------------
@st.composite
def specified_systems(draw):
    """A system and a specification with a batch form on it; every full
    configuration space stays under ~4,000 states."""
    family = draw(st.sampled_from(["token", "herman", "dijkstra", "tree"]))
    if family == "token":
        return make_token_ring_system(draw(st.integers(3, 6))), (
            TokenCirculationSpec()
        )
    if family == "herman":
        make = draw(st.sampled_from(ODD_RING_ALGORITHMS))
        return make(draw(st.sampled_from([3, 5]))), HermanSingleTokenSpec()
    if family == "dijkstra":
        return make_dijkstra_system(draw(st.integers(3, 5))), (
            SinglePrivilegeSpec()
        )
    tree = draw(prufer_trees(min_nodes=2, max_nodes=6))
    return make_leader_tree_system(tree), TreeLeaderSpec()


def full_space_marks(system, spec):
    """(batch form, scalar predicate) on every configuration."""
    tables = tables_for(system)
    codes = expansion_context(tables).all_codes()
    states = list(system.all_configurations())
    batch = mark_states(spec, system, states, lambda: codes, lambda: tables)
    scalar = np.array([spec.legitimate(system, state) for state in states])
    return batch, scalar


@SETTINGS
@given(specified_systems())
def test_batch_form_equals_scalar_predicate(case):
    system, spec = case
    event(type(spec).__name__)
    assert spec.batch_legitimacy(system) is not None
    batch, scalar = full_space_marks(system, spec)
    np.testing.assert_array_equal(batch, scalar)
    assert scalar.any() and not scalar.all()


@pytest.mark.parametrize(
    "spec, system",
    [
        (TokenCirculationSpec(), make_transformed_system(
            make_token_ring_system(4))),
        (TokenCirculationSpec(), make_dijkstra_system(4)),
        (HermanSingleTokenSpec(), make_transformed_system(
            make_token_ring_system(3))),
        (HermanSingleTokenSpec(), make_token_ring_system(5)),
        (TreeLeaderSpec(), System(CenterLeaderAlgorithm(), Topology(path(3)))),
        (TreeLeaderSpec(), System(LeaderTreeAlgorithm(), Topology(ring(4)))),
    ],
    ids=["token/transformed", "token/dijkstra", "herman/transformed",
         "herman/token", "tree/center-leader", "tree/ring"],
)
def test_foreign_systems_have_no_batch_form(spec, system):
    assert spec.batch_legitimacy(system) is None


def test_transformed_token_ring_marks_with_the_scalar_predicate():
    """No form: the mark helper falls back to the scalar predicate."""
    system = make_transformed_system(make_token_ring_system(3))
    tables = tables_for(system)
    codes = expansion_context(tables).all_codes()
    states = list(system.all_configurations())
    calls = []

    class CountingSpec(TokenCirculationSpec):
        def legitimate(self, system_, state):
            calls.append(state)
            return super().legitimate(system_, state)

    mark_states(CountingSpec(), system, states, lambda: codes, lambda: tables)
    assert len(calls) == len(states)


# ----------------------------------------------------------------------
# the per-row action index
# ----------------------------------------------------------------------
@SETTINGS
@given(systems())
def test_action_index_matches_resolve_neighborhood(system):
    event(system.algorithm.name)
    tables = compile_tables(system)
    encoding = tables.encoding
    names = [action.name for action in system.actions]
    per_action = [
        tables.entries_with_action([position]) for position in range(len(names))
    ]
    representatives = np.unique(tables.process_class, return_index=True)[1]
    for process in representatives.tolist():
        members = (process, *system.topology.neighbors(process))
        for index, key in enumerate(
            product(*(encoding.local_states(q) for q in members)),
            start=int(tables.key_offset[process]),
        ):
            resolved = [action.name for action, _ in
                        system.resolve_neighborhood(process, key)]
            base = int(tables.action_base[index])
            rows = tables.action_index[base: base + len(resolved)]
            assert [names[row] for row in rows.tolist()] == resolved
            assert [
                bool(entries[index]) for entries in per_action
            ] == [name in resolved for name in names]


def test_entries_with_action_is_memoized_read_only(ring5_system):
    tables = compile_tables(ring5_system)
    first = tables.entries_with_action([0])
    assert tables.entries_with_action((0,)) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = not first[0]
    fresh = compile_tables(ring5_system).entries_with_action([0])
    assert fresh is not first
    assert np.array_equal(fresh, first) and first.any()


# ----------------------------------------------------------------------
# the compiled Theorem 3 check against the per-configuration oracle
# ----------------------------------------------------------------------
def reflection_of_ring(num_nodes):
    return [(num_nodes - node) % num_nodes for node in range(num_nodes)]


SYMMETRY_CASES = [
    ("alg2/4-chain/symmetric-ports", System(
        LeaderTreeAlgorithm(),
        Topology(path(4), neighbor_order=_SYMMETRIC_PORTS),
    ), mirror_of_path(4)),
    ("alg2/5-chain", make_leader_tree_system(path(5)), mirror_of_path(5)),
    ("alg2/2-chain", make_leader_tree_system(path(2)), mirror_of_path(2)),
    ("center/3-chain", System(CenterLeaderAlgorithm(), Topology(path(3))),
     mirror_of_path(3)),
    ("token/5-ring", make_token_ring_system(5), reflection_of_ring(5)),
    ("dijkstra/4-ring", make_dijkstra_system(4), reflection_of_ring(4)),
    ("center/3-ring", System(CenterLeaderAlgorithm(), Topology(ring(3))),
     reflection_of_ring(3)),
]


@pytest.mark.parametrize(
    "system, sigma",
    [case[1:] for case in SYMMETRY_CASES],
    ids=[case[0] for case in SYMMETRY_CASES],
)
def test_compiled_symmetry_check_equals_the_oracle(system, sigma):
    check = check_symmetry(system, sigma)
    assert check.equivariant.tolist() == [
        is_equivariant_synchronous_step(system, configuration, sigma)
        for configuration in system.all_configurations()
    ]
    assert check.symmetric == list(
        symmetric_configurations(system, sigma)
    )
    assert (len(check.symmetric), check.violations) == (
        check_symmetric_class_closed(system, sigma)
    )
    assert np.array_equal(
        check.symmetric_codes,
        tables_for(system).encoding.encode_batch(check.symmetric),
    )


def rotation_of_ring(num_nodes):
    return [(node + 1) % num_nodes for node in range(num_nodes)]


ROTATION_CASES = [
    ("token/5-ring/rotation", make_token_ring_system(5), rotation_of_ring(5)),
    ("dijkstra/4-ring/rotation", make_dijkstra_system(4), rotation_of_ring(4)),
    ("herman/5-ring/rotation", make_herman_system(5), rotation_of_ring(5)),
    # Par pointers: a ring's sorted ports make rotation translate them.
    ("alg2/4-ring/rotation", System(
        LeaderTreeAlgorithm(), Topology(ring(4))
    ), rotation_of_ring(4)),
]


@pytest.mark.parametrize(
    "system, sigma",
    [case[1:] for case in SYMMETRY_CASES + ROTATION_CASES],
    ids=[case[0] for case in SYMMETRY_CASES + ROTATION_CASES],
)
def test_automorphism_apply_equals_transport_configuration(system, sigma):
    automorphism = Automorphism(system, sigma)
    encoding = automorphism.tables.encoding
    configurations = list(system.all_configurations())
    image = automorphism.apply(encoding.encode_batch(configurations))
    assert encoding.decode_batch(image) == [
        transport_configuration(system, configuration, sigma)
        for configuration in configurations
    ]
    # On deterministic tables the table verdict is the synchronous
    # step's, checked at every configuration.
    if expansion_context(automorphism.tables).deterministic:
        check = check_symmetry(system, sigma)
        assert automorphism.equivariant() == bool(check.equivariant.all())


@pytest.mark.parametrize(
    "system, sigma",
    [
        (make_leader_tree_system(path(4)), [1, 0, 2, 3]),
        (make_herman_system(5), [1, 0, 2, 3, 4]),
        (make_token_ring_system(5), [0, 1, 2, 3]),
    ],
    ids=["path-swap", "ring-swap", "short-sigma"],
)
def test_automorphism_rejects_a_non_automorphism(system, sigma):
    with pytest.raises(ModelError, match="not a graph automorphism"):
        Automorphism(system, sigma)


def test_compiled_symmetry_check_rejects_probabilistic_tables():
    system = make_herman_system(3)
    sigma = reflection_of_ring(3)
    with pytest.raises(StateSpaceError):
        check_symmetry(system, sigma)
    with pytest.raises(StateSpaceError):
        for configuration in system.all_configurations():
            is_equivariant_synchronous_step(system, configuration, sigma)


# ----------------------------------------------------------------------
# the theorem experiments make no per-configuration System calls
# ----------------------------------------------------------------------
FORBIDDEN_METHODS = ("is_terminal", "enabled_actions", "enabled_processes")


def test_theorem_experiments_make_no_per_configuration_system_calls(
    monkeypatch,
):
    from repro.algorithms import token_ring

    calls = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for method in FORBIDDEN_METHODS:
        monkeypatch.setattr(
            System, method, spy(method, getattr(System, method))
        )
    # Patch every module that imported the functions by name.
    for original in (
        witnesses.synchronous_successor,
        token_ring.token_holders,
    ):
        wrapper = spy(original.__name__, original)
        for module in list(sys.modules.values()):
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, wrapper)

    assert run_thm2(ring_sizes=(3, 4, 5)).passed
    assert run_thm3().passed
    assert run_thm4(exhaustive_max_nodes=4).passed
    assert calls == []
