"""Process-class tables against the per-process reference compiler.

:func:`repro.core.encoding.compile_tables` resolves one neighborhood
block per class of look-alike processes (:func:`process_classes`) and
points every class member at it through ``key_offset``.  The reference
below is the compiler that resolved every neighborhood of every process
on its own; for every process ``p`` and local neighborhood ``i`` the
class tables must read, through ``key_offset[p] + i``, exactly the
enabled bit, action count and outcome rows (codes, raw probabilities,
cumulative probabilities, affine forms) the reference stores at
``p``'s own block.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conformance_registry import CONFORMANCE_SYSTEMS
from repro.algorithms.center_finding import make_center_finding_system
from repro.algorithms.coloring import make_coloring_system
from repro.algorithms.dijkstra_ring import make_dijkstra_system
from repro.algorithms.herman_ring import make_herman_system
from repro.algorithms.herman_variants import (
    make_herman_random_bit_system,
    make_herman_random_pass_system,
    make_herman_speed_reducer2_system,
    make_herman_speed_reducer_system,
)
from repro.algorithms.leader_tree import make_leader_tree_system
from repro.algorithms.randomized_coloring import (
    make_randomized_coloring_system,
)
from repro.algorithms.token_ring import make_token_ring_system
from repro.core.actions import deterministic_action
from repro.core.algorithm import Algorithm
from repro.core.encoding import (
    StateEncoding,
    _check_budget,
    compile_tables,
    process_classes,
)
from repro.core.parametric import affine_terms
from repro.core.system import System
from repro.core.topology import Topology
from repro.core.variables import VariableLayout, VarSpec
from repro.errors import ModelError
from repro.graphs.generators import complete, ring
from repro.graphs.graph import Graph
from repro.graphs.prufer import prufer_decode
from repro.markov.batch import EnabledCountLegitimacy
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.schedulers.samplers import CentralRandomizedSampler
from repro.transformer.coin_toss import make_transformed_system

from test_encoding import (
    ZOO,
    ZOO_IDS,
    neighborhood_size,
    per_process_entries,
)


@dataclass
class ReferenceTables:
    """Per-process tables: process ``p``'s block starts at ``offset[p]``."""

    neighbor_index: np.ndarray
    neighbor_weight: np.ndarray
    offset: np.ndarray
    enabled: np.ndarray
    action_count: np.ndarray
    action_base: np.ndarray
    outcome_cum: np.ndarray
    outcome_code: np.ndarray
    outcome_prob: np.ndarray
    param_names: tuple[str, ...]
    outcome_prob_const: np.ndarray | None
    outcome_prob_coeff: np.ndarray | None


def per_process_tables(system, encoding):
    """Resolve every neighborhood of every process through the system."""
    topology = system.topology
    num_processes = system.num_processes
    neighbors = [tuple(topology.neighbors(p)) for p in system.processes]
    width = 1 + max(len(nbrs) for nbrs in neighbors)
    neighbor_index = np.zeros((num_processes, width), dtype=np.int64)
    neighbor_weight = np.zeros((num_processes, width), dtype=np.int64)
    offset = np.zeros(num_processes, dtype=np.int64)
    enabled, counts, bases = [], [], []
    rows = []  # (cum, codes, probs, affine terms) per action row
    for process in range(num_processes):
        members = (process, *neighbors[process])
        sizes = [encoding.num_local_states(q) for q in members]
        weight = 1
        for position in range(len(members) - 1, -1, -1):
            neighbor_index[process, position] = members[position]
            neighbor_weight[process, position] = weight
            weight *= sizes[position]
        offset[process] = len(enabled)
        for member_codes in product(*(range(size) for size in sizes)):
            key = tuple(
                encoding.decode_local(member, code)
                for member, code in zip(members, member_codes)
            )
            actions = system.resolve_neighborhood(process, key)
            enabled.append(bool(actions))
            counts.append(len(actions))
            bases.append(len(rows) if actions else 0)
            for _, outcomes in actions:
                probabilities = np.array([p for p, _ in outcomes], dtype=float)
                cum = np.cumsum(probabilities / probabilities.sum())
                cum[-1] = 1.0
                rows.append(
                    (
                        cum,
                        [encoding.encode_local(process, s) for _, s in outcomes],
                        [float(p) for p in probabilities],
                        [affine_terms(p) for p, _ in outcomes],
                    )
                )
    width_out = max((len(row[0]) for row in rows), default=1)
    num_rows = max(len(rows), 1)
    outcome_cum = np.full((num_rows, width_out), 2.0)
    outcome_code = np.zeros((num_rows, width_out), dtype=np.uint32)
    outcome_prob = np.zeros((num_rows, width_out))
    names = sorted(
        {
            name
            for row in rows
            for term in row[3]
            if term is not None
            for name, _ in term[1]
        }
    )
    const = coeff = None
    for index, (cum, codes, probs, _) in enumerate(rows):
        outcome_cum[index, : len(cum)] = cum
        outcome_code[index, : len(codes)] = codes
        outcome_prob[index, : len(probs)] = probs
    if names:
        const = outcome_prob.copy()
        coeff = np.zeros((num_rows, width_out, len(names)))
        for index, (_, _, _, terms) in enumerate(rows):
            for slot, term in enumerate(terms):
                if term is None:
                    continue
                const[index, slot] = term[0]
                for name, coefficient in term[1]:
                    coeff[index, slot, names.index(name)] = coefficient
    return ReferenceTables(
        neighbor_index,
        neighbor_weight,
        offset,
        np.array(enabled, dtype=bool),
        np.array(counts, dtype=np.int64),
        np.array(bases, dtype=np.int64),
        outcome_cum,
        outcome_code,
        outcome_prob,
        tuple(names),
        const,
        coeff,
    )


def assert_matches_reference(system):
    """Class tables == per-process reference at every ``(p, i)``."""
    encoding = StateEncoding(system)
    tables = compile_tables(system)
    reference = per_process_tables(system, encoding)
    assert np.array_equal(tables.neighbor_index, reference.neighbor_index)
    assert np.array_equal(tables.neighbor_weight, reference.neighbor_weight)
    sizes = [neighborhood_size(system, p) for p in system.processes]
    # Reference blocks are contiguous in process order, so reference key
    # ``k`` is neighborhood ``i`` of process ``p`` at position ``k``.
    keys = np.concatenate(
        [tables.key_offset[p] + np.arange(size) for p, size in enumerate(sizes)]
    )
    assert keys.shape == reference.enabled.shape
    assert np.array_equal(tables.enabled_flat[keys], reference.enabled)
    assert np.array_equal(tables.action_count[keys], reference.action_count)
    assert tables.param_names == reference.param_names
    for choice in range(int(reference.action_count.max(initial=0))):
        has = np.flatnonzero(reference.action_count > choice)
        rows = tables.action_base[keys[has]] + choice
        reference_rows = reference.action_base[has] + choice
        for field in ("outcome_code", "outcome_prob", "outcome_cum"):
            assert np.array_equal(
                getattr(tables, field)[rows],
                getattr(reference, field)[reference_rows],
            ), field
        if tables.param_names:
            for field in ("outcome_prob_const", "outcome_prob_coeff"):
                assert np.array_equal(
                    getattr(tables, field)[rows],
                    getattr(reference, field)[reference_rows],
                ), field
    return tables


@pytest.mark.parametrize("name,system", ZOO, ids=ZOO_IDS)
def test_zoo_matches_reference(name, system):
    assert_matches_reference(system)


@pytest.mark.parametrize(
    "entry", CONFORMANCE_SYSTEMS, ids=[e.name for e in CONFORMANCE_SYSTEMS]
)
def test_conformance_systems_match_reference(entry):
    assert_matches_reference(entry.build())


@pytest.mark.parametrize("size", [20, 30, 40, 50])
def test_transformed_rings_match_reference(size):
    system = make_transformed_system(make_token_ring_system(size))
    tables = assert_matches_reference(system)
    assert tables.num_entries < per_process_entries(system)


def test_dijkstra_ring_matches_reference():
    system = make_dijkstra_system(6)
    tables = assert_matches_reference(system)
    classes = tables.process_class
    # Only the bottom process carries is_bottom=True.
    assert np.count_nonzero(classes == classes[0]) == 1
    assert tables.num_entries < per_process_entries(system)


# ----------------------------------------------------------------------
# the class key: exactly what a view observes
# ----------------------------------------------------------------------
class _ValueEcho(Algorithm):
    """Enabled exactly when its variable and its constant differ in type,
    so merging constants or domains that are equal but differently typed
    would give a process another's table."""

    name = "value-echo"

    def __init__(self, values, domains=None):
        self._values = values
        self._domains = domains

    def layout(self, topology, process):
        domain = self._domains[process] if self._domains else (0, 1)
        return VariableLayout((VarSpec("x", domain),))

    def constants(self, topology, process):
        return {"v": self._values[process]}

    def actions(self):
        return (
            deterministic_action(
                "ECHO",
                lambda view: type(view.get("x")) is not type(view.const("v")),
                lambda view: view.set("x", view.get("x")),
            ),
        )


def _echo_system(values, domains=None, graph=None):
    graph = graph or Graph(len(values), [(0, 1)])
    return System(_ValueEcho(values, domains), Topology(graph))


@pytest.mark.parametrize(
    "values,shared",
    [
        ((0, 0), True),
        ((0, False), False),
        ((0, 0.0), False),
        ((0.0, -0.0), False),
        ((1.5, 1.5), True),
        (((0, 1), (0, 1)), True),
        (((0, 1), (0, True)), False),
        ((frozenset({0}), frozenset({False})), False),
    ],
)
def test_constants_compare_type_strictly(values, shared):
    # Two processes joined by one edge see identical views, so only the
    # constants can split them.
    system = _echo_system(values)
    classes = process_classes(system)
    assert (classes[0] == classes[1]) == shared
    assert_matches_reference(system)


def test_unhashable_constant_is_its_own_class():
    classes = process_classes(_echo_system([[0], [0]]))
    assert classes.tolist() == [0, 1]


def test_layouts_compare_type_strictly():
    system = _echo_system(
        [0, 0, 0, 0],
        domains=[(0, 1), (False, True), (0, 1), (0, 1)],
        graph=ring(4),
    )
    classes = process_classes(system)
    # Process 1's own layout differs; 0 and 2 see it as a neighbor.
    assert classes[1] not in (classes[0], classes[2], classes[3])
    assert classes[0] != classes[3] and classes[2] != classes[3]
    assert_matches_reference(system)


class _Level(int):
    """An int subclass: equal to its int, but with no canonical form."""


def test_domain_without_canonical_form_is_its_own_class():
    levels = (_Level(0), _Level(1))
    system = _echo_system([0, 0], domains=[levels, levels])
    assert process_classes(system).tolist() == [0, 1]
    assert_matches_reference(system)


class _NeighborDegreeProbe(Algorithm):
    """Flips its bit when its first neighbor has degree 3."""

    name = "neighbor-degree-probe"

    def layout(self, topology, process):
        return VariableLayout((VarSpec("x", (0, 1)),))

    def actions(self):
        return (
            deterministic_action(
                "FLIP",
                lambda view: view.nbr_degree(0) == 3,
                lambda view: view.set("x", 1 - view.get("x")),
            ),
        )


def test_neighbor_degree_splits_classes():
    # Leaves 0 and 4 agree on everything but their neighbor's degree:
    # both sit at local index 0 of a neighbor with the same layout, of
    # degree 3 (node 1) and 2 (node 5).
    graph = Graph(7, [(0, 1), (1, 2), (1, 3), (3, 6), (4, 5), (5, 6)])
    system = System(_NeighborDegreeProbe(), Topology(graph))
    classes = process_classes(system)
    assert classes[0] != classes[4]
    assert_matches_reference(system)


def test_classes_follow_degree_and_mirror_index():
    # On a ring with sorted neighbor lists the inner processes look
    # alike; the ones next to the wrap-around edge see another
    # my_index_at numbering.
    system = make_coloring_system(ring(6))
    classes = process_classes(system)
    topology = system.topology
    for p in system.processes:
        for q in system.processes:
            same_view = (
                topology.degree(p) == topology.degree(q)
                and [topology.degree(n) for n in topology.neighbors(p)]
                == [topology.degree(n) for n in topology.neighbors(q)]
                and [
                    topology.mirror_index(p, k)
                    for k in range(topology.degree(p))
                ]
                == [
                    topology.mirror_index(q, k)
                    for k in range(topology.degree(q))
                ]
            )
            assert (classes[p] == classes[q]) == same_view
    assert len(set(classes.tolist())) < system.num_processes


# ----------------------------------------------------------------------
# the budget counts class entries
# ----------------------------------------------------------------------
def _dijkstra_point(system):
    return SweepPointSpec(
        system=system,
        sampler=CentralRandomizedSampler(),
        legitimate=lambda c: len(system.enabled_processes(c)) == 1,
        trials=20,
        max_steps=10_000,
        seed=3,
        batch_legitimate=EnabledCountLegitimacy(1),
    )


class TestClassBudget:
    SYSTEM = make_dijkstra_system(6)

    def sizes(self):
        tables = compile_tables(self.SYSTEM)
        classes = int(tables.process_class.max()) + 1
        per_process = per_process_entries(self.SYSTEM)
        assert tables.num_entries < per_process
        return tables.num_entries, classes, per_process

    def test_auto_fuses_when_class_entries_fit(self):
        class_entries, _, per_process = self.sizes()
        budget = (class_entries + per_process) // 2
        runner = SweepRunner(engine="auto", table_budget=budget)
        (result,) = runner.run([_dijkstra_point(self.SYSTEM)])
        assert runner.last_plan[0].engine == "fused"
        assert result.converged == 20

    def test_auto_falls_back_below_class_count(self):
        _, classes, _ = self.sizes()
        runner = SweepRunner(engine="auto", table_budget=classes - 1)
        runner.run([_dijkstra_point(self.SYSTEM)])
        assert runner.last_plan[0].engine == "scalar"

    def test_fused_demand_still_raises(self):
        class_entries, classes, _ = self.sizes()
        runner = SweepRunner(engine="fused", table_budget=class_entries - 1)
        with pytest.raises(Exception, match="budget"):
            runner.run([_dijkstra_point(self.SYSTEM)])

    def test_huge_neighborhood_space_raises_the_budget_error(self):
        # 25^25 entries per class: far past int64, still a ModelError.
        system = make_coloring_system(complete(25))
        with pytest.raises(ModelError, match="budget"):
            compile_tables(system)

    def test_key_space_past_uint32_raises(self):
        # Checked on the totals alone, so nothing is allocated.
        _check_budget(2**32 - 1, 3, 2**40)
        with pytest.raises(ModelError, match="uint32 key space"):
            _check_budget(2**32, 3, 2**40)
        with pytest.raises(ModelError, match="uint32 key space"):
            _check_budget(5 * 2**40, 3, 2**50)

    def test_error_reports_class_entries_and_count(self):
        class_entries, classes, _ = self.sizes()
        with pytest.raises(ModelError) as error:
            compile_tables(self.SYSTEM, max_entries=class_entries - 1)
        message = str(error.value)
        assert f"{class_entries} entries" in message
        assert f"{classes} process classes" in message


# ----------------------------------------------------------------------
# property: generated systems agree with the reference
# ----------------------------------------------------------------------
@st.composite
def prufer_trees(draw, min_nodes=3, max_nodes=6):
    nodes = draw(st.integers(min_nodes, max_nodes))
    sequence = draw(
        st.lists(
            st.integers(0, nodes - 1), min_size=nodes - 2, max_size=nodes - 2
        )
    )
    return prufer_decode(sequence, nodes)


@st.composite
def connected_graphs(draw):
    """A Prüfer tree plus extra edges, maximum degree at most 3."""
    tree = draw(prufer_trees(max_nodes=5))
    edges = set(tree.edges)
    candidates = [
        (u, v)
        for u in range(tree.num_nodes)
        for v in range(u + 1, tree.num_nodes)
        if (u, v) not in edges
    ]
    extra = (
        draw(st.lists(st.sampled_from(candidates), max_size=2))
        if candidates
        else []
    )
    for u, v in extra:
        if max(sum(node in edge for edge in edges) for node in (u, v)) < 3:
            edges.add((u, v))
    return Graph(tree.num_nodes, sorted(edges))


TREE_ALGORITHMS = [
    make_leader_tree_system,
    make_center_finding_system,
]
#: Herman's protocols need odd rings; the rest take any size.
ODD_RING_ALGORITHMS = [
    make_herman_system,
    lambda n: make_herman_random_bit_system(n, bias=0.65),
    lambda n: make_herman_random_pass_system(n, bias=0.35),
    make_herman_speed_reducer_system,
    make_herman_speed_reducer2_system,
]
RING_ALGORITHMS = [make_dijkstra_system]
GRAPH_ALGORITHMS = [make_coloring_system, make_randomized_coloring_system]

#: (system factory, topology strategy) — drawn uniformly, so every
#: algorithm shows up in a bounded run.
FAMILIES = (
    [(make, prufer_trees(max_nodes=5)) for make in TREE_ALGORITHMS]
    + [(make, st.sampled_from([3, 5, 7, 9])) for make in ODD_RING_ALGORITHMS]
    + [(make, st.integers(3, 7)) for make in RING_ALGORITHMS]
    + [(make, connected_graphs()) for make in GRAPH_ALGORITHMS]
)


@st.composite
def systems(draw):
    make, topologies = draw(st.sampled_from(FAMILIES))
    return make(draw(topologies))


@settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(systems())
def test_generated_systems_match_reference(system):
    event(system.algorithm.name)
    tables = assert_matches_reference(system)
    assert np.array_equal(tables.process_class, process_classes(system))
    if "is_bottom" in system.constants(0):
        bottom = tables.process_class[0]
        assert np.count_nonzero(tables.process_class == bottom) == 1
