"""Round-trip and table-compilation tests for the dense encoding layer.

Every seed algorithm's configurations must survive ``encode → decode``
exactly, and the compiled flat NumPy tables must agree entry-by-entry
with the system they were compiled from: enabled bits, action counts,
and outcome codes/probabilities.
"""

import numpy as np
import pytest

from repro.algorithms.dijkstra_ring import make_dijkstra_system
from repro.algorithms.herman_ring import make_herman_system
from repro.algorithms.leader_tree import make_leader_tree_system
from repro.algorithms.randomized_coloring import (
    make_randomized_coloring_system,
)
from repro.algorithms.token_ring import make_token_ring_system
from repro.core.encoding import StateEncoding, compile_tables
from repro.errors import ModelError
from repro.graphs.generators import path, random_tree, ring, star
from repro.markov.montecarlo import random_configurations
from repro.random_source import RandomSource
from repro.transformer.coin_toss import make_transformed_system


def _system_zoo():
    return [
        ("token-ring-5", make_token_ring_system(5)),
        ("token-ring-6", make_token_ring_system(6)),
        ("leader-path-5", make_leader_tree_system(path(5))),
        ("leader-star-4", make_leader_tree_system(star(4))),
        (
            "leader-random-tree-8",
            make_leader_tree_system(random_tree(8, RandomSource(42))),
        ),
        ("herman-5", make_herman_system(5)),
        ("dijkstra-5", make_dijkstra_system(5)),
        ("coloring-ring-5", make_randomized_coloring_system(ring(5))),
        (
            "trans-token-ring-4",
            make_transformed_system(make_token_ring_system(4)),
        ),
        (
            "trans-leader-path-4",
            make_transformed_system(make_leader_tree_system(path(4))),
        ),
    ]


ZOO = _system_zoo()
ZOO_IDS = [name for name, _ in ZOO]


@pytest.mark.parametrize("name,system", ZOO, ids=ZOO_IDS)
class TestEncodingRoundTrip:
    def test_single_configuration_round_trip(self, name, system):
        encoding = StateEncoding(system)
        rng = RandomSource(3)
        for configuration in random_configurations(system, rng, 30):
            codes = encoding.encode(configuration)
            assert codes.dtype == np.uint32
            assert codes.shape == (system.num_processes,)
            assert encoding.decode(codes) == configuration

    def test_batch_round_trip(self, name, system):
        encoding = StateEncoding(system)
        configurations = random_configurations(system, RandomSource(7), 25)
        matrix = encoding.encode_batch(configurations)
        assert matrix.shape == (25, system.num_processes)
        assert encoding.decode_batch(matrix) == configurations

    def test_codes_are_dense(self, name, system):
        """Codes are a bijection onto [0, |local states|) per process."""
        encoding = StateEncoding(system)
        for process, layout in enumerate(system.layouts):
            size = encoding.num_local_states(process)
            assert size == layout.num_states
            decoded = {
                encoding.decode_local(process, code) for code in range(size)
            }
            assert len(decoded) == size
            for state in decoded:
                assert encoding.encode_local(process, state) < size

    def test_rejects_foreign_states(self, name, system):
        encoding = StateEncoding(system)
        with pytest.raises(ModelError):
            encoding.encode_local(0, ("definitely-not-a-state",))
        with pytest.raises(ModelError):
            encoding.decode_local(0, encoding.num_local_states(0))
        with pytest.raises(ModelError):
            encoding.encode(())


@pytest.mark.parametrize("name,system", ZOO, ids=ZOO_IDS)
class TestCompiledTables:
    def test_enabled_matches_system(self, name, system):
        encoding = StateEncoding(system)
        tables = compile_tables(system)
        assert tables.num_entries == sum(_class_block_sizes(system, tables))
        assert tables.num_entries <= per_process_entries(system)
        configurations = random_configurations(system, RandomSource(11), 30)
        codes = encoding.encode_batch(configurations)
        enabled = tables.enabled(tables.pack(codes))
        for row, configuration in enumerate(configurations):
            assert (
                tuple(np.flatnonzero(enabled[row]))
                == system.enabled_processes(configuration)
            )

    def test_action_rows_match_kernel(self, name, system):
        """Action counts and outcome rows reproduce System's resolution."""
        encoding = StateEncoding(system)
        tables = compile_tables(system)
        configurations = random_configurations(system, RandomSource(13), 15)
        codes = encoding.encode_batch(configurations)
        keys = tables.pack(codes)
        for row, configuration in enumerate(configurations):
            resolved = system.resolved_actions(configuration)
            for process in system.processes:
                key = int(keys[row, process])
                actions = resolved.get(process, ())
                assert tables.action_count[key] == len(actions)
                assert bool(tables.enabled_flat[key]) == bool(actions)
                for action_index, (_, outcomes) in enumerate(actions):
                    table_row = int(tables.action_base[key]) + action_index
                    outcome_codes = [
                        encoding.encode_local(process, state)
                        for _, state in outcomes
                    ]
                    stored = tables.outcome_code[
                        table_row, : len(outcomes)
                    ].tolist()
                    assert stored == outcome_codes
                    probabilities = np.array(
                        [probability for probability, _ in outcomes]
                    )
                    expected_cum = np.cumsum(
                        probabilities / probabilities.sum()
                    )
                    stored_cum = tables.outcome_cum[
                        table_row, : len(outcomes)
                    ]
                    assert np.allclose(stored_cum, expected_cum)
                    assert stored_cum[-1] == 1.0
                    # Padding (if any) can never win an inverse-CDF draw.
                    assert (
                        tables.outcome_cum[table_row, len(outcomes):] > 1.0
                    ).all()

    def test_budget_enforced(self, name, system):
        with pytest.raises(ModelError):
            compile_tables(system, max_entries=1)


def neighborhood_size(system, process):
    """Size of one process's neighborhood product space."""
    size = system.layouts[process].num_states
    for neighbor in system.topology.neighbors(process):
        size *= system.layouts[neighbor].num_states
    return size


def per_process_entries(system):
    """Entries of one neighborhood table per process (no class sharing)."""
    return sum(neighborhood_size(system, p) for p in system.processes)


def _class_block_sizes(system, tables):
    """Block size of each process class, from its first member."""
    first_members = np.unique(tables.process_class, return_index=True)[1]
    return [neighborhood_size(system, p) for p in first_members.tolist()]


def test_mixed_radix_packing_covers_all_keys():
    """Packed keys of the full configuration space cover every class
    block exactly: each process's keys are its class's whole block, and
    the blocks tile the table with no holes or collisions."""
    for system in (make_token_ring_system(6), make_dijkstra_system(6)):
        encoding = StateEncoding(system)
        tables = compile_tables(system)
        codes = encoding.encode_batch(list(system.all_configurations()))
        keys = tables.pack(codes)
        classes = tables.process_class
        sizes = _class_block_sizes(system, tables)
        blocks = {}
        for process in system.processes:
            start = int(tables.key_offset[process])
            block = (start, start + sizes[classes[process]])
            assert np.array_equal(
                np.unique(keys[:, process]), np.arange(*block)
            )
            assert blocks.setdefault(int(classes[process]), block) == block
        # Sorted class blocks abut from 0 to num_entries: no holes, no
        # overlaps.
        bounds = sorted(blocks.values())
        assert bounds[0][0] == 0 and bounds[-1][1] == tables.num_entries
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert len(blocks) < system.num_processes
