"""Shared fixtures: small systems used across the test-suite, plus the
system/sampler registry behind the cross-engine conformance matrix
(``tests/conformance_registry.py``, consumed by
``tests/test_engine_conformance.py`` — run with ``pytest -m
conformance``)."""

from __future__ import annotations

import pytest

import conformance_registry
from repro.algorithms.coloring import make_coloring_system
from repro.algorithms.leader_tree import make_leader_tree_system
from repro.algorithms.token_ring import make_token_ring_system
from repro.algorithms.two_process import make_two_process_system
from repro.graphs.generators import complete, figure3_chain, path, ring, star
from repro.random_source import RandomSource


@pytest.fixture
def worker_starts(monkeypatch) -> list:
    """The worker processes the campaign runner creates, in order
    (``_spawn_context()``'s ``Process`` wrapped to record each)."""
    import repro.campaign.runner as runner

    context = runner._spawn_context()
    created: list = []

    class Recording:
        def __getattr__(self, name):
            return getattr(context, name)

        def Process(self, *args, **kwargs):
            process = context.Process(*args, **kwargs)
            created.append(process)
            return process

    monkeypatch.setattr(runner, "_spawn_context", Recording)
    return created


@pytest.fixture
def rng() -> RandomSource:
    return RandomSource(42)


@pytest.fixture
def ring5_system():
    """Algorithm 1 on a 5-ring (m_5 = 2, 32 configurations)."""
    return make_token_ring_system(5)


@pytest.fixture
def ring6_system():
    """Algorithm 1 on the paper's 6-ring (m_6 = 4, 4096 configurations)."""
    return make_token_ring_system(6)


@pytest.fixture
def chain4_system():
    """Algorithm 2 on the Figure 3 chain (36 configurations)."""
    return make_leader_tree_system(figure3_chain())


@pytest.fixture
def star3_system():
    """Algorithm 2 on the star K1,3."""
    return make_leader_tree_system(star(3))


@pytest.fixture
def two_process_system():
    """Algorithm 3 (4 configurations)."""
    return make_two_process_system()


@pytest.fixture
def k2_coloring_system():
    """Greedy coloring on a single edge (the synchronous-livelock demo)."""
    return make_coloring_system(complete(2))


@pytest.fixture
def path4_graph():
    return path(4)


@pytest.fixture
def ring6_graph():
    return ring(6)


@pytest.fixture
def conformance():
    """The shared conformance registry module (systems, samplers,
    matrix, KS helpers) — see ``tests/conformance_registry.py``."""
    return conformance_registry
