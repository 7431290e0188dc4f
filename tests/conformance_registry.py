"""The shared system/sampler registry behind the conformance matrix.

One fixture table — algorithms × topologies × schedulers, with
per-combination execution modes — consumed by
``tests/test_engine_conformance.py`` (``pytest -m conformance``) and
exposed through the ``conformance_registry`` fixture in
``tests/conftest.py``.  Future engine PRs extend *this* table instead
of writing per-PR ad-hoc equivalence suites.

(This lives in its own module, not in ``conftest.py`` itself, because
test modules cannot reliably ``import conftest`` — the benchmarks
directory has a ``conftest.py`` of its own that wins the name when the
whole repository is collected.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.algorithms.coloring import ProperColoringSpec, make_coloring_system
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
from repro.algorithms.israeli_jalfon import (
    IJMergedSpec,
    make_israeli_jalfon_system,
)
from repro.algorithms.leader_tree import TreeLeaderSpec, make_leader_tree_system
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.core.actions import Action, Outcome
from repro.core.algorithm import Algorithm
from repro.core.system import System
from repro.core.topology import Topology
from repro.core.variables import VariableLayout, VarSpec
from repro.graphs.generators import path, random_tree, ring, star
from repro.markov.batch import BatchLegitimacy, EnabledCountLegitimacy
from repro.random_source import RandomSource
from repro.schedulers.samplers import (
    BernoulliSampler,
    CentralRandomizedSampler,
    DistributedRandomizedSampler,
    SynchronousSampler,
)
from repro.stabilization.faults import FaultPlan
from repro.transformer.coin_toss import TransformedSpec, make_transformed_system

__all__ = [
    "ConformanceSystem",
    "TwoActionAlgorithm",
    "make_two_action_system",
    "CONFORMANCE_SAMPLERS",
    "CONFORMANCE_SYSTEMS",
    "conformance_system",
    "conformance_entry",
    "conformance_fault_plan",
    "conformance_matrix",
    "ks_statistic",
    "ks_bound",
]


@dataclass(frozen=True)
class ConformanceSystem:
    """One algorithm/topology cell of the conformance matrix.

    ``legitimate`` builds the scalar predicate for a built system;
    ``batch_legitimate`` is its compiled counterpart (``None`` exercises
    the decoding fallback).  ``sampler_modes`` maps sampler keys to the
    equivalence mode the engines are held to:

    * ``"ks"`` — stochastic dynamics: every engine must converge every
      trial and the per-trial stabilization-time distributions must
      agree under a seeded two-sample Kolmogorov–Smirnov bound;
    * ``"exact"`` — deterministic dynamics (deterministic algorithm
      under the synchronous sampler) run from *explicit* initial
      configurations, so every engine must produce identical results,
      converged or censored.
    """

    name: str
    algorithm: str
    topology: str
    build: Callable[[], System]
    legitimate: Callable[[System], Callable]
    batch_legitimate: BatchLegitimacy | None
    sampler_modes: tuple[tuple[str, str], ...]
    trials: int = 150
    max_steps: int = 30_000


def _spec_predicate(spec_factory):
    def bind(system):
        spec = spec_factory()
        return lambda configuration: spec.legitimate(system, configuration)

    return bind


def _transformed_token_predicate(system):
    # A structurally equal base system is enough: TransformedSpec only
    # uses it to project and evaluate the base legitimacy predicate.
    base = make_token_ring_system(5)
    spec = TransformedSpec(TokenCirculationSpec(), base)
    return lambda configuration: spec.legitimate(system, configuration)


CONFORMANCE_SAMPLERS: dict[str, Callable[[], object]] = {
    "synchronous": SynchronousSampler,
    "central": CentralRandomizedSampler,
    "distributed": DistributedRandomizedSampler,
    "bernoulli": lambda: BernoulliSampler(0.7),
}


CONFORMANCE_SYSTEMS: tuple[ConformanceSystem, ...] = (
    ConformanceSystem(
        name="token-ring5",
        algorithm="token-ring",
        topology="ring",
        build=lambda: make_token_ring_system(5),
        legitimate=_spec_predicate(TokenCirculationSpec),
        batch_legitimate=EnabledCountLegitimacy(1),
        sampler_modes=(
            ("central", "ks"),
            ("distributed", "ks"),
            ("bernoulli", "ks"),
            ("synchronous", "exact"),
        ),
    ),
    ConformanceSystem(
        name="trans-token-ring5",
        algorithm="trans(token-ring)",
        topology="ring",
        build=lambda: make_transformed_system(make_token_ring_system(5)),
        legitimate=_transformed_token_predicate,
        batch_legitimate=EnabledCountLegitimacy(1),
        sampler_modes=(
            ("synchronous", "ks"),
            ("central", "ks"),
        ),
    ),
    ConformanceSystem(
        name="herman-ring5",
        algorithm="herman",
        topology="ring",
        build=lambda: make_herman_system(5),
        legitimate=_spec_predicate(HermanSingleTokenSpec),
        # NOT EnabledCountLegitimacy(1): a Herman process is *always*
        # enabled (T or NT covers every neighborhood), so token count
        # and enabled count are different things here — the decoding
        # fallback is the only correct compiled legitimacy.
        batch_legitimate=None,
        sampler_modes=(
            ("synchronous", "ks"),
            ("central", "ks"),
            ("distributed", "ks"),
            ("bernoulli", "ks"),
        ),
    ),
    ConformanceSystem(
        name="herman-rb-ring5",
        algorithm="herman-random-bit",
        topology="ring",
        build=lambda: make_herman_random_bit_system(5, bias=0.65),
        legitimate=_spec_predicate(HermanSingleTokenSpec),
        # Like classic Herman: every process is always enabled, so the
        # decoding fallback is the only correct compiled legitimacy.
        batch_legitimate=None,
        sampler_modes=(
            ("synchronous", "ks"),
            ("central", "ks"),
            ("distributed", "ks"),
            ("bernoulli", "ks"),
        ),
    ),
    ConformanceSystem(
        name="herman-rp-ring5",
        algorithm="herman-random-pass",
        topology="ring",
        build=lambda: make_herman_random_pass_system(5, bias=0.35),
        legitimate=_spec_predicate(HermanSingleTokenSpec),
        batch_legitimate=None,
        sampler_modes=(
            ("synchronous", "ks"),
            ("central", "ks"),
            ("distributed", "ks"),
            ("bernoulli", "ks"),
        ),
    ),
    ConformanceSystem(
        name="herman-sr-ring5",
        algorithm="herman-speed-reducer",
        topology="ring",
        build=lambda: make_herman_speed_reducer_system(
            5, bias=0.7, wake=0.3
        ),
        legitimate=_spec_predicate(HermanSingleTokenSpec),
        batch_legitimate=None,
        sampler_modes=(
            ("synchronous", "ks"),
            ("central", "ks"),
            ("distributed", "ks"),
        ),
    ),
    ConformanceSystem(
        name="herman-sr2-ring5",
        algorithm="herman-speed-reducer2",
        topology="ring",
        build=lambda: make_herman_speed_reducer2_system(
            5, bias=0.6, wake=0.4, slip=0.2
        ),
        legitimate=_spec_predicate(HermanSingleTokenSpec),
        batch_legitimate=None,
        sampler_modes=(
            ("synchronous", "ks"),
            ("distributed", "ks"),
            ("bernoulli", "ks"),
        ),
    ),
    ConformanceSystem(
        name="israeli-jalfon-ring6",
        algorithm="israeli-jalfon",
        topology="ring",
        build=lambda: make_israeli_jalfon_system(6),
        legitimate=_spec_predicate(IJMergedSpec),
        batch_legitimate=EnabledCountLegitimacy(0),
        sampler_modes=(
            ("central", "ks"),
            ("distributed", "ks"),
            ("bernoulli", "ks"),
            # Lockstep wall tokens rotate forever: deterministic livelock.
            ("synchronous", "exact"),
        ),
    ),
    ConformanceSystem(
        name="leader-path5",
        algorithm="leader-tree",
        topology="chain",
        build=lambda: make_leader_tree_system(path(5)),
        legitimate=_spec_predicate(TreeLeaderSpec),
        batch_legitimate=EnabledCountLegitimacy(0),
        sampler_modes=(
            ("central", "ks"),
            ("distributed", "ks"),
            ("bernoulli", "ks"),
            # Figure 3's oscillation: deterministic synchronous livelock.
            ("synchronous", "exact"),
        ),
    ),
    ConformanceSystem(
        name="leader-star4",
        algorithm="leader-tree",
        topology="star",
        build=lambda: make_leader_tree_system(star(4)),
        legitimate=_spec_predicate(TreeLeaderSpec),
        batch_legitimate=EnabledCountLegitimacy(0),
        sampler_modes=(
            ("central", "ks"),
            ("distributed", "ks"),
        ),
    ),
    ConformanceSystem(
        name="leader-tree7",
        algorithm="leader-tree",
        topology="tree",
        build=lambda: make_leader_tree_system(
            random_tree(7, RandomSource(3))
        ),
        # No compiled counterpart on purpose: exercises the decoding
        # legitimacy fallback through every engine.
        legitimate=_spec_predicate(TreeLeaderSpec),
        batch_legitimate=None,
        sampler_modes=(
            ("distributed", "ks"),
            ("bernoulli", "ks"),
        ),
    ),
    ConformanceSystem(
        name="coloring-ring5",
        algorithm="coloring",
        topology="ring",
        build=lambda: make_coloring_system(ring(5)),
        legitimate=_spec_predicate(ProperColoringSpec),
        batch_legitimate=EnabledCountLegitimacy(0),
        sampler_modes=(
            ("central", "ks"),
            ("distributed", "ks"),
            ("bernoulli", "ks"),
            ("synchronous", "exact"),
        ),
    ),
    ConformanceSystem(
        name="coloring-chain5",
        algorithm="coloring",
        topology="chain",
        build=lambda: make_coloring_system(path(5)),
        legitimate=_spec_predicate(ProperColoringSpec),
        batch_legitimate=EnabledCountLegitimacy(0),
        sampler_modes=(
            ("distributed", "ks"),
            ("bernoulli", "ks"),
        ),
    ),
    ConformanceSystem(
        name="coloring-star4",
        algorithm="coloring",
        topology="star",
        build=lambda: make_coloring_system(star(4)),
        legitimate=_spec_predicate(ProperColoringSpec),
        batch_legitimate=EnabledCountLegitimacy(0),
        sampler_modes=(
            ("central", "ks"),
            ("synchronous", "exact"),
        ),
    ),
    ConformanceSystem(
        name="coloring-tree6",
        algorithm="coloring",
        topology="tree",
        build=lambda: make_coloring_system(
            random_tree(6, RandomSource(5))
        ),
        legitimate=_spec_predicate(ProperColoringSpec),
        batch_legitimate=EnabledCountLegitimacy(0),
        sampler_modes=(
            ("central", "ks"),
            ("synchronous", "exact"),
        ),
    ),
)


def _step(amount: int):
    def statement(view) -> None:
        view.set("x", (view.get("x") + amount) % 3)

    return statement


def _matches_neighbor(view) -> bool:
    return view.get("x") == view.nbr(0, "x")


class TwoActionAlgorithm(Algorithm):
    """Cells with two simultaneously enabled actions (a test fixture).

    Every registry system above has at most one enabled action per
    neighborhood, so the uniform action choice is never exercised by
    them.  Here ``x ∈ {0, 1, 2}``; while ``x`` equals the first
    neighbor's value two actions are enabled — a coin flip to ``x + 1``
    or ``x + 2`` (probabilities 1/4, 3/4) and a deterministic step to
    ``x + 1`` — and otherwise ``x = 2`` alone enables a reset to 0.
    """

    name = "two-action-fixture"

    def layout(self, topology: Topology, process: int) -> VariableLayout:
        return VariableLayout((VarSpec("x", (0, 1, 2)),))

    def actions(self) -> tuple[Action, ...]:
        return (
            Action(
                "flip",
                _matches_neighbor,
                lambda view: (Outcome(0.25, _step(1)), Outcome(0.75, _step(2))),
            ),
            Action(
                "step",
                _matches_neighbor,
                lambda view: (Outcome(1.0, _step(1)),),
            ),
            Action(
                "reset",
                lambda view: view.get("x") == 2 and not _matches_neighbor(view),
                lambda view: (Outcome(1.0, _step(1)),),
            ),
        )

    def is_probabilistic(self) -> bool:
        return True


def make_two_action_system(size: int = 4) -> System:
    """:class:`TwoActionAlgorithm` on a ring of ``size`` processes."""
    return System(TwoActionAlgorithm(), Topology(ring(size)))


@lru_cache(maxsize=None)
def conformance_system(name: str) -> System:
    """Build (once) the system of one registry entry."""
    for entry in CONFORMANCE_SYSTEMS:
        if entry.name == name:
            return entry.build()
    raise KeyError(f"unknown conformance system {name!r}")


def conformance_entry(name: str) -> ConformanceSystem:
    """Registry entry by name."""
    for entry in CONFORMANCE_SYSTEMS:
        if entry.name == name:
            return entry
    raise KeyError(f"unknown conformance system {name!r}")


def conformance_fault_plan(system: System, mode: str) -> FaultPlan:
    """The fault axis: one seeded transient corruption per matrix cell.

    ``"ks"`` cells converge on every engine, so the fault strikes *at
    convergence* — the canonical self-stabilization scenario — and the
    engines are compared on recovery as well as total stabilization
    times.  ``"exact"`` cells are deterministic (and may livelock, so an
    at-convergence trigger would never fire): the fault strikes at a
    fixed step instead, and the engines must stay bit-identical through
    the corruption.
    """
    processes = min(2, system.num_processes)
    if mode == "exact":
        return FaultPlan(
            processes=processes, step=7, mode="adversarial-reset", seed=1312
        )
    return FaultPlan(processes=processes, step=None, mode="random", seed=1312)


def conformance_matrix() -> list[tuple[str, str, str]]:
    """Every valid ``(system, sampler, mode)`` cell of the matrix."""
    return [
        (entry.name, sampler_key, mode)
        for entry in CONFORMANCE_SYSTEMS
        for sampler_key, mode in entry.sampler_modes
    ]


def ks_statistic(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (sup CDF distance)."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_bound(n: int, m: int, confidence: float = 2.0) -> float:
    """KS acceptance threshold ``c · sqrt((n + m) / (n m))``.

    ``confidence=2.0`` corresponds to α ≈ 0.0007 — runs are seeded, so
    this is a deterministic regression bound, not a flaky gate.
    """
    return confidence * ((n + m) / (n * m)) ** 0.5
