"""Algorithm 1 — weak-stabilizing token circulation on anonymous rings.

Section 3.1 of the paper, after Beauquier, Gradinariu and Johnen [3].
Every process p of a unidirectional ring holds one counter
``dt_p ∈ [0, m_N)`` (``m_N`` = smallest non-divisor of N) and one action::

    A :: Token(p) → PassToken_p

with ``Token(p) ≡ dt_p ≠ (dt_Pred(p) + 1) mod m_N`` and ``PassToken_p``
setting ``dt_p ← (dt_Pred(p) + 1) mod m_N``.  A process *holds a token*
iff ``Token(p)``; executing the action passes the token to the successor.

Facts reproduced by the test-suite / experiments:

* Lemma 4 — every configuration has at least one token (m_N ∤ N);
* Lemma 5 — possible convergence to the single-token set ``LCSET``;
* Lemma 6 — strong closure: from a single-token configuration the unique
  enabled process is the holder and the token moves to its successor;
* Theorem 2 — deterministic weak stabilization under the distributed
  (strongly fair) scheduler;
* Theorem 6 — a strongly fair execution with two alternating tokens never
  converges, so the algorithm is *not* deterministically self-stabilizing.
"""

from __future__ import annotations

from repro.core.actions import Action, deterministic_action
from repro.core.algorithm import Algorithm
from repro.core.configuration import Configuration
from repro.core.system import System
from repro.core.topology import OrientedRing, Topology
from repro.core.variables import VariableLayout, VarSpec
from repro.core.view import View
from repro.errors import ModelError, TopologyError
from repro.graphs.generators import ring as make_ring
from repro.algorithms.number_theory import smallest_non_divisor
from repro.markov.batch import BatchLegitimacy, EnabledCountLegitimacy
from repro.stabilization.specification import Specification
from repro.stabilization.statespace import StateSpace, mask_to_subset

__all__ = [
    "TokenRingAlgorithm",
    "TokenCirculationSpec",
    "make_token_ring_system",
    "token_holders",
    "count_tokens",
    "single_token_configuration",
    "two_token_configuration",
]


def _token_guard(view: View) -> bool:
    """``Token(p) ≡ dt_p ≠ (dt_Pred(p) + 1) mod m_N``."""
    modulus = view.const("modulus")
    predecessor_value = view.nbr(view.const("pred"), "dt")
    return view.get("dt") != (predecessor_value + 1) % modulus


def _pass_token(view: View) -> None:
    """``PassToken_p: dt_p ← (dt_Pred(p) + 1) mod m_N``."""
    modulus = view.const("modulus")
    predecessor_value = view.nbr(view.const("pred"), "dt")
    view.set("dt", (predecessor_value + 1) % modulus)


class TokenRingAlgorithm(Algorithm):
    """The m_N-counter token-circulation protocol (paper's Algorithm 1).

    ``modulus`` defaults to the paper's ``m_N`` (smallest non-divisor of
    N).  Overriding it exists to *demonstrate the memory lower bound* of
    [3]: any modulus dividing N admits token-free configurations (Lemma 4
    fails), which are illegitimate deadlocks — the algorithm is then not
    even weak-stabilizing.  The checker reproduces this in the tests.
    """

    name = "algorithm-1-token-circulation"

    def __init__(self, ring_size: int, modulus: int | None = None) -> None:
        if ring_size < 3:
            raise ModelError("token ring needs at least 3 processes")
        self._n = ring_size
        if modulus is None:
            modulus = smallest_non_divisor(ring_size)
        if modulus < 2:
            raise ModelError("counter modulus must be at least 2")
        self._modulus = modulus

    @property
    def ring_size(self) -> int:
        """N."""
        return self._n

    @property
    def modulus(self) -> int:
        """m_N."""
        return self._modulus

    def layout(self, topology: Topology, process: int) -> VariableLayout:
        return VariableLayout(
            (VarSpec("dt", tuple(range(self._modulus))),)
        )

    def constants(self, topology: Topology, process: int):
        if not isinstance(topology, OrientedRing):
            raise TopologyError(
                "Algorithm 1 needs an OrientedRing (the Pred pointer is a"
                " topology constant)"
            )
        return {
            "pred": topology.pred_local_index(process),
            "modulus": self._modulus,
        }

    def actions(self) -> tuple[Action, ...]:
        return (deterministic_action("A", _token_guard, _pass_token),)


# ----------------------------------------------------------------------
# helpers over configurations
# ----------------------------------------------------------------------
def token_holders(system: System, configuration: Configuration) -> list[int]:
    """Processes satisfying ``Token`` — identical to the enabled set."""
    return [
        p
        for p in system.processes
        if _token_guard(system.view(configuration, p, writable=False))
    ]


def count_tokens(system: System, configuration: Configuration) -> int:
    """``|TokenHolders(γ)|`` (Lemma 4 says this is never zero)."""
    return len(token_holders(system, configuration))


class TokenCirculationSpec(Specification):
    """Definition 4 / ``LCSET``: exactly one token.

    ``validate_behavior`` additionally checks Lemma 6's content on the
    explored legitimate sub-space: the unique successor configuration is
    again legitimate with the token moved to the holder's successor, and —
    circulation liveness — iterating steps from any legitimate
    configuration makes every process hold the token.
    """

    name = "token-circulation"

    def legitimate(self, system: System, configuration: Configuration) -> bool:
        return count_tokens(system, configuration) == 1

    def batch_legitimacy(self, system: System) -> BatchLegitimacy | None:
        # Token(p) is the guard of Algorithm 1's one action, so there
        # "one token" is "one enabled process" by definition.
        if type(system.algorithm) is TokenRingAlgorithm:
            return EnabledCountLegitimacy(1)
        return None

    def validate_behavior(self, system, space: StateSpace, legitimate_ids):
        violations: list[str] = []
        topology = system.topology
        if not isinstance(topology, OrientedRing):  # pragma: no cover
            return ["token circulation spec needs an oriented ring"]
        if type(system.algorithm) is TokenRingAlgorithm:
            # Token holders are the enabled processes (the action's guard).
            def holders(config_id: int) -> tuple[int, ...]:
                return mask_to_subset(int(space.enabled_bits[config_id]))
        else:
            def holders(config_id: int) -> tuple[int, ...]:
                return tuple(
                    token_holders(system, space.configurations[config_id])
                )
        legitimate_set = set(legitimate_ids)
        for config_id in legitimate_ids:
            holder = holders(config_id)[0]
            successors = set(space.successors(config_id))
            if len(successors) != 1:
                violations.append(
                    f"legitimate config {config_id} has"
                    f" {len(successors)} successors (expected 1)"
                )
                continue
            (target_id,) = successors
            if target_id not in legitimate_set:
                violations.append(
                    f"legitimate config {config_id} escapes L"
                )
                continue
            next_holder = holders(target_id)[0]
            if next_holder != topology.successor(holder):
                violations.append(
                    f"token jumped from {holder} to {next_holder}"
                    f" instead of {topology.successor(holder)}"
                )
        # Circulation liveness: follow the unique orbit from one legitimate
        # configuration; within N steps every process must hold the token.
        if legitimate_ids and not violations:
            config_id = legitimate_ids[0]
            seen_holders: set[int] = set()
            for _ in range(system.num_processes):
                seen_holders.add(holders(config_id)[0])
                (config_id,) = set(space.successors(config_id))
            if seen_holders != set(system.processes):
                violations.append(
                    f"token visited only {sorted(seen_holders)} in"
                    f" {system.num_processes} steps"
                )
        return violations


# ----------------------------------------------------------------------
# system builders
# ----------------------------------------------------------------------
def make_token_ring_system(ring_size: int) -> System:
    """Algorithm 1 on an oriented ring of the given size."""
    algorithm = TokenRingAlgorithm(ring_size)
    topology = OrientedRing(make_ring(ring_size))
    return System(algorithm, topology)


def _configuration_from_deltas(
    system: System, deltas: dict[int, int]
) -> Configuration:
    """Build dt values from per-process increments along the ring.

    ``deltas[p]`` is ``(dt_p - dt_Pred(p)) mod m_N``; process p holds a
    token iff its delta differs from 1.  The deltas must sum to 0 mod m_N
    around the ring, which makes the construction consistent.
    """
    topology = system.topology
    algorithm = system.algorithm
    assert isinstance(topology, OrientedRing)
    assert isinstance(algorithm, TokenRingAlgorithm)
    modulus = algorithm.modulus
    n = system.num_processes
    if sum(deltas.values()) % modulus != 0:
        raise ModelError("ring increments must sum to 0 (mod m_N)")
    values = [0] * n
    current = topology.successor(0)
    while current != 0:
        predecessor = topology.predecessor(current)
        values[current] = (values[predecessor] + deltas[current]) % modulus
        current = topology.successor(current)
    return tuple((value,) for value in values)


def single_token_configuration(
    system: System, holder: int = 0
) -> Configuration:
    """A legitimate configuration with the token at ``holder``.

    All non-holders follow the ``pred + 1`` rule (delta 1); the holder's
    delta is forced to ``(1 - N) mod m_N``, which differs from 1 exactly
    because ``m_N`` does not divide N.
    """
    topology = system.topology
    if not isinstance(topology, OrientedRing):
        raise TopologyError("needs an oriented ring system")
    algorithm = system.algorithm
    if not isinstance(algorithm, TokenRingAlgorithm):
        raise ModelError("needs a TokenRingAlgorithm system")
    modulus = algorithm.modulus
    n = system.num_processes
    holder_delta = (1 - n) % modulus
    deltas = {p: 1 for p in system.processes}
    deltas[holder] = holder_delta
    configuration = _configuration_from_deltas(system, deltas)
    if token_holders(system, configuration) != [holder]:  # pragma: no cover
        raise ModelError("failed to build a single-token configuration")
    return configuration


def two_token_configuration(
    system: System, first_holder: int, second_holder: int
) -> Configuration:
    """A configuration with exactly two tokens (Theorem 6's start).

    Non-holders take delta 1; the two holders take deltas ``(d, t - d)``
    with both different from 1, where ``t ≡ 2 - N (mod m_N)`` balances
    the ring sum.  Such a pair does not always exist — e.g. odd rings have
    ``m_N = 2`` and the token count is forced odd — in which case a
    :class:`ModelError` explains the obstruction.
    """
    topology = system.topology
    if not isinstance(topology, OrientedRing):
        raise TopologyError("needs an oriented ring system")
    algorithm = system.algorithm
    if not isinstance(algorithm, TokenRingAlgorithm):
        raise ModelError("needs a TokenRingAlgorithm system")
    if first_holder == second_holder:
        raise ModelError("token holders must differ")
    modulus = algorithm.modulus
    n = system.num_processes
    required = (2 - n) % modulus
    pair = next(
        (
            (d, (required - d) % modulus)
            for d in range(modulus)
            if d != 1 and (required - d) % modulus != 1
        ),
        None,
    )
    if pair is None:
        raise ModelError(
            f"no two-token configuration exists on a ring of size {n}"
            f" (m_N = {modulus}; token parity is constrained)"
        )
    deltas = {p: 1 for p in system.processes}
    deltas[first_holder], deltas[second_holder] = pair
    configuration = _configuration_from_deltas(system, deltas)
    holders = token_holders(system, configuration)
    if sorted(holders) != sorted((first_holder, second_holder)):
        raise ModelError(
            f"constructed holders {holders}, wanted"
            f" {[first_holder, second_holder]}"
        )  # pragma: no cover - construction is exact
    return configuration
