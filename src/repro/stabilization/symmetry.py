"""Symmetry arguments — the engine behind Theorem 3's impossibility.

The paper's Theorem 3 proof takes the 4-chain, the set ``X`` of mirror-
symmetric configurations ``⟨a, b, b, a⟩``, and shows ``X`` is closed under
synchronous steps of any deterministic algorithm while containing no
configuration with a distinguished leader.

This module makes the argument executable for arbitrary graph
automorphisms: :func:`transport_configuration` moves a configuration along
an automorphism (translating pointer-valued variables across local
indexes), :func:`is_equivariant_synchronous_step` checks that the unique
synchronous step of a deterministic system commutes with the automorphism,
and :func:`symmetric_configurations` enumerates the fixed points of the
automorphism (the set ``X``).

If the synchronous step commutes with a fixed-point-free involution σ then
``X`` is closed, and since any reasonable "leader" predicate is
anonymous (σ-equivariant), no configuration of ``X`` elects exactly one
leader — deterministic self-stabilizing leader election is impossible.

:func:`check_symmetry` runs the whole argument on every configuration
at once over the compiled tables: σ becomes one local-code transport
table per process, the synchronous step one
:meth:`~repro.core.encoding.ExpansionContext.deterministic_successor_ranks`
call over all ranks.  The per-configuration functions above are its
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.configuration import Configuration, LocalState
from repro.core.encoding import expansion_context, tables_for
from repro.core.system import System
from repro.core.variables import BOTTOM
from repro.errors import ModelError, StateSpaceError
from repro.stabilization.witnesses import synchronous_successor

__all__ = [
    "transport_configuration",
    "symmetric_configurations",
    "is_equivariant_synchronous_step",
    "check_symmetric_class_closed",
    "SymmetryCheck",
    "check_symmetry",
    "mirror_of_path",
]

#: Marks variables holding local neighbor indexes (translated under σ)
#: versus plain values (copied verbatim).
PointerPredicate = Callable[[str], bool]


def _default_is_pointer(name: str) -> bool:
    return name in ("Par",)


def mirror_of_path(num_nodes: int) -> list[int]:
    """The mirror automorphism of the path ``0 - 1 - ... - n-1``."""
    return [num_nodes - 1 - i for i in range(num_nodes)]


def transport_configuration(
    system: System,
    configuration: Configuration,
    sigma: Sequence[int],
    is_pointer: PointerPredicate = _default_is_pointer,
) -> Configuration:
    """The configuration σ(γ): process σ(p) gets p's translated state.

    Pointer variables (local indexes) are translated: if p points at its
    k-th neighbor q, then σ(p) points at σ(q) — which sits at some local
    index of σ(p).  ``⊥`` and non-pointer values transport unchanged.
    """
    _check_automorphism(system, sigma)
    new_states: list[LocalState] = [()] * system.num_processes
    for p in system.processes:
        new_states[sigma[p]] = _transport_local(
            system, p, configuration[p], sigma, is_pointer
        )
    result = tuple(new_states)
    system.check_configuration(result)
    return result


def _check_automorphism(system: System, sigma: Sequence[int]) -> None:
    if not system.topology.graph.is_automorphism(list(sigma)):
        raise ModelError("sigma is not a graph automorphism")


def _transport_local(
    system: System,
    process: int,
    state: LocalState,
    sigma: Sequence[int],
    is_pointer: PointerPredicate,
) -> LocalState:
    """``process``'s local state as σ(process) holds it in σ(γ)."""
    topology = system.topology
    image = sigma[process]
    values = []
    for slot, name in enumerate(system.variable_names()):
        value = state[slot]
        if is_pointer(name) and value is not BOTTOM:
            neighbor = topology.neighbor(process, value)
            values.append(topology.local_index(image, sigma[neighbor]))
        else:
            values.append(value)
    return tuple(values)


def symmetric_configurations(
    system: System,
    sigma: Sequence[int],
    is_pointer: PointerPredicate = _default_is_pointer,
) -> Iterator[Configuration]:
    """All configurations fixed by σ (the paper's set ``X``)."""
    for configuration in system.all_configurations():
        if (
            transport_configuration(system, configuration, sigma, is_pointer)
            == configuration
        ):
            yield configuration


def is_equivariant_synchronous_step(
    system: System,
    configuration: Configuration,
    sigma: Sequence[int],
    is_pointer: PointerPredicate = _default_is_pointer,
) -> bool:
    """Whether ``σ(F(γ)) == F(σ(γ))`` for the synchronous step ``F``.

    Terminal configurations count as equivariant when their image is
    terminal too.
    """
    image = transport_configuration(system, configuration, sigma, is_pointer)
    step = synchronous_successor(system, configuration)
    image_step = synchronous_successor(system, image)
    if step is None or image_step is None:
        return step is None and image_step is None
    return (
        transport_configuration(system, step[0], sigma, is_pointer)
        == image_step[0]
    )


def check_symmetric_class_closed(
    system: System,
    sigma: Sequence[int],
    is_pointer: PointerPredicate = _default_is_pointer,
) -> tuple[int, list[Configuration]]:
    """Verify every σ-fixed configuration's synchronous step stays σ-fixed.

    Returns ``(number of symmetric configurations, violations)`` where a
    violation is a symmetric configuration whose synchronous successor is
    not symmetric.  An empty violation list is the closure half of
    Theorem 3's argument.
    """
    violations: list[Configuration] = []
    count = 0
    for configuration in symmetric_configurations(system, sigma, is_pointer):
        count += 1
        step = synchronous_successor(system, configuration)
        if step is None:
            continue
        successor = step[0]
        if (
            transport_configuration(system, successor, sigma, is_pointer)
            != successor
        ):
            violations.append(configuration)
    return count, violations


@dataclass(frozen=True)
class SymmetryCheck:
    """Theorem 3's argument over every configuration of a system.

    ``equivariant[r]`` is :func:`is_equivariant_synchronous_step` at the
    configuration of rank ``r`` (enumeration order); ``symmetric`` and
    ``symmetric_codes`` are the σ-fixed set ``X`` in that order, and
    ``violations`` the members of ``X`` whose synchronous successor
    leaves ``X`` (:func:`check_symmetric_class_closed`'s list).
    """

    equivariant: np.ndarray
    symmetric: list[Configuration]
    symmetric_codes: np.ndarray
    violations: list[Configuration]


def check_symmetry(
    system: System,
    sigma: Sequence[int],
    is_pointer: PointerPredicate = _default_is_pointer,
) -> SymmetryCheck:
    """Equivariance, ``X`` and ``X``'s closure, on the compiled tables.

    σ transports codes through one table per process (``table_p[c]`` is
    the code σ(p) gets from p's local state of code ``c``), so σ(γ) is a
    gather and a rank sum.  The synchronous step of every configuration
    is one :meth:`~repro.core.encoding.ExpansionContext.deterministic_successor_ranks`
    call; tables with two enabled actions at one neighborhood or a
    probabilistic action raise :class:`StateSpaceError`, as
    :func:`~repro.stabilization.witnesses.synchronous_successor` does.
    """
    _check_automorphism(system, sigma)
    tables = tables_for(system)
    context = expansion_context(tables)
    if not context.deterministic:
        raise StateSpaceError(
            "synchronous step is not deterministic: the tables have"
            " several enabled actions or outcomes at one neighborhood"
        )
    encoding = tables.encoding
    codes = context.all_codes()
    image = np.empty_like(codes)
    for process in system.processes:
        table = np.array(
            [
                encoding.encode_local(
                    sigma[process],
                    _transport_local(system, process, state, sigma, is_pointer),
                )
                for state in encoding.local_states(process)
            ],
            dtype=codes.dtype,
        )
        image[:, sigma[process]] = table[codes[:, process]]
    ranks = np.arange(codes.shape[0])
    transported = image.astype(np.int64) @ context.weights_row
    successor, enabled_counts = context.deterministic_successor_ranks(ranks)
    terminal = enabled_counts == 0
    # σ(F(γ)) versus F(σ(γ)); a terminal γ or σ(γ) needs both terminal.
    either_terminal = terminal | terminal[transported]
    equivariant = np.where(
        either_terminal,
        terminal == terminal[transported],
        transported[successor] == successor[transported],
    )
    fixed = np.flatnonzero(transported == ranks)
    leaves = ~terminal[fixed] & (
        transported[successor[fixed]] != successor[fixed]
    )
    return SymmetryCheck(
        equivariant=equivariant,
        symmetric=encoding.decode_batch(codes[fixed]),
        symmetric_codes=codes[fixed],
        violations=[
            context.configuration_of_rank(int(rank))
            for rank in fixed[leaves]
        ],
    )
