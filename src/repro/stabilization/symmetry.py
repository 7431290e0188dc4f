"""Symmetry arguments — the engine behind Theorem 3's impossibility.

The paper's Theorem 3 proof takes the 4-chain, the set ``X`` of mirror-
symmetric configurations ``⟨a, b, b, a⟩``, and shows ``X`` is closed under
synchronous steps of any deterministic algorithm while containing no
configuration with a distinguished leader.

This module makes the argument executable for arbitrary graph
automorphisms: :func:`transport_configuration` moves a configuration along
an automorphism (translating the pointer variables of
:data:`POINTER_VARIABLES` across local indexes),
:func:`is_equivariant_synchronous_step` checks that the unique
synchronous step of a deterministic system commutes with the automorphism,
and :func:`symmetric_configurations` enumerates the fixed points of the
automorphism (the set ``X``).

If the synchronous step commutes with a fixed-point-free involution σ then
``X`` is closed, and since any reasonable "leader" predicate is
anonymous (σ-equivariant), no configuration of ``X`` elects exactly one
leader — deterministic self-stabilizing leader election is impossible.

:class:`Automorphism` is the one code-space form of σ: one local-code
transport table per process, built through the same per-state
transport.  It moves code matrices (:meth:`~Automorphism.apply`),
permutes a state set (:meth:`~Automorphism.permutation`), picks orbit
representatives, and decides from the compiled tables alone whether
every step commutes with σ (:meth:`~Automorphism.equivariant`) — the
test the parametric chain's rotation quotient
(:mod:`repro.markov.parametric`) runs before it lumps a ring onto its
rotation orbits.  :func:`check_symmetry` runs the whole Theorem 3
argument on every configuration at once: σ is one
:meth:`~Automorphism.apply`, the synchronous step one
:meth:`~repro.core.encoding.ExpansionContext.deterministic_successor_ranks`
call over all ranks.  The per-configuration functions above are its
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.configuration import Configuration, LocalState
from repro.core.encoding import CODE_DTYPE, expansion_context, tables_for
from repro.core.system import System
from repro.core.variables import BOTTOM
from repro.errors import ModelError, StateSpaceError
from repro.stabilization.witnesses import synchronous_successor

__all__ = [
    "POINTER_VARIABLES",
    "Automorphism",
    "transport_configuration",
    "symmetric_configurations",
    "is_equivariant_synchronous_step",
    "check_symmetric_class_closed",
    "SymmetryCheck",
    "check_symmetry",
    "mirror_of_path",
]

#: Variables holding local neighbor indexes: translated under σ; every
#: other variable is copied verbatim.
POINTER_VARIABLES = frozenset({"Par"})


def mirror_of_path(num_nodes: int) -> list[int]:
    """The mirror automorphism of the path ``0 - 1 - ... - n-1``."""
    return [num_nodes - 1 - i for i in range(num_nodes)]


def transport_configuration(
    system: System, configuration: Configuration, sigma: Sequence[int]
) -> Configuration:
    """The configuration σ(γ): process σ(p) gets p's translated state.

    Pointer variables (local indexes) are translated: if p points at its
    k-th neighbor q, then σ(p) points at σ(q) — which sits at some local
    index of σ(p).  ``⊥`` and non-pointer values transport unchanged.
    """
    _check_automorphism(system, sigma)
    new_states: list[LocalState] = [()] * system.num_processes
    for p in system.processes:
        state = _transport_local(system, p, configuration[p], sigma)
        new_states[sigma[p]] = state
    result = tuple(new_states)
    system.check_configuration(result)
    return result


def _check_automorphism(system: System, sigma: Sequence[int]) -> None:
    if not system.topology.graph.is_automorphism(list(sigma)):
        raise ModelError("sigma is not a graph automorphism")


def _transport_local(
    system: System, process: int, state: LocalState, sigma: Sequence[int]
) -> LocalState:
    """``process``'s local state as σ(process) holds it in σ(γ)."""
    topology = system.topology
    image = sigma[process]
    values = []
    for slot, name in enumerate(system.variable_names()):
        value = state[slot]
        if name in POINTER_VARIABLES and value is not BOTTOM:
            neighbor = topology.neighbor(process, value)
            values.append(topology.local_index(image, sigma[neighbor]))
        else:
            values.append(value)
    return tuple(values)


class Automorphism:
    """A graph automorphism σ acting on the compiled code space.

    ``transport[p][c]`` is the code σ(p) gets from p's local state of
    code ``c`` (:func:`transport_configuration`'s per-state rule, once
    per local state).  Raises :class:`ModelError` when σ is not a graph
    automorphism or moves a local state out of σ(p)'s domain.
    """

    def __init__(self, system: System, sigma: Sequence[int]) -> None:
        _check_automorphism(system, sigma)
        self.system = system
        self.sigma = [int(image) for image in sigma]
        self.tables = tables = tables_for(system)
        self._weights = expansion_context(tables).weights_row
        self.transport = [
            np.array(
                [
                    tables.encoding.encode_local(
                        image, _transport_local(system, p, state, self.sigma)
                    )
                    for state in tables.encoding.local_states(p)
                ],
                dtype=np.int64,
            )
            for p, image in enumerate(self.sigma)
        ]

    def apply(self, codes: np.ndarray) -> np.ndarray:
        """σ of every row of a ``(M, N)`` code matrix."""
        image = np.empty_like(codes)
        for process, table in enumerate(self.transport):
            image[:, self.sigma[process]] = table[codes[:, process]]
        return image

    def equivariant(self) -> bool:
        """Whether every step commutes with σ, read from the tables alone.

        Per process p, every neighborhood key of p and its σ-image key at
        σ(p) have equal action counts (so equal enabled bits), and per
        action ordinal equal multisets of (transported post-code, outcome
        form).  A form is the outcome's ``outcome_prob`` with its affine
        ``outcome_prob_const``/``outcome_prob_coeff`` row, so equal forms
        give equal probabilities at every coin assignment.  Built-in
        schedulers weigh enabled processes exchangeably, so the chain of
        every such scheduler then commutes with σ.
        """
        tables = self.tables
        size = tables.outcome_prob.size
        parts = (tables.outcome_prob, tables.outcome_prob_const,
                 tables.outcome_prob_coeff)  # the affine rows: None or both
        forms = np.hstack([p.reshape(size, -1) for p in parts if p is not None])
        _, form = np.unique(forms, axis=0, return_inverse=True)
        form = form.reshape(tables.outcome_prob.shape)
        arity = expansion_context(tables).arity
        padding = arity[:, None] <= np.arange(form.shape[1])
        post = tables.outcome_code.astype(np.int64)

        def outcomes(rows: np.ndarray, post: np.ndarray) -> np.ndarray:
            """Sorted (post-code, form) pairs per action row, padding -1."""
            pairs = post * (form.max() + 1) + form[rows]
            pairs[padding[rows]] = -1
            return np.sort(pairs, axis=1)

        sizes = tables.encoding.sizes
        for process, image in enumerate(self.sigma):
            # Every neighborhood of p, as code rows packed to p's keys.
            width = 1 + self.system.topology.degree(process)
            members = tables.neighbor_index[process, :width]
            local = np.arange(int(np.prod(sizes[members])))[:, None]
            codes = np.zeros((local.shape[0], len(sizes)), dtype=CODE_DTYPE)
            codes[:, members] = (
                local // tables.neighbor_weight[process, :width]
            ) % sizes[members]
            keys = tables.pack(codes)[:, process]
            image_keys = tables.pack(self.apply(codes))[:, image]
            counts = tables.action_count[keys]
            if not np.array_equal(counts, tables.action_count[image_keys]):
                return False
            starts = np.repeat(np.cumsum(counts) - counts, counts)
            ordinal = np.arange(counts.sum()) - starts
            rows, image_rows = (
                np.repeat(tables.action_base[block], counts) + ordinal
                for block in (keys, image_keys)
            )
            if not np.array_equal(
                outcomes(rows, self.transport[process][post[rows]]),
                outcomes(image_rows, post[image_rows]),
            ):
                return False
        return True

    def permutation(self, codes: np.ndarray) -> np.ndarray | None:
        """Per row of ``codes`` (distinct configurations), the row holding
        its σ-image; ``None`` when some image is not a row."""
        both = np.vstack([codes, self.apply(codes)]).astype(np.int64)
        unique, ids = np.unique(both @ self._weights, return_inverse=True)
        if unique.shape[0] != codes.shape[0]:
            return None
        own, image = ids.reshape(2, -1)
        row = np.empty_like(own)
        row[own] = np.arange(own.shape[0])
        return row[image]

    def representatives(self, codes: np.ndarray) -> np.ndarray | None:
        """Per row of ``codes``, the minimum-rank row of its σ-orbit;
        ``None`` when the rows are not closed under σ."""
        image = self.permutation(codes)
        if image is None:
            return None
        ranks = codes.astype(np.int64) @ self._weights
        rows = np.arange(image.shape[0])
        best, member = rows.copy(), image
        while not np.array_equal(member, rows):
            lower = ranks[member] < ranks[best]
            best[lower] = member[lower]
            member = image[member]
        return best


def symmetric_configurations(
    system: System, sigma: Sequence[int]
) -> Iterator[Configuration]:
    """All configurations fixed by σ (the paper's set ``X``)."""
    for configuration in system.all_configurations():
        image = transport_configuration(system, configuration, sigma)
        if image == configuration:
            yield configuration


def is_equivariant_synchronous_step(
    system: System, configuration: Configuration, sigma: Sequence[int]
) -> bool:
    """Whether ``σ(F(γ)) == F(σ(γ))`` for the synchronous step ``F``.

    Terminal configurations count as equivariant when their image is
    terminal too.
    """
    image = transport_configuration(system, configuration, sigma)
    step = synchronous_successor(system, configuration)
    image_step = synchronous_successor(system, image)
    if step is None or image_step is None:
        return step is None and image_step is None
    return transport_configuration(system, step[0], sigma) == image_step[0]


def check_symmetric_class_closed(
    system: System, sigma: Sequence[int]
) -> tuple[int, list[Configuration]]:
    """Verify every σ-fixed configuration's synchronous step stays σ-fixed.

    Returns ``(number of symmetric configurations, violations)`` where a
    violation is a symmetric configuration whose synchronous successor is
    not symmetric.  An empty violation list is the closure half of
    Theorem 3's argument.
    """
    violations: list[Configuration] = []
    count = 0
    for configuration in symmetric_configurations(system, sigma):
        count += 1
        step = synchronous_successor(system, configuration)
        if step is None:
            continue
        successor = step[0]
        if transport_configuration(system, successor, sigma) != successor:
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


def check_symmetry(system: System, sigma: Sequence[int]) -> SymmetryCheck:
    """Equivariance, ``X`` and ``X``'s closure, on the compiled tables.

    σ transports codes through :meth:`Automorphism.apply`, so σ(γ) is a
    gather per process and a rank sum.  The synchronous step of every
    configuration is one
    :meth:`~repro.core.encoding.ExpansionContext.deterministic_successor_ranks`
    call; tables with two enabled actions at one neighborhood or a
    probabilistic action raise :class:`StateSpaceError`, as
    :func:`~repro.stabilization.witnesses.synchronous_successor` does.
    """
    automorphism = Automorphism(system, sigma)
    context = expansion_context(automorphism.tables)
    if not context.deterministic:
        raise StateSpaceError(
            "synchronous step is not deterministic: the tables have"
            " several enabled actions or outcomes at one neighborhood"
        )
    codes = context.all_codes()
    image = automorphism.apply(codes)
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
        symmetric=automorphism.tables.encoding.decode_batch(codes[fixed]),
        symmetric_codes=codes[fixed],
        violations=[
            context.configuration_of_rank(int(rank))
            for rank in fixed[leaves]
        ],
    )
