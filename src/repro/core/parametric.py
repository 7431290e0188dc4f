"""Affine-in-parameter coin probabilities — the parametric-chain substrate.

The compiled execution stack (compiled tables → chain builder → hitting
solvers) works on concrete ``float`` probabilities.  This module lets an
algorithm declare named *coin parameters* and build outcome
probabilities that are **affine** in those parameters::

    p = CoinParameter("p", default=0.5)
    Outcome(p.value(), set_one)          # probability      p
    Outcome(p.complement(), set_zero)    # probability  1 - p

:class:`AffineProbability` is a ``float`` subclass: its numeric value is
the affine form evaluated at the construction-time assignment, so every
existing consumer (``Outcome`` validation, ``System`` resolution,
``compile_tables``, Monte-Carlo sampling) sees an ordinary concrete
probability and behaves bit-identically.  The symbolic form
``constant + Σ coefficient·θ`` rides along and is harvested by
:func:`repro.core.encoding.compile_tables` into per-outcome
constant/coefficient arrays, which is what lets
:class:`repro.markov.parametric.ParametricChain` re-instantiate a chain's
CSR ``data`` vector at any parameter point without rebuilding structure.

Bit-equality contract: :func:`evaluate_affine` is the *single* evaluation
order (constant first, then parameters in sorted-name order, one fused
``value + coefficient * θ`` term at a time).  Both the scalar
construction-time value and the vectorized table evaluation
(:func:`evaluate_affine_arrays`) follow it, so instantiating a parametric
chain at the construction assignment reproduces the concrete build
bit-for-bit.

>>> p = CoinParameter("p", default=0.5)
>>> heads = p.value(0.25)
>>> float(heads), heads.constant, heads.coefficients
(0.25, 0.0, (('p', 1.0),))
>>> float(p.complement(0.25))
0.75
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ModelError

__all__ = [
    "MAX_COIN_PARAMETERS",
    "CoinParameter",
    "AffineProbability",
    "affine_terms",
    "evaluate_affine",
    "evaluate_affine_arrays",
    "affine_array_bounds",
]

#: Upper bound on distinct coin parameters per compiled table: the
#: region-refinement optimizer splits boxes per dimension, so the search
#: is only practical (and the tables only compact) for a few coins.
MAX_COIN_PARAMETERS = 3


def evaluate_affine(
    constant: float,
    coefficients: Iterable[tuple[str, float]],
    assignment: Mapping[str, float],
) -> float:
    """Evaluate ``constant + Σ coefficient·θ[name]`` in canonical order.

    The canonical order — constant first, then one ``value + c * θ`` term
    per parameter in iteration order (sorted names for
    :class:`AffineProbability`) — is the bit-equality contract shared
    with :func:`evaluate_affine_arrays`.
    """
    value = float(constant)
    for name, coefficient in coefficients:
        try:
            theta = float(assignment[name])
        except KeyError:
            raise ModelError(
                f"affine probability needs parameter {name!r}; assignment"
                f" provides {sorted(assignment)}"
            ) from None
        value = value + coefficient * theta
    return value


class AffineProbability(float):
    """A concrete probability that remembers its affine form.

    Behaves exactly like the ``float`` it evaluates to at the
    construction assignment; carries ``constant`` and a sorted
    ``coefficients`` tuple for the table compiler.  Build via
    :meth:`CoinParameter.value` / :meth:`CoinParameter.complement` or
    directly for multi-parameter forms such as ``1 - q - r``.
    """

    __slots__ = ("constant", "coefficients")

    def __new__(
        cls,
        constant: float,
        coefficients: Mapping[str, float],
        assignment: Mapping[str, float],
    ) -> "AffineProbability":
        items = tuple(
            sorted(
                (str(name), float(coefficient))
                for name, coefficient in coefficients.items()
                if coefficient != 0.0
            )
        )
        value = evaluate_affine(constant, items, assignment)
        if not 0.0 < value <= 1.0:
            raise ModelError(
                f"affine probability evaluates to {value} at"
                f" {dict(assignment)!r}; probabilities must be in (0, 1]"
            )
        self = super().__new__(cls, value)
        self.constant = float(constant)
        self.coefficients = items
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = " + ".join(
            f"{coefficient:g}*{name}" for name, coefficient in self.coefficients
        )
        return f"AffineProbability({float(self):g} = {self.constant:g} + {terms})"


@dataclass(frozen=True)
class CoinParameter:
    """One named coin bias with its default value and search bounds.

    ``default`` is the construction-time value (what the concrete tables
    bake in); ``[low, high]`` is the box the bias-synthesis optimizer
    searches.  Bounds stay strictly inside ``(0, 1)`` so every outcome
    probability built from :meth:`value` / :meth:`complement` remains a
    valid probability over the whole box.
    """

    name: str
    default: float
    low: float = 0.05
    high: float = 0.95

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ModelError(
                f"coin parameter name {self.name!r} must be an identifier"
            )
        if not 0.0 < self.low <= self.default <= self.high < 1.0:
            raise ModelError(
                f"coin parameter {self.name!r} needs"
                f" 0 < low <= default <= high < 1, got"
                f" low={self.low}, default={self.default}, high={self.high}"
            )

    def value(self, bias: float | None = None) -> AffineProbability:
        """The probability ``θ`` itself, evaluated at ``bias`` (or default)."""
        point = self.default if bias is None else float(bias)
        return AffineProbability(0.0, {self.name: 1.0}, {self.name: point})

    def complement(self, bias: float | None = None) -> AffineProbability:
        """The probability ``1 − θ``, evaluated at ``bias`` (or default)."""
        point = self.default if bias is None else float(bias)
        return AffineProbability(1.0, {self.name: -1.0}, {self.name: point})


def affine_terms(
    probability: float,
) -> tuple[float, tuple[tuple[str, float], ...]] | None:
    """The ``(constant, coefficients)`` form, or ``None`` for plain floats."""
    if isinstance(probability, AffineProbability) and probability.coefficients:
        return probability.constant, probability.coefficients
    return None


def evaluate_affine_arrays(
    constants: np.ndarray,
    coefficients: np.ndarray,
    param_names: Sequence[str],
    assignment: Mapping[str, float],
) -> np.ndarray:
    """Vectorized :func:`evaluate_affine` over table-shaped arrays.

    ``constants`` has any shape ``S``; ``coefficients`` has shape
    ``S + (K,)`` with one trailing slot per name in ``param_names``
    (sorted).  Follows the canonical evaluation order exactly — zero
    coefficients contribute an exact ``+ 0.0`` no-op — so each element
    equals the scalar evaluation bit-for-bit.
    """
    values = np.array(constants, dtype=float, copy=True)
    for position, name in enumerate(param_names):
        try:
            theta = float(assignment[name])
        except KeyError:
            raise ModelError(
                f"parametric tables need parameter {name!r}; assignment"
                f" provides {sorted(assignment)}"
            ) from None
        values += coefficients[..., position] * theta
    return values


def affine_array_bounds(
    constants: np.ndarray,
    coefficients: np.ndarray,
    param_names: Sequence[str],
    lows: Mapping[str, float],
    highs: Mapping[str, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise range of the affine forms over a parameter box.

    Affine forms are monotone per parameter, so the exact per-element
    minimum/maximum over the box ``Π [lows[k], highs[k]]`` picks each
    parameter's interval endpoint by coefficient sign.
    """
    lower = np.array(constants, dtype=float, copy=True)
    upper = np.array(constants, dtype=float, copy=True)
    for position, name in enumerate(param_names):
        slab = coefficients[..., position]
        low = float(lows[name])
        high = float(highs[name])
        if high < low:
            raise ModelError(
                f"parameter {name!r} has an empty interval"
                f" [{low}, {high}]"
            )
        lower += np.minimum(slab * low, slab * high)
        upper += np.maximum(slab * low, slab * high)
    return lower, upper
