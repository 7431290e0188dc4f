"""Optimal-bias synthesis by region refinement (sample → bound → split).

Given a :class:`~repro.markov.parametric.ParametricChain` and a target
set, find the coin assignment minimizing the expected hitting time *and*
a certified box guaranteed to contain every global argmin, by
sample → bound → split over parameter boxes with a **per-slot interval
value iteration** as the bound.  (This is not parameter lifting: the
bound relaxes each transition slot on its own, not each state's
parameter choice, so it cannot see that one coin drives every factor of
an edge.)

Both the samples and the bounds run on the chain's rotation quotient
(:class:`~repro.markov.parametric._HittingStructure`): on a symmetric
ring every state of a rotation orbit has the same hitting time and the
same bound, so each orbit is solved once, and a chain without that
symmetry is its own quotient with one state per orbit.

* **sample** — solve the chain exactly at each candidate region's
  center (cheap: the quotient evaluates only its representatives'
  edges and reuses the cached transient-solve structure).  The best
  value seen is the *incumbent*, an upper bound on the global minimum.
* **bound** — compute a certified **lower** bound of the objective over
  the whole region via interval value iteration
  (:func:`certified_lower_bound`): per-slot probability intervals
  come from the affine atom bounds, and the Bellman backup
  ``v ← 1 + Σ lo·v + (1 − Σ lo)·min v`` shifts all uncertain mass onto
  the best successor.  Starting from ``v = 0`` the iteration is
  monotone from below, so *every* iterate is sound — the bound is valid
  at any iteration budget.
* **split** — drop regions whose lower bound exceeds the incumbent (no
  argmin can hide there), bisect the survivors along their widest
  parameter, repeat until every surviving box is narrower than
  ``tolerance``.

The result's certified interval (per parameter: the hull of surviving
boxes) therefore always contains the dense-grid argmin, its region
lower bounds sandwich every exactly-solved sample from below, and the
maximum surviving width shrinks monotonically across rounds —
``tests/test_bias_optimizer.py`` checks exactly these properties.  The
whole procedure is deterministic: no random sampling, only centers and
bisection, and samples within :data:`_TIE_RELATIVE` of the minimum tie,
the first one evaluated winning — so a mirror-symmetric objective
reports the same argmin whichever way round-off breaks its tie.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import MarkovError, ModelError
from repro.markov.parametric import ParametricChain

__all__ = [
    "Region",
    "BiasSynthesisResult",
    "certified_lower_bound",
    "synthesize_optimal_bias",
]

#: Pruning slack: a region survives unless its certified lower bound
#: exceeds the incumbent by more than this (guards float round-off when
#: the incumbent's own region is bounded almost exactly).
_PRUNE_EPSILON = 1e-9

#: Samples within this relative distance of the best value are ties,
#: and the first one evaluated is reported: round-off below it (the
#: quotient and the full chain differ in the last few ulps) must not
#: pick between mirror-image argmins such as ``p`` and ``1 − p``.
_TIE_RELATIVE = 1e-12


@dataclass
class Region:
    """One parameter box with its certified bound and center sample."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]
    lower_bound: float = 0.0
    sample_assignment: dict[str, float] = field(default_factory=dict)
    sample_value: float = float("inf")

    def width(self) -> float:
        """Widest side of the box."""
        return max(
            high - low for low, high in zip(self.lows, self.highs)
        )

    def center(self, names: Sequence[str]) -> dict[str, float]:
        """Midpoint assignment."""
        return {
            name: (low + high) / 2.0
            for name, low, high in zip(names, self.lows, self.highs)
        }

    def contains(
        self, names: Sequence[str], assignment: Mapping[str, float]
    ) -> bool:
        """Whether an assignment lies inside (inclusive) the box."""
        return all(
            low - 1e-12 <= float(assignment[name]) <= high + 1e-12
            for name, low, high in zip(names, self.lows, self.highs)
        )

    def split(self) -> "tuple[Region, Region]":
        """Bisect along the widest parameter."""
        widths = [
            high - low for low, high in zip(self.lows, self.highs)
        ]
        axis = int(np.argmax(widths))
        middle = (self.lows[axis] + self.highs[axis]) / 2.0
        left_highs = list(self.highs)
        left_highs[axis] = middle
        right_lows = list(self.lows)
        right_lows[axis] = middle
        return (
            Region(self.lows, tuple(left_highs)),
            Region(tuple(right_lows), self.highs),
        )


@dataclass(frozen=True)
class BiasSynthesisResult:
    """Outcome of :func:`synthesize_optimal_bias`."""

    param_names: tuple[str, ...]
    objective: str
    best_assignment: dict[str, float]
    best_value: float
    #: Hull of the surviving regions per parameter — certified to
    #: contain every global argmin of the objective over the search box.
    certified_lows: dict[str, float]
    certified_highs: dict[str, float]
    #: Surviving regions, sorted by certified lower bound.
    regions: tuple[Region, ...]
    #: Every exactly-solved sample, in solve order.
    evaluations: tuple[tuple[dict[str, float], float], ...]
    #: Max surviving-region width after each round (round 0 = root box).
    width_history: tuple[float, ...]
    num_solves: int
    num_bounds: int

    def interval(self, name: str) -> tuple[float, float]:
        """Certified interval of one parameter."""
        if name not in self.certified_lows:
            raise ModelError(
                f"unknown parameter {name!r}; known: {self.param_names}"
            )
        return self.certified_lows[name], self.certified_highs[name]

    def contains(self, assignment: Mapping[str, float]) -> bool:
        """Whether an assignment lies inside some surviving region."""
        return any(
            region.contains(self.param_names, assignment)
            for region in self.regions
        )

    def row(self) -> dict[str, object]:
        """Compact dict form for experiment tables."""
        entry: dict[str, object] = {}
        for name in self.param_names:
            entry[f"{name}*"] = round(self.best_assignment[name], 6)
            low, high = self.interval(name)
            entry[f"{name} interval"] = f"[{low:.4f}, {high:.4f}]"
        entry[f"best {self.objective} E[steps]"] = round(self.best_value, 6)
        entry["solves"] = self.num_solves
        return entry


def certified_lower_bound(
    pchain: ParametricChain,
    target: np.ndarray,
    lows: Mapping[str, float],
    highs: Mapping[str, float],
    objective: str = "mean",
    iterations: int = 300,
    residual_tolerance: float = 1e-9,
) -> float:
    """Sound lower bound on the objective over one parameter box.

    Interval value iteration with the mass-shifting backup, on the rows
    and slots of the chain's rotation quotient (every state of an orbit
    has the same bound): each slot contributes at least its interval low
    ``lo``, and the leftover row mass ``1 − Σ lo`` (an upper bound on how
    much probability the adversary — here: the unknown parameter point —
    can reallocate) is sent to the row's minimal successor value.  Iterates from ``v = 0``
    are monotonically non-decreasing and every one satisfies
    ``v(s) ≤ min over the box of E[steps from s]``, so truncating at any
    iteration budget stays sound.
    """
    if objective not in ("mean", "worst"):
        raise MarkovError(
            f"unknown objective {objective!r}; known: mean, worst"
        )
    solver = pchain._solver(target)  # validates the mask, caches closure
    if solver.num_transient == 0:
        return 0.0
    target = solver.orbit_target
    data_lo = solver.lower_bounds(pchain.atom_lower_bounds(lows, highs))
    indices = solver.indices
    starts = solver.indptr[:-1]
    row_lo_sum = np.add.reduceat(data_lo, starts)
    slack = np.maximum(1.0 - row_lo_sum, 0.0)

    v = np.zeros(target.shape[0], dtype=float)
    for _ in range(iterations):
        successor_v = v[indices]
        expected_lo = np.add.reduceat(data_lo * successor_v, starts)
        minimum_v = np.minimum.reduceat(successor_v, starts)
        v_next = np.where(
            target, 0.0, 1.0 + expected_lo + slack * minimum_v
        )
        residual = float(np.max(np.abs(v_next - v)))
        v = v_next
        if residual <= residual_tolerance * (1.0 + float(v.max())):
            break
    return solver.objective_value(v, objective)


def synthesize_optimal_bias(
    pchain: ParametricChain,
    target: np.ndarray,
    objective: str = "mean",
    tolerance: float = 0.02,
    max_rounds: int = 24,
    max_regions: int = 128,
    vi_iterations: int = 300,
    bounds: Mapping[str, tuple[float, float]] | None = None,
) -> BiasSynthesisResult:
    """Certified optimal-bias search over the declared coin box.

    ``bounds`` optionally overrides the per-coin search interval (it
    must stay inside ``(0, 1)``).  Refinement stops when every surviving
    region is narrower than ``tolerance`` (in every parameter), after
    ``max_rounds`` bisection rounds, or when a further split would
    exceed ``max_regions`` — the certification (surviving boxes contain
    every argmin) holds at whatever granularity was reached.
    """
    names = pchain.param_names
    if not names:
        raise ModelError(
            "the chain has no coin parameters; build the system from"
            " parametric outcome probabilities (see repro.core.parametric)"
        )
    lows: list[float] = []
    highs: list[float] = []
    for coin in pchain.parameters:
        low, high = coin.low, coin.high
        if bounds is not None and coin.name in bounds:
            low, high = bounds[coin.name]
            if not 0.0 < low < high < 1.0:
                raise ModelError(
                    f"bounds for {coin.name!r} must satisfy"
                    f" 0 < low < high < 1, got [{low}, {high}]"
                )
        lows.append(float(low))
        highs.append(float(high))

    evaluations: list[tuple[dict[str, float], float]] = []
    counters = {"solves": 0, "bounds": 0}

    def solve_center(region: Region) -> None:
        assignment = region.center(names)
        value = pchain.hitting_sweep([assignment], target, objective)[0]
        counters["solves"] += 1
        region.sample_assignment = assignment
        region.sample_value = value
        evaluations.append((assignment, value))

    def bound_region(region: Region) -> None:
        region.lower_bound = certified_lower_bound(
            pchain,
            target,
            dict(zip(names, region.lows)),
            dict(zip(names, region.highs)),
            objective=objective,
            iterations=vi_iterations,
        )
        counters["bounds"] += 1

    root = Region(tuple(lows), tuple(highs))
    solve_center(root)
    bound_region(root)
    regions = [root]
    width_history = [root.width()]

    for _ in range(max_rounds):
        widest = max(region.width() for region in regions)
        if widest <= tolerance:
            break
        splittable = [r for r in regions if r.width() > tolerance]
        if len(regions) + len(splittable) > max_regions:
            break
        children: list[Region] = []
        for region in regions:
            if region.width() <= tolerance:
                children.append(region)
                continue
            for child in region.split():
                solve_center(child)
                bound_region(child)
                children.append(child)
        incumbent = min(value for _, value in evaluations)
        regions = [
            region
            for region in children
            if region.lower_bound <= incumbent + _PRUNE_EPSILON
        ]
        width_history.append(max(region.width() for region in regions))

    lowest = min(value for _, value in evaluations)
    best_assignment, best_value = next(
        (assignment, value)
        for assignment, value in evaluations
        if value <= lowest + _TIE_RELATIVE * abs(lowest)
    )
    regions.sort(key=lambda region: region.lower_bound)
    certified_lows = {
        name: min(region.lows[axis] for region in regions)
        for axis, name in enumerate(names)
    }
    certified_highs = {
        name: max(region.highs[axis] for region in regions)
        for axis, name in enumerate(names)
    }
    return BiasSynthesisResult(
        param_names=names,
        objective=objective,
        best_assignment=dict(best_assignment),
        best_value=float(best_value),
        certified_lows=certified_lows,
        certified_highs=certified_highs,
        regions=tuple(regions),
        evaluations=tuple(evaluations),
        width_history=tuple(width_history),
        num_solves=counters["solves"],
        num_bounds=counters["bounds"],
    )
