"""Parameter sweeps for the quantitative experiments (Q1-Q3).

Two entry points:

* :func:`sweep` — the generic scalar loop: call ``measure(value)`` per
  swept value, collect rows.  Any measurement, no engine assumptions.
* :func:`sweep_fused` — the Monte-Carlo fast path: build one
  :class:`~repro.markov.sweep_engine.SweepPointSpec` per value and run
  them all through one
  :class:`~repro.markov.sweep_engine.SweepRunner`, which fuses
  same-system points into a single code matrix and shares compiled
  tables across the whole sweep (see :mod:`repro.markov.sweep_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.markov.montecarlo import MonteCarloResult
    from repro.markov.sweep_engine import SweepPointSpec, SweepRunner

__all__ = ["SweepPoint", "sweep", "sweep_fused"]


@dataclass(frozen=True)
class SweepPoint:
    """One measured point: the parameters plus the measurement row."""

    parameters: Mapping[str, Any]
    row: Mapping[str, Any]

    def merged(self) -> dict[str, Any]:
        """Parameters and measurements in one flat dict (table-friendly)."""
        combined = dict(self.parameters)
        for key, value in self.row.items():
            combined[key] = value
        return combined


def sweep(
    parameter_name: str,
    values: Sequence[Any],
    measure: Callable[[Any], Mapping[str, Any]],
) -> list[SweepPoint]:
    """Measure ``measure(v)`` for each value of one swept parameter."""
    return [
        SweepPoint(parameters={parameter_name: value}, row=dict(measure(value)))
        for value in values
    ]


def sweep_fused(
    parameter_name: str,
    values: Sequence[Any],
    make_spec: "Callable[[Any], SweepPointSpec]",
    engine: str = "auto",
    runner: "SweepRunner | None" = None,
) -> list[SweepPoint]:
    """Fused Monte-Carlo sweep: one spec per value, one runner for all.

    ``make_spec(value)`` returns the
    :class:`~repro.markov.sweep_engine.SweepPointSpec` for one swept
    value; all specs execute through a single
    :class:`~repro.markov.sweep_engine.SweepRunner` (pass ``runner`` to
    keep its policy and read its ``last_plan``), and each
    returned :class:`SweepPoint` row is the point's
    :meth:`~repro.markov.montecarlo.MonteCarloResult.row`.  With
    ``engine="scalar"`` every point runs the seeded per-point oracle —
    the distributional reference for the fused path.  When ``runner``
    is supplied, *its* engine governs and the ``engine`` argument is
    ignored.

    An empty ``values`` returns ``[]``, matching :func:`sweep` (the
    underlying :class:`SweepRunner` itself rejects empty point lists).
    """
    from repro.markov.sweep_engine import SweepRunner

    if not values:
        return []
    specs = [make_spec(value) for value in values]
    if runner is None:
        runner = SweepRunner(engine=engine)
    results = runner.run(specs)
    return [
        SweepPoint(parameters={parameter_name: value}, row=result.row())
        for value, result in zip(values, results)
    ]
