"""Experiment harness plumbing.

Every reproduction target (Figure 1-3, Theorem 1-9, the Algorithm 3 case
study, and the quantitative extensions Q1-Q3) is an :class:`Experiment`:
a callable producing an :class:`ExperimentResult` that pairs the *paper
claim* with the *measured outcome* plus the table rows a reader would
want.  ``EXPERIMENTS.md`` is generated from these results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.analysis.tables import format_table
from repro.errors import ExperimentError

__all__ = ["ExperimentResult", "Experiment"]


@dataclass
class ExperimentResult:
    """Outcome of one reproduction experiment."""

    experiment_id: str
    title: str
    paper_claim: str
    measured: str
    passed: bool
    rows: list[dict[str, Any]] = field(default_factory=list)
    details: str = ""

    def render(self) -> str:
        """Full human-readable report."""
        status = "PASS" if self.passed else "FAIL"
        parts = [
            f"[{status}] {self.experiment_id}: {self.title}",
            f"  paper claim : {self.paper_claim}",
            f"  measured    : {self.measured}",
        ]
        if self.rows:
            parts.append(_indent(format_table(self.rows), 2))
        if self.details:
            parts.append(_indent(self.details, 2))
        return "\n".join(parts)

    def markdown(self) -> str:
        """EXPERIMENTS.md section for this experiment."""
        status = "✅ PASS" if self.passed else "❌ FAIL"
        parts = [
            f"### {self.experiment_id} — {self.title}",
            "",
            f"* **Paper claim:** {self.paper_claim}",
            f"* **Measured:** {self.measured}",
            f"* **Status:** {status}",
        ]
        if self.rows:
            parts.extend(["", "```", format_table(self.rows), "```"])
        if self.details:
            parts.extend(["", "```", self.details, "```"])
        parts.append("")
        return "\n".join(parts)


def _indent(text: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(pad + line for line in text.splitlines())


@dataclass(frozen=True)
class Experiment:
    """A registered reproduction experiment."""

    experiment_id: str
    title: str
    paper_artifact: str
    runner: Callable[..., ExperimentResult]
    default_params: Mapping[str, Any] = field(default_factory=dict)

    def run(self, **overrides: Any) -> ExperimentResult:
        """Execute with defaults merged with per-call overrides."""
        params = dict(self.default_params)
        unknown = set(overrides) - set(params)
        if unknown:
            raise ExperimentError(
                f"{self.experiment_id}: unknown parameters {sorted(unknown)}"
                f" (accepted: {sorted(params)})"
            )
        params.update(overrides)
        result = self.runner(**params)
        if result.experiment_id != self.experiment_id:
            raise ExperimentError(
                f"runner returned id {result.experiment_id!r} for"
                f" {self.experiment_id!r}"
            )
        return result
