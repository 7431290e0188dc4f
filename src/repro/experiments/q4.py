"""Q4 — extension: the design cost of the transformer.

The paper's conclusion argues for designing *weak*-stabilizing algorithms
and letting ``Trans(·)`` supply the randomness, instead of hand-crafting
probabilistic algorithms.  This experiment prices that convenience by
comparing, under the synchronous scheduler:

* **hand-crafted probabilistic designs** — randomized coloring (uniform
  redraw, palette Δ+2) and Herman's token protocol — against
* **transformed weak designs** — trans(greedy coloring, palette Δ+1) and
  trans(Algorithm 1).

Measured shape (which corrected our prior): the two approaches differ by
a **modest constant factor in both directions**.  The transformer's lazy
rounds cost it on K2, but everywhere else trans(greedy) *beats* the
uniform redraw, because the deterministic repair is smart (min free
color) while the hand-rolled coin is blind.  And on odd rings (m_N = 2)
Herman and trans(Algorithm 1) have *identical* projected dynamics, so
their expected times agree exactly — a cross-validation of both
implementations.
"""

from __future__ import annotations

import math

from repro.algorithms.coloring import ProperColoringSpec, make_coloring_system
from repro.algorithms.herman_ring import (
    HermanSingleTokenSpec,
    make_herman_system,
)
from repro.algorithms.randomized_coloring import (
    make_randomized_coloring_system,
)
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.experiments.base import ExperimentResult
from repro.graphs.generators import complete, path, ring
from repro.markov.lumping import lumped_synchronous_transformed_chain
from repro.schedulers.distributions import SynchronousDistribution
from repro.stabilization.probabilistic import classify_probabilistic

EXPERIMENT_ID = "Q4"


def _transformed_mean(base_system, spec) -> float:
    from repro.markov.hitting import hitting_summary

    lumped = lumped_synchronous_transformed_chain(base_system)
    summary = hitting_summary(lumped, lumped.mark(spec))
    assert summary.converges_with_probability_one
    return summary.mean_expected_steps


def run_q4() -> ExperimentResult:
    """Direct probabilistic designs vs transformed weak designs."""
    rows = []
    all_prob_one = True
    modest_factor = True

    for label, graph in (
        ("coloring K2", complete(2)),
        ("coloring P3", path(3)),
        ("coloring C4", ring(4)),
        ("coloring K3", complete(3)),
    ):
        direct = classify_probabilistic(
            make_randomized_coloring_system(graph),
            ProperColoringSpec(),
            SynchronousDistribution(),
        )
        transformed_mean = _transformed_mean(
            make_coloring_system(graph), ProperColoringSpec()
        )
        all_prob_one = (
            all_prob_one and direct.is_probabilistically_self_stabilizing
        )
        ratio = transformed_mean / direct.mean_expected_steps
        modest_factor = modest_factor and 0.5 <= ratio <= 2.0
        rows.append(
            {
                "problem": label,
                "direct design": "randomized redraw (Δ+2 colors)",
                "direct mean E[rounds]": round(
                    direct.mean_expected_steps, 3
                ),
                "transformed design": "trans(greedy, Δ+1 colors)",
                "trans mean E[rounds]": round(transformed_mean, 3),
                "overhead": round(
                    transformed_mean / direct.mean_expected_steps, 3
                )
                if direct.mean_expected_steps > 0
                else "-",
            }
        )

    herman_matches_transformer = True
    for n in (5, 7):
        herman = classify_probabilistic(
            make_herman_system(n),
            HermanSingleTokenSpec(),
            SynchronousDistribution(),
        )
        transformed_mean = _transformed_mean(
            make_token_ring_system(n), TokenCirculationSpec()
        )
        all_prob_one = (
            all_prob_one and herman.is_probabilistically_self_stabilizing
        )
        agrees = math.isclose(
            herman.mean_expected_steps, transformed_mean, rel_tol=1e-9
        )
        herman_matches_transformer = herman_matches_transformer and agrees
        rows.append(
            {
                "problem": f"token ring N={n} (m_N=2)",
                "direct design": "Herman [16]",
                "direct mean E[rounds]": round(
                    herman.mean_expected_steps, 3
                ),
                "transformed design": "trans(Algorithm 1)",
                "trans mean E[rounds]": round(transformed_mean, 3),
                "overhead": "1.0 (identical dynamics)" if agrees else "!",
            }
        )

    passed = all_prob_one and modest_factor and herman_matches_transformer
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Q4 (extension): the design cost of the transformer",
        paper_claim=(
            "The paper's pitch: design easy weak-stabilizing algorithms"
            " and let Trans(·) add the randomness.  The price should be a"
            " modest constant factor against hand-crafted probabilistic"
            " designs."
        ),
        measured=(
            f"all designs converge with probability 1: {all_prob_one};"
            " transformed-vs-direct expected-round ratio stays within"
            f" [0.5, 2.0]: {modest_factor} (transformed greedy even beats"
            " blind redraw off K2); on m_N=2 rings Herman ≡"
            f" trans(Algorithm 1) exactly: {herman_matches_transformer}"
        ),
        passed=passed,
        rows=rows,
    )
