"""THM9 — Theorem 9: the transformed system is probabilistically
self-stabilizing under the distributed randomized scheduler.

Same systems as THM8, but the scheduler now draws a uniform non-empty
subset of the enabled processes each step (Definition 6) before the coin
tosses are applied.  We verify absorption probability 1 into ``L_Prob``
and finite expected stabilization times, and additionally that the
*untransformed* deterministic systems converge under the same randomized
scheduler (Theorem 7's other reading) — the transformer's job is to also
survive the synchronous scheduler, not to replace the randomized one.
"""

from __future__ import annotations

from repro.algorithms.coloring import ProperColoringSpec, make_coloring_system
from repro.algorithms.leader_tree import TreeLeaderSpec, make_leader_tree_system
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.algorithms.two_process import BothTrueSpec, make_two_process_system
from repro.experiments.base import ExperimentResult
from repro.graphs.generators import complete, figure3_chain
from repro.markov.builder import build_chain
from repro.markov.hitting import hitting_summary
from repro.schedulers.distributions import DistributedRandomizedDistribution
from repro.transformer.coin_toss import TransformedSpec, make_transformed_system

EXPERIMENT_ID = "THM9"


def _cases():
    yield (
        "Algorithm 1 (N=4)",
        make_token_ring_system(4),
        TokenCirculationSpec(),
    )
    yield (
        "Algorithm 2 (4-chain)",
        make_leader_tree_system(figure3_chain()),
        TreeLeaderSpec(),
    )
    yield (
        "Algorithm 3",
        make_two_process_system(),
        BothTrueSpec(),
    )
    yield (
        "greedy coloring (K2)",
        make_coloring_system(complete(2)),
        ProperColoringSpec(),
    )


def run_thm9() -> ExperimentResult:
    """Absorption analysis of transformed and base systems."""
    rows = []
    all_pass = True
    distribution = DistributedRandomizedDistribution()
    for label, base_system, base_spec in _cases():
        transformed = make_transformed_system(base_system)
        spec = TransformedSpec(base_spec, base_system)
        transformed_chain = build_chain(transformed, distribution)
        transformed_summary = hitting_summary(
            transformed_chain, transformed_chain.mark(spec)
        )
        base_chain = build_chain(base_system, distribution)
        base_summary = hitting_summary(
            base_chain, base_chain.mark(base_spec)
        )
        ok = (
            transformed_summary.converges_with_probability_one
            and base_summary.converges_with_probability_one
        )
        all_pass = all_pass and ok
        rows.append(
            {
                "system": label,
                "base prob-1": base_summary.converges_with_probability_one,
                "base mean E[steps]": round(
                    base_summary.mean_expected_steps, 4
                ),
                "trans prob-1": (
                    transformed_summary.converges_with_probability_one
                ),
                "trans mean E[steps]": round(
                    transformed_summary.mean_expected_steps, 4
                ),
                "slowdown": round(
                    transformed_summary.mean_expected_steps
                    / base_summary.mean_expected_steps,
                    3,
                )
                if base_summary.mean_expected_steps > 0
                else "-",
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Theorem 9: transformed systems are probabilistically"
        " self-stabilizing under the distributed randomized scheduler",
        paper_claim=(
            "Trans(·) also yields probabilistic self-stabilization under"
            " the distributed randomized scheduler (Definition 6)."
        ),
        measured=(
            "both the transformed and the original systems absorb into L"
            " with probability 1 under the distributed randomized"
            f" scheduler on every case: {all_pass}"
        ),
        passed=all_pass,
        rows=rows,
    )
