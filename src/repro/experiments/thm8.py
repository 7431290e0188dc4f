"""THM8 — Theorem 8: the transformed system is probabilistically
self-stabilizing under the synchronous scheduler.

For each deterministic weak-stabilizing input we apply the Section 4
coin-toss transformer and verify, exactly:

* **Lemma 1 (strong closure)** — no synchronous step leaves
  ``L_Prob = {γ : γ|S_Det ∈ L_Det}``;
* **Lemma 2 (step correspondence)** — the transformed system can mimic any
  base execution, checked via possible convergence of the transformed
  space;
* **probabilistic convergence** — the synchronous Markov chain of the
  transformed system absorbs into ``L_Prob`` with probability 1, with
  finite expected stabilization times;
* **lumping cross-check** — the expected times agree with the lumped
  chain on the base configuration space (each enabled process moves
  independently with probability ½).

The greedy-coloring case is the showcase: deterministic greedy coloring
*livelocks* synchronously on K2, while its transformed version converges.
"""

from __future__ import annotations

import numpy as np

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
from repro.markov.lumping import lumped_synchronous_transformed_chain
from repro.schedulers.distributions import SynchronousDistribution
from repro.schedulers.relations import SynchronousRelation
from repro.stabilization.closure import check_strong_closure
from repro.stabilization.convergence import possible_convergence
from repro.stabilization.statespace import StateSpace
from repro.transformer.coin_toss import TransformedSpec, make_transformed_system

EXPERIMENT_ID = "THM8"


def _cases():
    yield (
        "trans(Algorithm 1, N=4)",
        make_token_ring_system(4),
        TokenCirculationSpec(),
    )
    yield (
        "trans(Algorithm 2, 4-chain)",
        make_leader_tree_system(figure3_chain()),
        TreeLeaderSpec(),
    )
    yield (
        "trans(Algorithm 3)",
        make_two_process_system(),
        BothTrueSpec(),
    )
    yield (
        "trans(greedy coloring, K2)",
        make_coloring_system(complete(2)),
        ProperColoringSpec(),
    )


def run_thm8(engine: str = "auto") -> ExperimentResult:
    """Closure + probability-1 convergence + lumping agreement.

    ``engine`` forwards to both chain builds (full transformed chain and
    lumped base-space chain).
    """
    rows = []
    all_pass = True
    for label, base_system, base_spec in _cases():
        transformed = make_transformed_system(base_system)
        spec = TransformedSpec(base_spec, base_system)

        space = StateSpace.explore(transformed, SynchronousRelation())
        legitimate = space.legitimate_mask(spec)
        closure_ok = not check_strong_closure(space, legitimate)
        possible, _ = possible_convergence(space, legitimate)

        chain = build_chain(
            transformed, SynchronousDistribution(), engine=engine
        )
        summary = hitting_summary(chain, chain.mark(spec))

        lumped = lumped_synchronous_transformed_chain(
            base_system, engine=engine
        )
        lumped_summary = hitting_summary(
            lumped, lumped.mark(base_spec)
        )
        lumping_agrees = bool(
            np.isclose(
                summary.worst_expected_steps,
                lumped_summary.worst_expected_steps,
                rtol=1e-6,
                atol=1e-6,
            )
            and np.isclose(
                summary.mean_expected_steps,
                lumped_summary.mean_expected_steps,
                rtol=1e-6,
                atol=1e-6,
            )
        )
        ok = (
            closure_ok
            and possible
            and summary.converges_with_probability_one
            and lumping_agrees
        )
        all_pass = all_pass and ok
        rows.append(
            {
                "system": label,
                "|C_Prob|": space.num_configurations,
                "Lemma 1 closure": closure_ok,
                "Lemma 2 possible": possible,
                "prob-1": summary.converges_with_probability_one,
                "worst E[rounds]": round(summary.worst_expected_steps, 4),
                "mean E[rounds]": round(summary.mean_expected_steps, 4),
                "lumped agrees": lumping_agrees,
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Theorem 8: transformed systems are probabilistically"
        " self-stabilizing under the synchronous scheduler",
        paper_claim=(
            "Trans(·) turns any finite deterministic weak-stabilizing"
            " system (distributed scheduler) into a probabilistic"
            " self-stabilizing system for the synchronous scheduler"
            " (Lemmas 1-3)."
        ),
        measured=(
            "closure of L_Prob, possible convergence, absorption"
            " probability 1 with finite expected rounds, and exact"
            f" agreement with the lumped chain on every case: {all_pass}"
        ),
        passed=all_pass,
        rows=rows,
    )
