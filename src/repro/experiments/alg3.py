"""ALG3 — Section 4's case study: synchrony can be indispensable.

Algorithm 3 converges from (false, false) only when both processes move
*simultaneously* — so it is weak-stabilizing under the distributed
scheduler, not stabilizing at all under central schedulers, and the
coin-toss transformer must (and does) retain a positive probability of
simultaneous moves.  We classify the system under the central,
distributed and synchronous relations, then show the transformed system
converges with probability 1 under both the synchronous scheduler and the
distributed randomized scheduler, while a *central* randomized scheduler
still fails — simultaneity is genuinely required.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.two_process import BothTrueSpec, make_two_process_system
from repro.experiments.base import ExperimentResult
from repro.markov.builder import build_chain
from repro.markov.hitting import (
    ABSORPTION_TOLERANCE,
    absorption_probabilities,
)
from repro.schedulers.distributions import (
    CentralRandomizedDistribution,
    DistributedRandomizedDistribution,
    SynchronousDistribution,
)
from repro.schedulers.relations import (
    CentralRelation,
    DistributedRelation,
    SynchronousRelation,
)
from repro.stabilization.classify import classify
from repro.transformer.coin_toss import TransformedSpec, make_transformed_system

EXPERIMENT_ID = "ALG3"


def run_alg3() -> ExperimentResult:
    """Classification matrix + transformed absorption analysis."""
    system = make_two_process_system()
    spec = BothTrueSpec()
    rows = []

    verdicts = {}
    for relation in (
        CentralRelation(),
        DistributedRelation(),
        SynchronousRelation(),
    ):
        verdict = classify(system, spec, relation)
        verdicts[relation.name] = verdict
        rows.append(
            {
                "system": "Algorithm 3",
                "scheduler": relation.name,
                "possible": verdict.possible_convergence,
                "certain": verdict.certain_convergence,
                "class": verdict.stabilization_class,
            }
        )

    transformed = make_transformed_system(system)
    tspec = TransformedSpec(spec, system)
    absorptions = {}
    for name, distribution in (
        ("synchronous", SynchronousDistribution()),
        ("distributed-randomized", DistributedRandomizedDistribution()),
        ("central-randomized", CentralRandomizedDistribution()),
    ):
        chain = build_chain(transformed, distribution)
        absorption = absorption_probabilities(
            chain, chain.mark(tspec)
        )
        min_absorption = float(np.min(absorption))
        absorptions[name] = min_absorption
        rows.append(
            {
                "system": "trans(Algorithm 3)",
                "scheduler": name,
                "possible": "-",
                "certain": "-",
                "class": (
                    "probabilistically self-stabilizing"
                    if min_absorption >= 1.0 - ABSORPTION_TOLERANCE
                    else f"fails (min absorption {min_absorption:.3f})"
                ),
            }
        )

    passed = (
        verdicts["distributed"].is_weak_stabilizing
        and not verdicts["central"].possible_convergence
        and absorptions["synchronous"] >= 1.0 - ABSORPTION_TOLERANCE
        and absorptions["distributed-randomized"]
        >= 1.0 - ABSORPTION_TOLERANCE
        and absorptions["central-randomized"] < 0.5
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Algorithm 3: some weak-stabilizing systems require"
        " simultaneous moves",
        paper_claim=(
            "Algorithm 3 needs p and q to move simultaneously from"
            " (false,false): weak-stabilizing under the distributed"
            " scheduler, unsolvable centrally, and its transformed version"
            " converges with probability 1 under synchronous and"
            " distributed randomized schedulers."
        ),
        measured=(
            f"distributed: {verdicts['distributed'].stabilization_class};"
            f" central possible convergence:"
            f" {verdicts['central'].possible_convergence};"
            f" transformed min absorption — synchronous"
            f" {absorptions['synchronous']:.3f}, distributed-randomized"
            f" {absorptions['distributed-randomized']:.3f},"
            f" central-randomized {absorptions['central-randomized']:.3f}"
        ),
        passed=passed,
        rows=rows,
    )
