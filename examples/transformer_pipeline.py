#!/usr/bin/env python3
"""The weak-to-probabilistic transformer, end to end (Section 4).

Takes Algorithm 3 (which *requires* simultaneous moves), shows where it
fails (central schedulers), applies ``Trans(·)``, and measures the result
exactly: absorption probabilities and expected stabilization times under
the synchronous and randomized schedulers, cross-validated against the
lumped chain and a Monte-Carlo estimate.

Run:  python examples/transformer_pipeline.py
"""

from repro.algorithms.two_process import BothTrueSpec, make_two_process_system
from repro.analysis.tables import format_table
from repro.markov.builder import build_chain
from repro.markov.hitting import hitting_summary
from repro.markov.lumping import lumped_synchronous_transformed_chain
from repro.markov.montecarlo import MonteCarloRunner
from repro.random_source import RandomSource
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
from repro.schedulers.samplers import SynchronousSampler
from repro.stabilization.classify import classify
from repro.transformer.coin_toss import TransformedSpec, make_transformed_system


def main() -> None:
    base = make_two_process_system()
    spec = BothTrueSpec()

    print("== step 1: classify the deterministic input ==")
    rows = []
    for relation in (
        CentralRelation(),
        DistributedRelation(),
        SynchronousRelation(),
    ):
        verdict = classify(base, spec, relation)
        rows.append(
            {
                "scheduler": relation.name,
                "possible": verdict.possible_convergence,
                "certain": verdict.certain_convergence,
                "class": verdict.stabilization_class,
            }
        )
    print(format_table(rows))

    print("\n== step 2: apply Trans(·) and solve the chains exactly ==")
    transformed = make_transformed_system(base)
    tspec = TransformedSpec(spec, base)
    rows = []
    for name, distribution in (
        ("synchronous", SynchronousDistribution()),
        ("distributed-randomized", DistributedRandomizedDistribution()),
        ("central-randomized", CentralRandomizedDistribution()),
    ):
        chain = build_chain(transformed, distribution)
        summary = hitting_summary(chain, chain.mark(tspec.legitimate))
        rows.append(
            {
                "scheduler": name,
                "min absorption": round(summary.min_absorption, 6),
                "worst E[steps]": summary.worst_expected_steps,
                "mean E[steps]": summary.mean_expected_steps,
            }
        )
    print(format_table(rows))
    print(
        "(central-randomized still fails: one coin per step can never"
        " flip both booleans together — simultaneity is essential)"
    )

    print("\n== step 3: lumped chain cross-check ==")
    lumped = lumped_synchronous_transformed_chain(base)
    lumped_summary = hitting_summary(lumped, lumped.mark(spec.legitimate))
    print(
        f"lumped worst/mean E[rounds]:"
        f" {lumped_summary.worst_expected_steps:.4f} /"
        f" {lumped_summary.mean_expected_steps:.4f}"
        f"  (matches the full chain above)"
    )

    print("\n== step 4: Monte-Carlo validation ==")
    result = MonteCarloRunner(transformed).estimate(
        SynchronousSampler(),
        lambda c: tspec.legitimate(transformed, c),
        trials=2000,
        max_steps=100_000,
        rng=RandomSource(99),
    )
    print(
        f"{result.trials} synchronous runs: mean"
        f" {result.stats.mean:.3f} rounds"
        f" (95% CI ±{result.stats.ci95_half_width:.3f}),"
        f" censored {result.censored}"
    )


if __name__ == "__main__":
    main()
