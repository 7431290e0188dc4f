"""Q1 — quantitative extension: expected stabilization time of
trans(Algorithm 1).

The paper's conclusion names "the quantitative study of weak-stabilization
— evaluating the expected stabilization time of transformed algorithms"
as future work; this experiment performs it for the token ring:

* **exact** — expected rounds to a single token under the synchronous
  scheduler, via the lumped chain on the base configuration space
  (worst and mean over all m_N^N initial configurations);
* **exact** — expected steps under the central randomized scheduler of
  the *untransformed* algorithm (Theorem 7's regime) for comparison;
* **Monte-Carlo** — larger rings, simulating the transformed system under
  the synchronous sampler.
"""

from __future__ import annotations

from repro.algorithms.number_theory import smallest_non_divisor
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.experiments.base import ExperimentResult
from repro.markov.batch import EnabledCountLegitimacy
from repro.markov.builder import build_chain
from repro.markov.hitting import hitting_summary
from repro.markov.lumping import lumped_synchronous_transformed_chain
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.random_source import RandomSource
from repro.schedulers.distributions import CentralRandomizedDistribution
from repro.schedulers.samplers import SynchronousSampler
from repro.transformer.coin_toss import TransformedSpec, make_transformed_system

EXPERIMENT_ID = "Q1"

#: ``L_Prob`` compiled once for both vectorized tiers — the batch
#: Monte-Carlo engine and :meth:`MarkovChain.mark` on exact chains: a
#: process holds a token iff its (guard-preserving) action is enabled,
#: so "exactly one token" is "exactly one enabled process".
TOKEN_LEGITIMACY = EnabledCountLegitimacy(1)


def run_q1(
    exact_sizes: tuple[int, ...] = (3, 4, 5, 6),
    monte_carlo_sizes: tuple[int, ...] = (8, 10),
    trials: int = 300,
    seed: int = 2008,
    max_steps: int = 200_000,
    engine: str = "auto",
) -> ExperimentResult:
    """Sweep ring sizes; exact hitting times then Monte-Carlo estimates.

    ``monte_carlo_sizes`` up to N = 50 are affordable through the
    vectorized batch engine (see the ``Q1-large`` preset); ``engine``
    forwards to :class:`~repro.markov.sweep_engine.SweepRunner`
    (``"fused"``/``"auto"`` fuse the Monte-Carlo points into one sweep
    matrix, ``"scalar"`` is the seeded per-point oracle).
    """
    spec = TokenCirculationSpec()
    rows = []
    all_converge = True
    mean_by_n: dict[int, float] = {}

    for n in exact_sizes:
        system = make_token_ring_system(n)
        lumped = lumped_synchronous_transformed_chain(system)
        # The vectorized mark (token ⇔ enabled) replaces 2^N Python
        # predicate calls with one enabled-count gather per chain.
        sync_summary = hitting_summary(lumped, lumped.mark(TOKEN_LEGITIMACY))
        central_chain = build_chain(system, CentralRandomizedDistribution())
        central_summary = hitting_summary(
            central_chain, central_chain.mark(TOKEN_LEGITIMACY)
        )
        all_converge = (
            all_converge
            and sync_summary.converges_with_probability_one
            and central_summary.converges_with_probability_one
        )
        mean_by_n[n] = sync_summary.mean_expected_steps
        rows.append(
            {
                "N": n,
                "m_N": smallest_non_divisor(n),
                "method": "exact",
                "trans+sync worst E[rounds]": round(
                    sync_summary.worst_expected_steps, 3
                ),
                "trans+sync mean E[rounds]": round(
                    sync_summary.mean_expected_steps, 3
                ),
                "base central-rand mean E[steps]": round(
                    central_summary.mean_expected_steps, 3
                ),
            }
        )

    rng = RandomSource(seed)
    # All Monte-Carlo points run through one SweepRunner: same-system
    # points fuse into one code matrix, and compiled tables are
    # cached per ring size across the whole sweep.
    mc_points = []
    for n in monte_carlo_sizes:
        system = make_token_ring_system(n)
        transformed = make_transformed_system(system)
        tspec = TransformedSpec(spec, system)
        mc_points.append(
            SweepPointSpec(
                system=transformed,
                sampler=SynchronousSampler(),
                legitimate=lambda cfg, s=transformed, t=tspec: t.legitimate(
                    s, cfg
                ),
                trials=trials,
                max_steps=max_steps,
                seed=rng.spawn(n).seed,
                batch_legitimate=TOKEN_LEGITIMACY,
                label=f"trans-ring-{n}",
            )
        )
    mc_results = (
        SweepRunner(engine=engine).run(mc_points) if mc_points else []
    )
    for n, result in zip(monte_carlo_sizes, mc_results):
        all_converge = all_converge and result.censored == 0
        if result.stats is not None:
            mean_by_n[n] = result.stats.mean
        rows.append(
            {
                "N": n,
                "m_N": smallest_non_divisor(n),
                "method": f"monte-carlo ({trials} trials)",
                "trans+sync worst E[rounds]": (
                    result.stats.maximum if result.stats else "-"
                ),
                "trans+sync mean E[rounds]": (
                    round(result.stats.mean, 3) if result.stats else "-"
                ),
                "base central-rand mean E[steps]": "-",
            }
        )

    # Expected time tracks the counter modulus m_N as much as N (m_N is
    # not monotone in N), so growth is assessed within fixed-m_N groups.
    groups: dict[int, list[float]] = {}
    for n in sorted(mean_by_n):
        groups.setdefault(smallest_non_divisor(n), []).append(mean_by_n[n])
    growth_within_modulus = all(
        all(a <= b + 1e-9 for a, b in zip(means, means[1:]))
        for means in groups.values()
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Q1 (extension): expected stabilization time of"
        " trans(Algorithm 1)",
        paper_claim=(
            "Future work in the paper: transformed weak-stabilizing"
            " algorithms converge with probability 1; their expected"
            " stabilization time is finite and grows with N (at fixed"
            " counter modulus m_N)."
        ),
        measured=(
            f"probability-1 convergence on all sizes: {all_converge};"
            " mean expected rounds grow with N within each m_N group:"
            f" {growth_within_modulus}"
        ),
        passed=all_converge and growth_within_modulus,
        rows=rows,
    )
