"""Q2 — quantitative extension: expected stabilization time of
trans(Algorithm 2) on trees.

Exact expected rounds (lumped synchronous chain) over all initial
configurations on small trees, then Monte-Carlo on random 8- and 10-node
trees.  The shape to observe: leader election stabilizes in a handful of
expected rounds on small trees, and chains are slower than stars of the
same size (information must travel the diameter).
"""

from __future__ import annotations

from repro.algorithms.leader_tree import TreeLeaderSpec, make_leader_tree_system
from repro.experiments.base import ExperimentResult
from repro.graphs.generators import path, random_tree, star
from repro.graphs.properties import diameter
from repro.markov.batch import EnabledCountLegitimacy
from repro.markov.hitting import hitting_summary
from repro.markov.lumping import lumped_synchronous_transformed_chain
from repro.markov.sweep_engine import SweepPointSpec, SweepRunner
from repro.random_source import RandomSource
from repro.schedulers.samplers import SynchronousSampler
from repro.transformer.coin_toss import TransformedSpec, make_transformed_system

EXPERIMENT_ID = "Q2"

#: ``L_Prob`` compiled for the batch engine: Lemma 10 says ``LC`` holds
#: iff the (projected) configuration is terminal, and the transformer
#: preserves guards, so legitimacy is "zero enabled processes".
LC_LEGITIMACY = EnabledCountLegitimacy(0)


def run_q2(
    monte_carlo_sizes: tuple[int, ...] = (8, 10),
    trials: int = 300,
    seed: int = 2008,
    max_steps: int = 200_000,
    engine: str = "auto",
) -> ExperimentResult:
    """Exact sweeps on named small trees; Monte-Carlo on random trees.

    ``monte_carlo_sizes`` up to N = 50 are affordable through the
    vectorized batch engine (see the ``Q2-large`` preset); ``engine``
    forwards to :class:`~repro.markov.sweep_engine.SweepRunner`
    (``"fused"``/``"auto"`` fuse the Monte-Carlo points, ``"scalar"``
    is the seeded per-point oracle)."""
    spec = TreeLeaderSpec()
    rows = []
    all_converge = True

    exact_cases = (
        ("path P3", path(3)),
        ("path P4", path(4)),
        ("path P5", path(5)),
        ("star K1,3", star(3)),
        ("star K1,4", star(4)),
    )
    mean_by_label: dict[str, float] = {}
    for label, graph in exact_cases:
        system = make_leader_tree_system(graph)
        lumped = lumped_synchronous_transformed_chain(system)
        summary = hitting_summary(lumped, lumped.mark(spec))
        all_converge = (
            all_converge and summary.converges_with_probability_one
        )
        mean_by_label[label] = summary.mean_expected_steps
        rows.append(
            {
                "tree": label,
                "n": graph.num_nodes,
                "diameter": diameter(graph),
                "method": "exact",
                "worst E[rounds]": round(summary.worst_expected_steps, 3),
                "mean E[rounds]": round(summary.mean_expected_steps, 3),
            }
        )

    rng = RandomSource(seed)
    # One SweepRunner fuses all Monte-Carlo tree points (block-scheduled
    # per size) over cached compiled tables.
    mc_points = []
    diameters = []
    for n in monte_carlo_sizes:
        graph = random_tree(n, rng.spawn(n))
        system = make_leader_tree_system(graph)
        transformed = make_transformed_system(system)
        tspec = TransformedSpec(spec, system)
        diameters.append(diameter(graph))
        mc_points.append(
            SweepPointSpec(
                system=transformed,
                sampler=SynchronousSampler(),
                legitimate=lambda cfg, s=transformed, t=tspec: t.legitimate(
                    s, cfg
                ),
                trials=trials,
                max_steps=max_steps,
                seed=rng.spawn(1000 + n).seed,
                batch_legitimate=LC_LEGITIMACY,
                label=f"trans-tree-{n}",
            )
        )
    mc_results = (
        SweepRunner(engine=engine).run(mc_points) if mc_points else []
    )
    for n, tree_diameter, result in zip(
        monte_carlo_sizes, diameters, mc_results
    ):
        all_converge = all_converge and result.censored == 0
        rows.append(
            {
                "tree": f"random tree (seed-derived)",
                "n": n,
                "diameter": tree_diameter,
                "method": f"monte-carlo ({trials} trials)",
                "worst E[rounds]": (
                    result.stats.maximum if result.stats else "-"
                ),
                "mean E[rounds]": (
                    round(result.stats.mean, 3) if result.stats else "-"
                ),
            }
        )

    paths_slower_than_stars = (
        mean_by_label["path P4"] >= mean_by_label["star K1,3"]
        and mean_by_label["path P5"] >= mean_by_label["star K1,4"]
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Q2 (extension): expected stabilization time of"
        " trans(Algorithm 2)",
        paper_claim=(
            "Future work in the paper: transformed weak-stabilizing"
            " algorithms converge with probability 1; deeper trees"
            " (larger diameter) stabilize more slowly."
        ),
        measured=(
            f"probability-1 convergence everywhere: {all_converge};"
            " mean expected rounds larger on paths than on same-size"
            f" stars: {paths_slower_than_stars}"
        ),
        passed=all_converge and paths_slower_than_stars,
        rows=rows,
    )
