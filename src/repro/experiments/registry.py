"""Registry of all reproduction experiments."""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.experiments.abl1 import run_abl1
from repro.experiments.adv1 import run_adv1
from repro.experiments.alg3 import run_alg3
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.fig1 import run_fig1
from repro.experiments.opt1 import run_opt1
from repro.experiments.ft1 import run_ft1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.q1 import run_q1
from repro.experiments.q2 import run_q2
from repro.experiments.q3 import run_q3
from repro.experiments.q4 import run_q4
from repro.experiments.thm1 import run_thm1
from repro.experiments.thm2 import run_thm2
from repro.experiments.thm3 import run_thm3
from repro.experiments.thm4 import run_thm4
from repro.experiments.thm5 import run_thm5
from repro.experiments.thm6 import run_thm6
from repro.experiments.thm7 import run_thm7
from repro.experiments.thm8 import run_thm8
from repro.experiments.thm9 import run_thm9

__all__ = ["EXPERIMENTS", "campaign_family_ids", "get_experiment",
           "run_all", "all_ids"]

EXPERIMENTS: dict[str, Experiment] = {
    experiment.experiment_id: experiment
    for experiment in (
        Experiment(
            "FIG1",
            "Figure 1: legitimate execution of Algorithm 1",
            "Figure 1",
            run_fig1,
            {"ring_size": 6, "steps": 12},
        ),
        Experiment(
            "FIG2",
            "Figure 2: possible convergence of Algorithm 2",
            "Figure 2",
            run_fig2,
        ),
        Experiment(
            "FIG3",
            "Figure 3: synchronous non-convergence of Algorithm 2",
            "Figure 3",
            run_fig3,
        ),
        Experiment(
            "THM1",
            "Theorem 1: synchronous weak ⟺ self",
            "Theorem 1",
            run_thm1,
        ),
        Experiment(
            "THM2",
            "Theorem 2: Algorithm 1 weak-stabilizing",
            "Theorem 2",
            run_thm2,
            {"ring_sizes": (3, 4, 5, 6, 7, 8)},
        ),
        Experiment(
            "THM3",
            "Theorem 3: leader-election impossibility",
            "Theorem 3",
            run_thm3,
        ),
        Experiment(
            "THM4",
            "Theorem 4: Algorithm 2 weak-stabilizing",
            "Theorem 4",
            run_thm4,
            {"exhaustive_max_nodes": 5},
        ),
        Experiment(
            "THM5",
            "Theorem 5: Gouda fairness upgrades weak to self",
            "Theorem 5",
            run_thm5,
        ),
        Experiment(
            "THM6",
            "Theorem 6: Gouda ≻ strong fairness",
            "Theorem 6",
            run_thm6,
        ),
        Experiment(
            "THM7",
            "Theorem 7: randomized-scheduler equivalence",
            "Theorem 7",
            run_thm7,
        ),
        Experiment(
            "THM8",
            "Theorem 8: transformer vs synchronous scheduler",
            "Theorem 8",
            run_thm8,
        ),
        Experiment(
            "THM9",
            "Theorem 9: transformer vs distributed randomized scheduler",
            "Theorem 9",
            run_thm9,
        ),
        Experiment(
            "ALG3",
            "Algorithm 3: synchrony can be required",
            "Section 4 example",
            run_alg3,
        ),
        Experiment(
            "Q1",
            "Q1: expected stabilization time of trans(Algorithm 1)",
            "future work (extension)",
            run_q1,
            {
                "exact_sizes": (3, 4, 5, 6),
                "monte_carlo_sizes": (8, 10),
                "trials": 300,
                "seed": 2008,
                "max_steps": 200_000,
                "engine": "auto",
            },
        ),
        Experiment(
            "Q2",
            "Q2: expected stabilization time of trans(Algorithm 2)",
            "future work (extension)",
            run_q2,
            {
                "monte_carlo_sizes": (8, 10),
                "trials": 300,
                "seed": 2008,
                "max_steps": 200_000,
                "engine": "auto",
            },
        ),
        Experiment(
            "Q3",
            "Q3: baseline comparison on rings",
            "future work (extension)",
            run_q3,
            {
                "seed": 2008,
                "trials": 200,
                "dijkstra_exhaustive_sizes": (4, 5),
                "dijkstra_monte_carlo_sizes": (),
                "engine": "auto",
            },
        ),
        Experiment(
            "Q4",
            "Q4: design cost of the transformer",
            "conclusion trade-off (extension)",
            run_q4,
        ),
        Experiment(
            "ABL1",
            "ABL1: transformer coin-bias ablation",
            "design-choice ablation (extension)",
            run_abl1,
            {"biases": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)},
        ),
        Experiment(
            "FT1",
            "FT1: re-convergence after transient corruption",
            "robustness tier (extension)",
            run_ft1,
            {
                "ring_size": 8,
                "fault_step": 25,
                "trials": 400,
                "seed": 2008,
                "max_steps": 50_000,
                "engine": "auto",
            },
        ),
        Experiment(
            "ADV1",
            "ADV1: best/expected/worst daemon bracket",
            "robustness tier (extension)",
            run_adv1,
            {"max_states": 500_000},
        ),
        Experiment(
            "OPT1",
            "OPT1: certified optimal coin biases for Herman variants",
            "parametric tier (extension)",
            run_opt1,
            {"sizes": None, "tolerance": 0.05, "max_regions": 96},
        ),
    )
}


#: Larger-N parameterizations of the quantitative sweeps — affordable
#: only through the vectorized batch tier, and since PR 5 running their
#: Monte-Carlo points through the fused multi-point sweep engine
#: (``engine="fused"``, see :mod:`repro.markov.sweep_engine`): each
#: preset is ``(experiment id, overrides)`` merged over the
#: experiment's defaults by :func:`run_preset`.
PRESETS: dict[str, tuple[str, dict]] = {
    "Q1-large": (
        "Q1",
        {
            "monte_carlo_sizes": (20, 30, 40, 50),
            "trials": 1000,
            "engine": "fused",
        },
    ),
    "Q2-large": (
        "Q2",
        {
            "monte_carlo_sizes": (20, 30, 40, 50),
            "trials": 1000,
            "engine": "fused",
        },
    ),
    # "auto": every Dijkstra point fits the table budget (N = 40 stores
    # 320,000 class entries) and fuses; a point that ever outgrew the
    # budget would fall back to the scalar oracle instead of raising.
    "Q3-large": (
        "Q3",
        {
            "dijkstra_monte_carlo_sizes": (20, 30, 40),
            "trials": 1000,
            "engine": "auto",
        },
    ),
}


def preset_ids() -> list[str]:
    """Registered preset names, registry order."""
    return list(PRESETS)


def find_preset(name: str) -> str | None:
    """Canonical preset name for a case-insensitive lookup, or ``None``."""
    matches = {key.upper(): key for key in PRESETS}
    return matches.get(name.upper())


def run_preset(name: str) -> ExperimentResult:
    """Run a named preset (case-insensitive)."""
    key = find_preset(name)
    if key is None:
        raise ExperimentError(
            f"unknown preset {name!r}; known: {preset_ids()}"
        )
    experiment_id, overrides = PRESETS[key]
    return get_experiment(experiment_id).run(**overrides)


def campaign_family_ids() -> tuple[str, ...]:
    """Campaign point families runnable through the ``campaign`` verb.

    Families are registry *selections*, not experiments: each wraps one
    experiment's sweep shape (same systems, samplers, legitimacy) as a
    value-level description the campaign tier can shard, persist, and
    resume (see :mod:`repro.campaign.points`).
    """
    from repro.campaign.points import family_ids

    return family_ids()


def all_ids() -> list[str]:
    """Registered experiment ids, registry order."""
    return list(EXPERIMENTS)


def get_experiment(experiment_id: str) -> Experiment:
    """Lookup by id (case-insensitive)."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {all_ids()}"
        )
    return EXPERIMENTS[key]


def run_all(fast: bool = False) -> list[ExperimentResult]:
    """Run every experiment (``fast`` shrinks the heavy parameters)."""
    overrides: dict[str, dict] = {}
    if fast:
        overrides = {
            "THM2": {"ring_sizes": (3, 4, 5)},
            "THM4": {"exhaustive_max_nodes": 4},
            "Q1": {
                "exact_sizes": (3, 4),
                "monte_carlo_sizes": (8,),
                "trials": 50,
            },
            "Q2": {"monte_carlo_sizes": (8,), "trials": 50},
            "Q3": {"trials": 50},
            "ABL1": {"biases": (0.25, 0.5, 0.75)},
            "OPT1": {"sizes": (3, 5), "tolerance": 0.1, "max_regions": 48},
        }
    results = []
    for experiment_id, experiment in EXPERIMENTS.items():
        results.append(experiment.run(**overrides.get(experiment_id, {})))
    return results
