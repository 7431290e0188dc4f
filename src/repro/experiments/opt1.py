"""OPT1 — optimal-bias-vs-N curves for the Herman coin variants.

Classic Herman fixes a fair coin.  Its randomized variants keep the
single-token specification but expose their coin biases as free design
parameters — and the parametric-chain stack (affine tables →
:class:`~repro.markov.parametric.ParametricChain` →
:func:`~repro.analysis.bias.synthesize_optimal_bias`) can *certify* the
optimal setting instead of eyeballing a sweep:

* **random-bit** / **random-pass** (one coin ``p``): symmetric
  dynamics, so the certified argmin boxes must straddle the fair coin —
  the synthesis rediscovers ``p* = 1/2`` with a certificate;
* **speed-reducer** / **speed-reducer2** (coins ``p, q`` / ``p, q, r``):
  asymmetric by construction — holding a token is only productive when
  the reduction gate releases it, so the optimum moves *off* the fair
  point and beats the all-fair default by a measurable margin.

Each row solves one family × ring-size cell exactly at every refinement
sample (structure and symbolic LU factorization built once per cell) and
reports the best assignment, the certified per-coin argmin intervals,
and the gain over the all-default (fair) coin.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.algorithms.herman_ring import HermanSingleTokenSpec
from repro.algorithms.herman_variants import (
    make_herman_random_bit_system,
    make_herman_random_pass_system,
    make_herman_speed_reducer2_system,
    make_herman_speed_reducer_system,
)
from repro.analysis.bias import synthesize_optimal_bias
from repro.core.system import System
from repro.experiments.base import ExperimentResult
from repro.markov.builder import DEFAULT_MAX_STATES
from repro.markov.parametric import ParametricChain
from repro.schedulers.distributions import SynchronousDistribution

EXPERIMENT_ID = "OPT1"

#: family key → (label, ring sizes, builder).  Ring sizes stay modest
#: for the multi-coin reducers: every extra coin multiplies both the
#: state space (the gate bit) and the refinement effort (boxes split
#: per dimension).
_FAMILIES: tuple[
    tuple[str, tuple[int, ...], Callable[[int], System]], ...
] = (
    ("random-bit", (5, 7, 9), make_herman_random_bit_system),
    ("random-pass", (5, 7, 9), make_herman_random_pass_system),
    ("speed-reducer", (3, 5), make_herman_speed_reducer_system),
    ("speed-reducer2", (3, 5), make_herman_speed_reducer2_system),
)


def _assignment_label(assignment: dict[str, float]) -> str:
    return ", ".join(
        f"{name}={value:.3f}" for name, value in sorted(assignment.items())
    )


def _interval_label(result) -> str:
    return ", ".join(
        "{}∈[{:.3f}, {:.3f}]".format(name, *result.interval(name))
        for name in result.param_names
    )


def run_opt1(
    sizes: Sequence[int] | None = None,
    tolerance: float = 0.05,
    max_regions: int = 96,
    objective: str = "mean",
    max_states: int = DEFAULT_MAX_STATES,
) -> ExperimentResult:
    """Certified optimal-bias synthesis per Herman variant and ring size.

    ``sizes`` (when given) filters every family's ring-size list — handy
    for fast runs; sizes a family does not declare are skipped.
    """
    rows = []
    all_consistent = True
    # Gains grow with the ring: judge each reducer family at the largest
    # size it ran (tiny rings converge in ~1 round under any coin).
    reducer_gain_at_largest: dict[str, float] = {}
    spec = HermanSingleTokenSpec()
    for family, family_sizes, build in _FAMILIES:
        for ring_size in family_sizes:
            if sizes is not None and ring_size not in sizes:
                continue
            pchain = ParametricChain(
                build(ring_size),
                SynchronousDistribution(),
                max_states=max_states,
            )
            target = pchain.mark(spec)
            result = synthesize_optimal_bias(
                pchain,
                target,
                objective=objective,
                tolerance=tolerance,
                max_regions=max_regions,
            )
            default_value = pchain.hitting_sweep(
                [pchain.default_assignment], target, objective
            )[0]
            gain = 100.0 * (1.0 - result.best_value / default_value)
            consistent = (
                result.contains(result.best_assignment)
                and result.best_value <= default_value + 1e-9
                and result.best_value > 0.0
            )
            all_consistent = all_consistent and consistent
            if family.startswith("speed-reducer"):
                reducer_gain_at_largest[family] = gain
            rows.append(
                {
                    "family": family,
                    "N": ring_size,
                    "states": pchain.num_states,
                    "best bias": _assignment_label(result.best_assignment),
                    "certified argmin box": _interval_label(result),
                    f"best {objective} E[steps]": round(result.best_value, 4),
                    "fair/default": round(default_value, 4),
                    "gain %": round(gain, 2),
                    "solves": result.num_solves,
                }
            )
    reducers_beat_fair = bool(reducer_gain_at_largest) and all(
        gain > 1.0 for gain in reducer_gain_at_largest.values()
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="OPT1: certified optimal coin biases for Herman variants",
        paper_claim=(
            "Randomized self-stabilizing protocols conventionally fix"
            " fair coins; the bias is really a free parameter, and"
            " region refinement can certify where the optimum lives."
        ),
        measured=(
            "certified boxes contain each best sample and best ≤ default"
            f" everywhere: {all_consistent}; each speed-reducer family"
            " beats its fair default by >1% at its largest ring:"
            f" {reducers_beat_fair}"
        ),
        passed=all_consistent and reducers_beat_fair,
        rows=rows,
    )
