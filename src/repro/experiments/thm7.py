"""THM7 — Theorem 7: Gouda-fair self-stabilization ⟺ probabilistic
self-stabilization under a randomized scheduler.

For a finite deterministic system, being self-stabilizing under Gouda's
fairness (equivalently — Theorem 5 — weak-stabilizing) is the same as
converging with probability 1 under Definition 6's randomized scheduler.
Computationally the two sides are:

* **structural** — possible convergence (no terminal SCC avoids L);
* **numeric** — the minimum absorption probability into L of the Markov
  chain induced by the randomized scheduler equals 1.

We evaluate both sides under the *central* and *distributed* randomized
schedulers for the paper's three algorithms plus a non-weak-stabilizing
control (greedy coloring under the synchronous-only dynamics is not
needed; the control here is Algorithm 3 restricted to central choices,
whose chain genuinely fails to absorb).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.leader_tree import TreeLeaderSpec, make_leader_tree_system
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.algorithms.two_process import BothTrueSpec, make_two_process_system
from repro.experiments.base import ExperimentResult
from repro.graphs.generators import figure3_chain, star
from repro.markov.builder import build_chain
from repro.markov.hitting import ABSORPTION_TOLERANCE, absorption_probabilities
from repro.schedulers.distributions import (
    CentralRandomizedDistribution,
    DistributedRandomizedDistribution,
)
from repro.schedulers.relations import CentralRelation, DistributedRelation
from repro.stabilization.convergence import possible_convergence
from repro.stabilization.statespace import StateSpace

EXPERIMENT_ID = "THM7"


def _cases():
    yield (
        "Algorithm 1 (ring N=5)",
        make_token_ring_system(5),
        TokenCirculationSpec(),
    )
    yield (
        "Algorithm 1 (ring N=6)",
        make_token_ring_system(6),
        TokenCirculationSpec(),
    )
    yield (
        "Algorithm 2 (4-chain)",
        make_leader_tree_system(figure3_chain()),
        TreeLeaderSpec(),
    )
    yield (
        "Algorithm 2 (star K1,3)",
        make_leader_tree_system(star(3)),
        TreeLeaderSpec(),
    )
    yield (
        "Algorithm 3",
        make_two_process_system(),
        BothTrueSpec(),
    )


def run_thm7(engine: str = "auto") -> ExperimentResult:
    """Compare structural and numeric convergence for both randomized
    schedulers.

    ``engine`` forwards to :func:`repro.markov.builder.build_chain`
    (``"scalar"`` re-runs the numeric side on the dict-walk oracle).
    """
    rows = []
    all_pass = True
    schedulers = (
        (
            "central",
            CentralRelation(),
            CentralRandomizedDistribution(),
        ),
        (
            "distributed",
            DistributedRelation(),
            DistributedRandomizedDistribution(),
        ),
    )
    for label, system, spec in _cases():
        for sched_label, relation, distribution in schedulers:
            space = StateSpace.explore(system, relation)
            legitimate = space.legitimate_mask(spec)
            possible, _ = possible_convergence(space, legitimate)
            chain = build_chain(system, distribution, engine=engine)
            absorption = absorption_probabilities(
                chain, chain.mark(spec)
            )
            min_absorption = float(np.min(absorption))
            prob_one = min_absorption >= 1.0 - ABSORPTION_TOLERANCE
            equivalence = possible == prob_one
            all_pass = all_pass and equivalence
            rows.append(
                {
                    "system": label,
                    "scheduler": sched_label,
                    "possible (=Gouda self-stab)": possible,
                    "min absorption": round(min_absorption, 10),
                    "prob-1 convergence": prob_one,
                    "equivalent": equivalence,
                }
            )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Theorem 7: Gouda self-stabilization ⟺ probabilistic"
        " self-stabilization (randomized scheduler)",
        paper_claim=(
            "A finite deterministic algorithm is self-stabilizing under"
            " Gouda's fairness iff it is probabilistically self-stabilizing"
            " under a randomized scheduler."
        ),
        measured=(
            "structural possible-convergence and absorption probability 1"
            f" agree on every (system, scheduler) pair: {all_pass}"
        ),
        passed=all_pass,
        rows=rows,
    )
