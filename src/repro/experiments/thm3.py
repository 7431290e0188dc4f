"""THM3 — Theorem 3: no deterministic self-stabilizing leader election
on anonymous trees.

The paper's proof considers the 4-chain, the mirror-symmetric
configuration class ``X = {⟨a, b, b, a⟩}``, and shows ``X`` is closed
under synchronous steps while containing no configuration that
distinguishes a leader.  We make the argument fully mechanical:

1. the synchronous step function commutes with the mirror automorphism σ
   for *every* configuration (equivariance — the anonymity argument);
2. therefore the σ-fixed class ``X`` is closed (checked directly too);
3. no configuration of ``X`` satisfies ``LC`` (a σ-fixed configuration
   elects leaders in σ-orbit pairs, never exactly one);
4. consequently every synchronous execution starting in ``X`` stays
   outside ``L`` forever — certain convergence fails.

The check runs for Algorithm 2 and for the log N-bit center-based leader
election (both leader-election algorithms of Section 3.2), which the
theorem says *cannot* be self-stabilizing.  Steps 1 and 2 run on every
configuration at once over the compiled tables
(:func:`~repro.stabilization.symmetry.check_symmetry`), step 3 marks
``X`` with the specification's batch form when it has one.
"""

from __future__ import annotations

from repro.algorithms.center_leader import (
    CenterLeaderAlgorithm,
    CenterLeaderSpec,
)
from repro.algorithms.leader_tree import LeaderTreeAlgorithm, TreeLeaderSpec
from repro.core.system import System
from repro.core.topology import Topology
from repro.experiments.base import ExperimentResult
from repro.graphs.generators import figure3_chain
from repro.core.encoding import tables_for
from repro.markov.batch import mark_states
from repro.stabilization.symmetry import check_symmetry, mirror_of_path

EXPERIMENT_ID = "THM3"

#: Port numbering of the 4-chain compatible with the mirror automorphism:
#: σ maps the k-th neighbor of p to the k-th neighbor of σ(p).  The
#: impossibility argument quantifies over port numberings — the adversary
#: is free to pick a symmetric one, and anonymity means the algorithm
#: cannot tell.
_SYMMETRIC_PORTS = ((1,), (0, 2), (3, 1), (2,))


def run_thm3() -> ExperimentResult:
    """Run the symmetry argument on both Section 3.2 algorithms."""
    graph = figure3_chain()
    sigma = mirror_of_path(4)
    topology = Topology(graph, neighbor_order=_SYMMETRIC_PORTS)
    rows = []
    all_pass = True
    for label, system, spec in (
        (
            "Algorithm 2",
            System(LeaderTreeAlgorithm(), topology),
            TreeLeaderSpec(),
        ),
        (
            "center-leader (log N bits)",
            System(CenterLeaderAlgorithm(), topology),
            CenterLeaderSpec(),
        ),
    ):
        check = check_symmetry(system, sigma)
        equivariant = bool(check.equivariant.all())
        count = len(check.symmetric)
        violations = check.violations
        legit_in_x = int(
            mark_states(
                spec,
                system,
                check.symmetric,
                lambda: check.symmetric_codes,
                lambda: tables_for(system),
            ).sum()
        )
        ok = equivariant and not violations and legit_in_x == 0 and count > 0
        all_pass = all_pass and ok
        rows.append(
            {
                "algorithm": label,
                "|C|": system.num_configurations(),
                "|X| (symmetric)": count,
                "step commutes with σ": equivariant,
                "X closed": not violations,
                "legitimate ∩ X": legit_in_x,
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Theorem 3: impossibility of self-stabilizing leader election",
        paper_claim=(
            "On the anonymous 4-chain the symmetric class ⟨a,b,b,a⟩ is"
            " closed under synchronous steps of any deterministic algorithm"
            " and never distinguishes a leader, so no deterministic"
            " self-stabilizing leader election exists (distributed strongly"
            " fair scheduler)."
        ),
        measured=(
            "for both leader-election algorithms: synchronous step is"
            " σ-equivariant, X is closed, and X contains no legitimate"
            f" configuration: {all_pass}"
        ),
        passed=all_pass,
        rows=rows,
    )
