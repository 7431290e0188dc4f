"""THM5 — Theorem 5 (Gouda): Gouda fairness turns weak into self.

A Gouda-fair infinite execution's infinitely-visited configuration set is
closed under *all* transitions, i.e. a union of terminal SCCs of the step
digraph.  Hence a finite weak-stabilizing system can only fail to converge
under Gouda fairness if some terminal SCC avoids ``L`` — and weak
stabilization (possible convergence) rules exactly that out.  We verify
the equivalence computationally: for each system,

    ``possible convergence  ⟺  no terminal SCC avoids L``

and for the paper's weak-stabilizing algorithms the witness list is empty.
A deliberately broken control system (Algorithm 3 under the *central*
relation, where convergence from (false,false) is impossible) shows the
witness detector firing.
"""

from __future__ import annotations

from repro.algorithms.leader_tree import TreeLeaderSpec, make_leader_tree_system
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.algorithms.two_process import BothTrueSpec, make_two_process_system
from repro.experiments.base import ExperimentResult
from repro.graphs.generators import figure3_chain, star
from repro.schedulers.relations import CentralRelation, DistributedRelation
from repro.stabilization.convergence import possible_convergence
from repro.stabilization.statespace import StateSpace
from repro.stabilization.witnesses import find_gouda_witnesses

EXPERIMENT_ID = "THM5"


def _cases():
    yield (
        "Algorithm 1 (ring N=6)",
        make_token_ring_system(6),
        TokenCirculationSpec(),
        DistributedRelation(),
        True,
    )
    yield (
        "Algorithm 2 (4-chain)",
        make_leader_tree_system(figure3_chain()),
        TreeLeaderSpec(),
        DistributedRelation(),
        True,
    )
    yield (
        "Algorithm 2 (star K1,4)",
        make_leader_tree_system(star(4)),
        TreeLeaderSpec(),
        DistributedRelation(),
        True,
    )
    yield (
        "Algorithm 3 (distributed)",
        make_two_process_system(),
        BothTrueSpec(),
        DistributedRelation(),
        True,
    )
    yield (
        "Algorithm 3 (central — control)",
        make_two_process_system(),
        BothTrueSpec(),
        CentralRelation(),
        False,
    )


def run_thm5() -> ExperimentResult:
    """Check the Gouda-convergence ⟺ possible-convergence equivalence."""
    rows = []
    all_pass = True
    for label, system, spec, relation, expect_converges in _cases():
        space = StateSpace.explore(system, relation)
        legitimate = space.legitimate_mask(spec)
        possible, _ = possible_convergence(space, legitimate)
        witnesses = find_gouda_witnesses(space, legitimate)
        gouda_converges = not witnesses
        equivalence = possible == gouda_converges
        ok = equivalence and gouda_converges == expect_converges
        all_pass = all_pass and ok
        rows.append(
            {
                "system": label,
                "relation": relation.name,
                "possible convergence": possible,
                "terminal SCCs avoiding L": len(witnesses),
                "Gouda-fair always converges": gouda_converges,
                "equivalence holds": equivalence,
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Theorem 5: Gouda's fairness upgrades weak to self-stabilization",
        paper_claim=(
            "A finite deterministic weak-stabilizing system is"
            " self-stabilizing under Gouda's strong fairness (every"
            " Gouda-fair execution converges)."
        ),
        measured=(
            "possible convergence coincides with the absence of terminal"
            " SCCs avoiding L on every case, including a non-weak-"
            f"stabilizing control: {all_pass}"
        ),
        passed=all_pass,
        rows=rows,
    )
