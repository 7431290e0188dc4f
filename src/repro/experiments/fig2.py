"""FIG2 — Figure 2: a possible convergence of Algorithm 2.

The paper's Figure 2 walks an 8-node tree from a configuration with no
leader to a terminal configuration of ``LC`` in five pictures.  The exact
tree is not recoverable from the OCR, so (as documented in DESIGN.md) we
use a tree satisfying the figure's stated constraints — A1 enabled exactly
at P1, P2, P7, P8; A2 exactly at P3, P5, P6; P4 stable — and let the
model checker produce a witness execution to a terminal ``LC``
configuration, which is the figure's actual claim (possible convergence).
"""

from __future__ import annotations

from repro.algorithms.leader_tree import (
    TreeLeaderSpec,
    figure2_initial_configuration,
    figure2_system,
    leaders,
    satisfies_lc,
)
from repro.experiments.base import ExperimentResult
from repro.schedulers.relations import CentralRelation
from repro.stabilization.statespace import StateSpace
from repro.stabilization.witnesses import converging_execution
from repro.viz.tree_art import render_enabled_actions, render_parent_pointers

EXPERIMENT_ID = "FIG2"

#: The enabled-action pattern the paper describes in configuration (i).
_EXPECTED_ENABLED = {
    0: ("A1",),
    1: ("A1",),
    2: ("A2",),
    3: (),
    4: ("A2",),
    5: ("A2",),
    6: ("A1",),
    7: ("A1",),
}


def run_fig2() -> ExperimentResult:
    """Check the initial pattern and build a converging witness execution."""
    system = figure2_system()
    initial = figure2_initial_configuration(system)

    pattern_ok = all(
        tuple(
            action.name
            for action in system.enabled_actions(initial, process)
        )
        == expected
        for process, expected in _EXPECTED_ENABLED.items()
    )
    no_initial_leader = not leaders(system, initial)

    # Central-scheduler steps are distributed-scheduler steps with
    # |subset| = 1, so a central witness proves possible convergence under
    # the paper's distributed scheduler while exploring far fewer edges.
    space = StateSpace.explore(system, CentralRelation())
    legitimate = space.legitimate_mask(TreeLeaderSpec())
    witness = converging_execution(
        space, legitimate, space.id_of(initial)
    )
    final_ok = satisfies_lc(system, witness.final) and system.is_terminal(
        witness.final
    )

    rows = [
        {
            "configuration": "(i) initial",
            "leaders": len(leaders(system, initial)),
            "enabled": render_enabled_actions(system, initial),
        },
        {
            "configuration": f"terminal after {witness.length} steps",
            "leaders": len(leaders(system, witness.final)),
            "enabled": render_enabled_actions(system, witness.final),
        },
    ]
    passed = pattern_ok and no_initial_leader and final_ok
    details = (
        "initial parent pointers:\n"
        + render_parent_pointers(system, initial)
        + f"\n\nwitness execution length: {witness.length} steps"
        + "\n\nterminal parent pointers (LC):\n"
        + render_parent_pointers(system, witness.final)
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Figure 2: possible convergence of Algorithm 2 (8-node tree)",
        paper_claim=(
            "From configuration (i) — no leader; A1 enabled at P1, P2, P7,"
            " P8; A2 at P3, P5, P6; P4 stable — some execution reaches a"
            " terminal configuration satisfying LC."
        ),
        measured=(
            f"initial enabled pattern matches the paper: {pattern_ok};"
            f" no initial leader: {no_initial_leader};"
            f" witness of {witness.length} steps reaches terminal LC:"
            f" {final_ok}"
        ),
        passed=passed,
        rows=rows,
        details=details,
    )
