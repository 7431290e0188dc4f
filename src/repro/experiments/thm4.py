"""THM4 — Theorem 4: Algorithm 2 is weak-stabilizing on anonymous trees.

Exhaustive verification under the distributed scheduler relation on *all*
labeled trees of 2..5 nodes plus larger named trees (star, spider, the
Figure 2 tree), together with the supporting lemmas:

* Lemma 7 — in every configuration with no leader, some A1 is enabled;
* Lemma 10 — a configuration satisfies ``LC`` iff it is terminal;
* Theorem 4 — strong closure + possible convergence, while certain
  convergence fails on every tree with at least two nodes.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.leader_tree import (
    ParentPointers,
    TreeLeaderSpec,
    make_leader_tree_system,
)
from repro.core.encoding import expansion_context, tables_for
from repro.experiments.base import ExperimentResult
from repro.graphs.generators import figure2_tree, spider, star
from repro.graphs.graph import Graph
from repro.graphs.prufer import all_labeled_trees
from repro.markov.batch import MarkContext
from repro.schedulers.relations import CentralRelation, DistributedRelation
from repro.stabilization.classify import classify

EXPERIMENT_ID = "THM4"


def _lemmas_hold(system) -> tuple[bool, bool]:
    """Lemmas 7 and 10 on every configuration, over the compiled tables.

    Lemma 7: where no process has ``Par = ⊥``, some ``A1`` is enabled
    (read from the tables' per-row action index).  Lemma 10: ``LC``
    (computed from the ``Par`` codes) holds exactly where no process is
    enabled.
    """
    tables = tables_for(system)
    codes = expansion_context(tables).all_codes()
    keys = tables.pack(codes)
    parents = ParentPointers.of(system).parents(codes)
    a1 = [
        position
        for position, action in enumerate(system.actions)
        if action.name == "A1"
    ]
    leaderless = (parents >= 0).all(axis=1)
    some_a1 = tables.entries_with_action(a1).take(keys).any(axis=1)
    lemma7 = bool(some_a1[leaderless].all())
    enabled = tables.enabled(keys)
    legitimate = TreeLeaderSpec().batch_legitimacy(system).evaluate(
        codes, enabled, MarkContext(tables.encoding, tables)
    )
    lemma10 = bool(np.array_equal(legitimate, ~enabled.any(axis=1)))
    return lemma7, lemma10


def _check_tree(graph: Graph, relation) -> dict:
    system = make_leader_tree_system(graph)
    verdict = classify(system, TreeLeaderSpec(), relation)
    lemma7, lemma10 = _lemmas_hold(system)
    return {"verdict": verdict, "lemma7": lemma7, "lemma10": lemma10}


def run_thm4(exhaustive_max_nodes: int = 5) -> ExperimentResult:
    """All labeled trees up to the cutoff, plus named larger trees."""
    rows = []
    all_pass = True

    for n in range(2, exhaustive_max_nodes + 1):
        weak = certain_fails = lemma7 = lemma10 = 0
        total = 0
        for tree in all_labeled_trees(n):
            checked = _check_tree(tree, DistributedRelation())
            verdict = checked["verdict"]
            total += 1
            weak += verdict.is_weak_stabilizing
            certain_fails += not verdict.certain_convergence
            lemma7 += checked["lemma7"]
            lemma10 += checked["lemma10"]
        ok = weak == total and certain_fails == total
        ok = ok and lemma7 == total and lemma10 == total
        all_pass = all_pass and ok
        rows.append(
            {
                "trees": f"all labeled, n={n}",
                "count": total,
                "weak-stabilizing": f"{weak}/{total}",
                "certain fails": f"{certain_fails}/{total}",
                "Lemma 7": f"{lemma7}/{total}",
                "Lemma 10": f"{lemma10}/{total}",
            }
        )

    for label, graph in (
        ("star K1,5", star(5)),
        ("spider 3x2", spider(3, 2)),
        ("figure-2 tree (n=8)", figure2_tree()),
    ):
        checked = _check_tree(graph, CentralRelation())
        verdict = checked["verdict"]
        ok = (
            verdict.is_weak_stabilizing
            and not verdict.certain_convergence
            and checked["lemma7"]
            and checked["lemma10"]
        )
        all_pass = all_pass and ok
        rows.append(
            {
                "trees": f"{label} (central relation)",
                "count": 1,
                "weak-stabilizing": verdict.is_weak_stabilizing,
                "certain fails": not verdict.certain_convergence,
                "Lemma 7": checked["lemma7"],
                "Lemma 10": checked["lemma10"],
            }
        )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Theorem 4: Algorithm 2 weak-stabilizing leader election",
        paper_claim=(
            "Algorithm 2 is a deterministic weak-stabilizing leader-election"
            " algorithm under a distributed strongly fair scheduler"
            " (with Lemmas 7 and 10 supporting the proof)."
        ),
        measured=(
            "weak stabilization, failure of certain convergence, Lemma 7"
            f" and Lemma 10 hold on every tested tree: {all_pass}"
        ),
        passed=all_pass,
        rows=rows,
    )
