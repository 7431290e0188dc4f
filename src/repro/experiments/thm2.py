"""THM2 — Theorem 2: Algorithm 1 is weak- but not self-stabilizing.

Exhaustive verification on rings N = 3..7 under the distributed scheduler
relation: strong closure of the single-token set, possible convergence
from all m_N^N configurations (Lemma 5), token-passing behavior on the
legitimate sub-space (Lemma 6), Lemma 4 (no configuration is token-free),
and — the impossibility side the paper inherits from Herman/Angluin —
failure of certain convergence (a transient cycle exists), so the
algorithm is *not* deterministically self-stabilizing.
"""

from __future__ import annotations

from repro.algorithms.number_theory import smallest_non_divisor
from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
)
from repro.core.encoding import expansion_context, tables_for
from repro.core.system import System
from repro.experiments.base import ExperimentResult
from repro.schedulers.relations import DistributedRelation
from repro.stabilization.classify import classify
from repro.stabilization.profile import convergence_profile
from repro.stabilization.statespace import StateSpace

EXPERIMENT_ID = "THM2"


def _lemma4_holds(system: System) -> bool:
    """Every configuration holds a token.

    ``Token(p)`` is the guard of Algorithm 1's one action, so "some
    token" is "some enabled process": one gather over the code matrix
    of every configuration.
    """
    tables = tables_for(system)
    codes = expansion_context(tables).all_codes()
    return bool(tables.enabled(tables.pack(codes)).any(axis=1).all())


def run_thm2(
    ring_sizes: tuple[int, ...] = (3, 4, 5, 6, 7, 8)
) -> ExperimentResult:
    """Classify Algorithm 1 exhaustively on each ring size."""
    rows = []
    all_pass = True
    for n in ring_sizes:
        system = make_token_ring_system(n)
        lemma4 = _lemma4_holds(system)
        space = StateSpace.explore(system, DistributedRelation())
        verdict = classify(
            system,
            TokenCirculationSpec(),
            DistributedRelation(),
            space=space,
        )
        profile = convergence_profile(
            space,
            space.legitimate_mask(TokenCirculationSpec()),
        )
        ok = (
            lemma4
            and verdict.is_weak_stabilizing
            and not verdict.is_self_stabilizing
        )
        all_pass = all_pass and ok
        rows.append(
            {
                "N": n,
                "m_N": smallest_non_divisor(n),
                "|C|": verdict.num_configurations,
                "|L|": verdict.num_legitimate,
                "Lemma 4 (no 0-token)": lemma4,
                "closure": verdict.strong_closure,
                "possible": verdict.possible_convergence,
                "certain": verdict.certain_convergence,
                "max dist to L": profile.max_distance,
                "class": verdict.stabilization_class,
            }
        )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Theorem 2: Algorithm 1 weak-stabilizing token circulation",
        paper_claim=(
            "Algorithm 1 is a deterministic weak-stabilizing token-passing"
            " algorithm under a distributed strongly fair scheduler, while"
            " deterministic self-stabilizing token circulation is impossible"
            " on anonymous rings."
        ),
        measured=(
            "on every tested ring: at least one token everywhere (Lemma 4),"
            " strong closure + possible convergence (weak-stabilizing),"
            f" and certain convergence fails: {all_pass}"
        ),
        passed=all_pass,
        rows=rows,
    )
