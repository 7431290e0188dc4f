"""THM6 — Theorem 6: Gouda's fairness is *strictly* stronger than strong
fairness.

The paper's separating witness: Algorithm 1 on a 6-ring with two tokens
three apart, the scheduler alternately moving one token then the other —
every process acts infinitely often (strongly fair) yet the two tokens
never merge.  We reproduce the witness two ways:

1. **the paper's explicit execution** — alternate the two token holders
   with a scripted central scheduler until the configuration repeats,
   then check the lasso: strongly fair, *not* Gouda fair, never visits L;
2. **automated search** — the SCC-based detector of
   :func:`repro.stabilization.witnesses.find_strongly_fair_lasso` finds a
   strongly fair non-converging lasso without being told where to look.
"""

from __future__ import annotations

from repro.algorithms.token_ring import (
    TokenCirculationSpec,
    make_token_ring_system,
    token_holders,
    two_token_configuration,
)
from repro.core.trace import Step, Trace, lasso_from_trace
from repro.experiments.base import ExperimentResult
from repro.schedulers.fairness import fairness_report
from repro.schedulers.relations import CentralRelation
from repro.stabilization.statespace import StateSpace
from repro.stabilization.witnesses import find_strongly_fair_lasso
from repro.viz.ring_art import render_ring_execution

EXPERIMENT_ID = "THM6"


def _alternating_lasso(system):
    """The paper's execution: the two tokens move alternately."""
    configuration = two_token_configuration(system, 0, 3)
    trace = Trace.starting_at(configuration)
    seen = {configuration: 0}
    last_moved: int | None = None
    for _ in range(10_000):
        holders = token_holders(system, configuration)
        assert len(holders) == 2, "token count must stay two"
        # Alternate: move the holder that did not move last step (token
        # identity = the token whose previous position was last moved).
        mover = holders[0]
        if last_moved is not None:
            successor_of_last = system.topology.successor(last_moved)
            mover = next(
                h for h in holders if h != successor_of_last
            ) if successor_of_last in holders else holders[0]
        branch = next(
            iter(system.subset_branches(configuration, (mover,)))
        )
        trace.append(Step(branch.moves), branch.target)
        configuration = branch.target
        last_moved = mover
        if configuration in seen:
            return lasso_from_trace(trace, seen[configuration])
        seen[configuration] = trace.length
    raise AssertionError("alternating execution never repeated")


def run_thm6() -> ExperimentResult:
    """Build both witnesses and check their fairness signatures."""
    system = make_token_ring_system(6)
    spec = TokenCirculationSpec()
    relation = CentralRelation()

    # (1) the paper's explicit alternating execution
    lasso = _alternating_lasso(system)
    avoids_l = all(
        not spec.legitimate(system, configuration)
        for configuration in lasso.cycle_configurations
    )
    report = fairness_report(system, lasso, relation)

    # (2) automated SCC-based search over the full state space
    space = StateSpace.explore(system, relation)
    legitimate = space.legitimate_mask(spec)
    found = find_strongly_fair_lasso(space, legitimate)
    found_report = (
        fairness_report(system, found, relation) if found else None
    )
    found_avoids_l = found is not None and all(
        not spec.legitimate(system, configuration)
        for configuration in found.cycle_configurations
    )

    rows = [
        {
            "witness": "paper's alternating tokens",
            "cycle length": lasso.cycle_length,
            "avoids L": avoids_l,
            "weakly fair": report.weakly_fair,
            "strongly fair": report.strongly_fair,
            "Gouda fair": report.gouda_fair,
        },
        {
            "witness": "automated SCC search",
            "cycle length": found.cycle_length if found else "-",
            "avoids L": found_avoids_l,
            "weakly fair": found_report.weakly_fair if found_report else "-",
            "strongly fair": (
                found_report.strongly_fair if found_report else "-"
            ),
            "Gouda fair": found_report.gouda_fair if found_report else "-",
        },
    ]
    passed = (
        avoids_l
        and report.strongly_fair
        and not report.gouda_fair
        and found is not None
        and found_avoids_l
        and found_report.strongly_fair
        and not found_report.gouda_fair
    )
    art = render_ring_execution(
        system,
        [lasso.entry, *lasso.cycle_configurations[:5]],
        lambda s, c: token_holders(s, c),
        labels=[f"t={k}" for k in range(6)],
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Theorem 6: Gouda fairness strictly stronger than strong fairness",
        paper_claim=(
            "Algorithm 1 on a 6-ring admits a strongly fair execution"
            " (two tokens alternating) that never converges; under Gouda's"
            " fairness it would converge, so Gouda ≻ strong."
        ),
        measured=(
            f"alternating lasso (period {lasso.cycle_length}): strongly"
            f" fair {report.strongly_fair}, Gouda fair {report.gouda_fair},"
            f" avoids L {avoids_l}; automated search also found one:"
            f" {found is not None}"
        ),
        passed=passed,
        rows=rows,
        details="first steps of the alternating cycle (holders starred):\n"
        + art,
    )
