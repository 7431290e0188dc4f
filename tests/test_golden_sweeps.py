"""Golden-output regression: seeded Q1/Q2/Q3/FT1 sweep tables.

Small-N parameterizations of the quantitative experiments, pinned
row-for-row under ``tests/golden/``.  The ``*_small`` entries run
through ``engine="fused"``: initials from ``RandomSource(seed)``,
lockstep draws from the fold-seeded NumPy generator.  The
``*_small_scalar`` entries run every Monte-Carlo point through the
scalar oracle (``MonteCarloRunner`` ``engine="scalar"``: one seeded
``RandomSource`` stream per point, consumed by the per-trial cursor
loop), Q1/Q3 fault-free and FT1 with its six fault plans.  Both engines
are fully deterministic for a fixed seed, so any change to grouping,
seeding, retirement order, the trial loop's random-stream consumption,
or dispatch logic — or to the exact tiers feeding the same tables —
shows up as a golden diff instead of a silent distribution shift.

Regenerate after an *intentional* engine change with::

    PYTHONPATH=src python tests/test_golden_sweeps.py --regenerate

and review the diff like any other code change.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments.ft1 import run_ft1
from repro.experiments.q1 import run_q1
from repro.experiments.q2 import run_q2
from repro.experiments.q3 import run_q3

pytestmark = pytest.mark.conformance

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: Small-N configurations — cheap enough for tier-1, rich enough to
#: cover exact + Monte-Carlo rows of the sweeps on both engines.
GOLDEN_SWEEPS = {
    "q1_small": lambda: run_q1(
        exact_sizes=(3, 4),
        monte_carlo_sizes=(8,),
        trials=60,
        engine="fused",
    ),
    "q2_small": lambda: run_q2(
        monte_carlo_sizes=(8,), trials=60, engine="fused"
    ),
    "q3_small": lambda: run_q3(trials=40, engine="fused"),
    "q1_small_scalar": lambda: run_q1(
        exact_sizes=(3, 4),
        monte_carlo_sizes=(8,),
        trials=60,
        engine="scalar",
    ),
    "q3_small_scalar": lambda: run_q3(trials=40, engine="scalar"),
    "ft1_small_scalar": lambda: run_ft1(
        ring_size=6, trials=60, engine="scalar"
    ),
}


def _normalize(rows):
    """Round-trip through JSON so committed and fresh rows compare with
    identical types (tuples→lists, float formatting)."""
    return json.loads(json.dumps(rows))


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_fused_sweep_reproduces_golden_rows(name):
    golden_path = GOLDEN_DIR / f"{name}.json"
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; regenerate with"
        " PYTHONPATH=src python tests/test_golden_sweeps.py --regenerate"
    )
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    result = GOLDEN_SWEEPS[name]()
    assert result.passed, result.render()
    fresh = _normalize(result.rows)
    assert len(fresh) == len(golden["rows"]), (
        f"{name}: row count changed"
    )
    for position, (fresh_row, golden_row) in enumerate(
        zip(fresh, golden["rows"])
    ):
        assert fresh_row == golden_row, (
            f"{name}: row {position} diverged from the golden table\n"
            f"  golden: {golden_row}\n"
            f"  fresh : {fresh_row}"
        )


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, runner in sorted(GOLDEN_SWEEPS.items()):
        result = runner()
        payload = {
            "experiment": result.experiment_id,
            "title": result.title,
            "rows": _normalize(result.rows),
        }
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {path} ({len(payload['rows'])} rows)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
