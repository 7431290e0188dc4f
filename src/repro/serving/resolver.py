"""Wire format → executable objects: the serving tier's request parser.

HTTP clients describe work as plain JSON *coordinates* — the same
value-level contract the campaign tier uses for its shards
(:mod:`repro.campaign.points`): a sweep point is ``{"family": "Q1",
"n": 8, "trials": 200, "seed": 7}``, never a pickled system.  This
module validates those payloads and rebuilds live
:class:`~repro.markov.sweep_engine.SweepPointSpec` objects (and, for
verdict/classification queries, the family's exact-tier pairing of
system, specification, and scheduler distribution) through the shared
campaign family registry, so the service and the campaign runner can
never drift apart on what a family means.

Every validation failure raises :class:`~repro.errors.ServingError`
with a client-presentable message; the HTTP tier maps those to 400s.
"""

from __future__ import annotations

from typing import Mapping

from repro.campaign.points import CAMPAIGN_FAMILIES, family_parts
from repro.errors import CampaignError, ServingError
from repro.markov.sweep_engine import SweepPointSpec

__all__ = [
    "MAX_POINTS_PER_REQUEST",
    "PARAMETRIC_FAMILIES",
    "parametric_parts",
    "resolve_point",
    "resolve_points",
    "verdict_parts",
]

#: Hard bound on the number of points one submission may carry — a
#: single tenant cannot wedge the dispatcher with an unbounded matrix.
MAX_POINTS_PER_REQUEST = 256

_MAX_TRIALS = 100_000
_MAX_STEPS = 10_000_000
_MAX_N = 64


def _require_int(
    payload: Mapping, key: str, minimum: int, maximum: int, default=None
) -> int:
    if key not in payload:
        if default is None:
            raise ServingError(f"missing required field {key!r}")
        return default
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServingError(
            f"field {key!r} must be an integer, got {value!r}"
        )
    if not minimum <= value <= maximum:
        raise ServingError(
            f"field {key!r} must be in [{minimum}, {maximum}],"
            f" got {value}"
        )
    return value


def _family_of(payload: Mapping) -> str:
    family = payload.get("family")
    if not isinstance(family, str) or family not in CAMPAIGN_FAMILIES:
        raise ServingError(
            f"unknown family {family!r};"
            f" known: {', '.join(CAMPAIGN_FAMILIES)}"
        )
    return family


def resolve_point(payload: Mapping) -> SweepPointSpec:
    """One JSON point description → an executable sweep point.

    Required: ``family`` (a campaign family id), ``n`` (system size),
    ``seed``.  Optional: ``trials`` (default 100), ``max_steps``
    (default 100000), ``label`` (defaults to the point's coordinates).
    """
    if not isinstance(payload, Mapping):
        raise ServingError(
            f"point must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - {
        "family", "n", "trials", "seed", "max_steps", "label"
    }
    if unknown:
        raise ServingError(f"unknown point fields {sorted(unknown)}")
    family = _family_of(payload)
    n = _require_int(payload, "n", 2, _MAX_N)
    seed = _require_int(payload, "seed", 0, 2**62)
    trials = _require_int(payload, "trials", 1, _MAX_TRIALS, default=100)
    max_steps = _require_int(
        payload, "max_steps", 0, _MAX_STEPS, default=100_000
    )
    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise ServingError(f"label must be a string, got {label!r}")
    try:
        parts = family_parts(family, {"n": n})
    except CampaignError as error:
        raise ServingError(str(error)) from None
    return SweepPointSpec(
        system=parts["system"],
        sampler=parts["sampler"],
        legitimate=parts["legitimate"],
        trials=trials,
        max_steps=max_steps,
        seed=seed,
        batch_legitimate=parts["batch_legitimate"],
        label=label or f"{family}-n{n}-seed{seed}",
        fault=parts["fault"],
    )


def resolve_points(payload: Mapping) -> list[SweepPointSpec]:
    """A submission body ``{"points": [...]}`` → executable specs."""
    if not isinstance(payload, Mapping):
        raise ServingError("submission must be a JSON object")
    points = payload.get("points")
    if not isinstance(points, list) or not points:
        raise ServingError(
            "submission needs a non-empty 'points' array"
        )
    if len(points) > MAX_POINTS_PER_REQUEST:
        raise ServingError(
            f"too many points in one submission"
            f" ({len(points)} > {MAX_POINTS_PER_REQUEST})"
        )
    return [resolve_point(point) for point in points]


def verdict_parts(family: str, n: int) -> dict:
    """The exact-tier pairing of one family at size ``n`` — system,
    specification, and scheduler distribution — for probabilistic
    classification queries."""
    if not isinstance(family, str) or family not in CAMPAIGN_FAMILIES:
        raise ServingError(
            f"unknown family {family!r};"
            f" known: {', '.join(CAMPAIGN_FAMILIES)}"
        )
    n = _require_int({"n": n}, "n", 2, _MAX_N)
    return family_parts(family, {"n": n})


def _herman_random_bit(n: int):
    from repro.algorithms.herman_variants import (
        make_herman_random_bit_system,
    )

    return make_herman_random_bit_system(n)


def _herman_random_pass(n: int):
    from repro.algorithms.herman_variants import (
        make_herman_random_pass_system,
    )

    return make_herman_random_pass_system(n)


#: Parametric (coin-bias) families served by the bias-sweep endpoint.
#: Odd ring sizes only — the Herman construction demands it.
PARAMETRIC_FAMILIES = {
    "herman-random-bit": _herman_random_bit,
    "herman-random-pass": _herman_random_pass,
}


def parametric_parts(family: str, n: int) -> dict:
    """System + single-token specification of one parametric family."""
    builder = PARAMETRIC_FAMILIES.get(family)
    if builder is None:
        raise ServingError(
            f"unknown parametric family {family!r};"
            f" known: {', '.join(PARAMETRIC_FAMILIES)}"
        )
    # Wire edges grow ~9x per step of 2: 1.6M at n = 13, ~14M at n = 15.
    if not isinstance(n, int) or isinstance(n, bool) or not 3 <= n <= 13:
        raise ServingError(
            f"parametric ring size must be an odd integer in [3, 13]"
            f" (larger rings exhaust memory), got {n!r}"
        )
    if n % 2 == 0:
        raise ServingError(
            f"Herman rings need an odd number of processes, got {n}"
        )
    from repro.algorithms.herman_ring import HermanSingleTokenSpec

    return {"system": builder(n), "specification": HermanSingleTokenSpec()}
