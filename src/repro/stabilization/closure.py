"""Strong closure checking (Definitions 1-3, condition (i)).

``L`` is *strongly closed* when every step out of a legitimate
configuration lands in a legitimate configuration — so an execution that
reaches ``L`` stays in ``L`` forever, whatever the scheduler does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.stabilization.statespace import StateSpace

__all__ = ["ClosureViolation", "check_strong_closure"]


@dataclass(frozen=True)
class ClosureViolation:
    """A legitimate configuration with an escaping edge."""

    source_id: int
    target_id: int
    activation_mask: int


def check_strong_closure(
    space: StateSpace, legitimate: Sequence[bool]
) -> list[ClosureViolation]:
    """All edges leaving ``L``, in edge order; empty list means strong
    closure holds."""
    inside = np.asarray(legitimate, dtype=bool)
    sources, targets = space.sources, space.targets
    escaping = np.flatnonzero(inside[sources] & ~inside[targets])
    return [
        ClosureViolation(source, target, mask)
        for source, target, mask in zip(
            sources[escaping].tolist(),
            targets[escaping].tolist(),
            space.masks[escaping].tolist(),
        )
    ]
