"""Markov decision processes: the scheduler as an *adversary*.

The chain builder (:mod:`repro.markov.builder`) fixes a randomized
daemon — a probability distribution over activation subsets — and
collapses each configuration's outgoing structure into one probability
row.  This module keeps the structure *open*: each configuration keeps
one **action** per daemon choice (an enabled subset the daemon may
activate), and only the probabilistic layers below the daemon — uniform
action choice per mover and the actions' outcome distributions — stay
probabilistic.  The result is a finite MDP whose strategies are exactly
the daemons of the chosen family, so optimizing over strategies answers
the adversarial questions the paper's definitions pose:

* **min/max reachability** — the best/worst probability any daemon can
  force for eventually reaching the legitimate set (``1 − min`` is the
  adversary's probability of non-convergence);
* **min/max expected hitting time** — the best-case / worst-case
  expected stabilization time over daemons.

A randomized daemon of the same family (e.g. the central-randomized
distribution versus the ``"central"`` daemon) is one probabilistic
strategy inside the MDP's strategy space, so for every state::

    min value  ≤  chain expected value  ≤  max value

— the bracket invariant ``tests/test_mdp.py`` pins against the PR 4
compiled chains.

Wire format (flat CSR, two levels)::

    action_indptr : (S + 1,)  state s owns actions
                              action_indptr[s] : action_indptr[s + 1]
    edge_indptr   : (A + 1,)  action a owns edges
                              edge_indptr[a] : edge_indptr[a + 1]
    edge_target   : (E,)      successor state ids
    edge_prob     : (E,)      successor probabilities (sum to 1 per action)

The MDP is the third view of the chain builder's one expander
(:func:`repro.markov.builder._expand`): its plan is the daemon family's
scheduler relation, every subset at weight one (the relation's
``subsets``, in its order), edges are grouped into actions by (source,
choice), evaluated with the chain's expression ``1.0 · Π atoms /
action_choices``, and zero-probability edges are dropped.  States are
full-space mixed-radix enumeration ranks — identical ids to
``build_chain(system, distribution, initial=None)`` — and edges are
accumulated through the same emission-order CSR reduction
(:class:`repro.markov.builder._DedupPlan`), so cross-checks against the
chain tier compare array-to-array.  Terminal configurations get a
single self-loop action, so every state has at least one action and
every action at least one edge (``reduceat`` over the segment starts is
always well-formed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.configuration import Configuration
from repro.core.encoding import ranks_fit_int64, tables_for
from repro.core.system import System
from repro.errors import MarkovError
from repro.markov.batch import BatchLegitimacy, mark_states
from repro.markov.builder import (
    DEFAULT_MAX_STATES,
    _ChainContext,
    _DedupPlan,
    _edge_probs,
    _expand,
    _RelationPlan,
)
from repro.schedulers.relations import DistributedRelation, relation_by_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stabilization.specification import Specification

__all__ = [
    "MDP_DAEMONS",
    "MDP_OBJECTIVES",
    "MarkovDecisionProcess",
    "build_mdp",
]

#: Daemon families a :func:`build_mdp` adversary may range over.
MDP_DAEMONS = ("central", "distributed", "synchronous")

#: Accepted optimization directions.
MDP_OBJECTIVES = ("min", "max")

#: Reachability within this tolerance of one counts as certain — the
#: same contract as :data:`repro.markov.hitting.ABSORPTION_TOLERANCE`.
REACH_TOLERANCE = 1e-8

#: Value-iteration convergence threshold and sweep cap.
_VI_TOLERANCE = 1e-12
_VI_MAX_SWEEPS = 1_000_000


def _require_objective(objective: str) -> None:
    if objective not in MDP_OBJECTIVES:
        raise MarkovError(
            f"unknown objective {objective!r}; known: {MDP_OBJECTIVES}"
        )


class MarkovDecisionProcess:
    """One system's transition structure under an adversarial daemon.

    Construct through :func:`build_mdp`.  ``states`` are the full
    configuration space in enumeration order; the action/edge arrays
    follow the two-level flat CSR wire format of the module docstring.
    """

    def __init__(
        self,
        system: System,
        states: list[Configuration],
        daemon: str,
        action_indptr: np.ndarray,
        edge_indptr: np.ndarray,
        edge_target: np.ndarray,
        edge_prob: np.ndarray,
        encoding,
        codes: np.ndarray,
    ) -> None:
        self.system = system
        self.states = states
        self.daemon = daemon
        self.action_indptr = action_indptr
        self.edge_indptr = edge_indptr
        self.edge_target = edge_target
        self.edge_prob = edge_prob
        self.encoding = encoding
        self._codes = codes
        self._enabled: np.ndarray | None = None
        self._tables = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of states (the full configuration space)."""
        return len(self.states)

    @property
    def num_actions(self) -> int:
        """Total daemon choices across all states."""
        return int(self.edge_indptr.shape[0] - 1)

    def state_codes(self) -> np.ndarray:
        """``(S, N)`` local-state code matrix, state order."""
        return self._codes

    def mark(
        self,
        predicate: (
            "Specification | BatchLegitimacy"
            " | Callable[[System, Configuration], bool]"
        ),
    ) -> np.ndarray:
        """Boolean array evaluating a predicate on every state.

        Same contract as :meth:`repro.markov.chain.MarkovChain.mark`: a
        specification, a vectorized
        :class:`~repro.markov.batch.BatchLegitimacy` or a scalar
        ``predicate(system, configuration)``.
        """
        return mark_states(
            predicate,
            self.system,
            self.states,
            self.state_codes,
            lambda: self._tables,
        )

    # ------------------------------------------------------------------
    # solvers
    # ------------------------------------------------------------------
    def _action_values(self, x: np.ndarray) -> np.ndarray:
        """One Bellman backup: expected ``x`` over each action's edges.

        ``inf`` state values propagate as ``inf`` (zero-probability
        edges are dropped at build time, so ``0 · inf`` never occurs).
        """
        return np.add.reduceat(
            self.edge_prob * x[self.edge_target], self.edge_indptr[:-1]
        )

    def _optimize(self, values: np.ndarray, objective: str) -> np.ndarray:
        """Per-state min/max over the state's action segment."""
        reduce = np.minimum if objective == "min" else np.maximum
        return reduce.reduceat(values, self.action_indptr[:-1])

    def reachability(
        self, target: np.ndarray, objective: str
    ) -> np.ndarray:
        """Optimal probability of eventually reaching ``target``.

        ``objective="min"`` is the probability the *most hostile* daemon
        cannot push below; ``1 −`` it is the adversary's best probability
        of non-convergence.  ``objective="max"`` is the most helpful
        daemon's probability.  Computed as the least fixed point of the
        Bellman operator (value iteration from zero), which is the
        correct semantics for finite MDP reachability.
        """
        _require_objective(objective)
        target = np.asarray(target, dtype=bool)
        x = np.zeros(self.num_states, dtype=float)
        x[target] = 1.0
        for _ in range(_VI_MAX_SWEEPS):
            new = self._optimize(self._action_values(x), objective)
            new[target] = 1.0
            if np.abs(new - x).max() <= _VI_TOLERANCE:
                return new
            x = new
        raise MarkovError(
            "reachability value iteration did not converge within"
            f" {_VI_MAX_SWEEPS} sweeps"
        )

    def expected_hitting_times(
        self, target: np.ndarray, objective: str
    ) -> np.ndarray:
        """Optimal expected steps to reach ``target`` from every state.

        ``objective="min"`` is the best-case daemon (it may steer the
        system home), ``objective="max"`` the worst-case one.  A state's
        value is ``inf`` when the optimizing daemon cannot guarantee
        convergence with probability one — for ``"max"`` that is any
        state where *some* daemon achieves reach probability below one
        (it will play that daemon), for ``"min"`` any state where *no*
        daemon reaches with probability one.
        """
        _require_objective(objective)
        target = np.asarray(target, dtype=bool)
        # Certainty pre-pass: expected times are finite exactly on the
        # region where the optimizing player still converges almost
        # surely.  max E needs min-reach = 1; min E needs max-reach = 1.
        guard = "min" if objective == "max" else "max"
        reach = self.reachability(target, guard)
        certain = reach >= 1.0 - REACH_TOLERANCE
        x = np.full(self.num_states, np.inf)
        x[certain] = 0.0
        x[target] = 0.0
        finite = certain | target
        if not (~target & finite).any():
            return x
        for _ in range(_VI_MAX_SWEEPS):
            new = 1.0 + self._optimize(self._action_values(x), objective)
            new[target] = 0.0
            # ``inf`` entries are fixed points by construction; compare
            # on the mutually finite region (inf − inf is nan).
            both = np.isfinite(new) & np.isfinite(x)
            stable = (np.isfinite(new) == np.isfinite(x)).all()
            if stable and (
                not both.any() or np.abs(new[both] - x[both]).max() <= 1e-9
            ):
                return new
            x = new
        raise MarkovError(
            "expected-time value iteration did not converge within"
            f" {_VI_MAX_SWEEPS} sweeps"
        )


def build_mdp(
    system: System,
    daemon: str = "distributed",
    max_states: int = DEFAULT_MAX_STATES,
    max_enabled: int = 16,
) -> MarkovDecisionProcess:
    """Build the full-space MDP of ``system`` under a daemon family.

    ``daemon`` selects the adversary's choice space per configuration
    (the subsets of the scheduler relation of that name):
    ``"central"`` activates one enabled process, ``"distributed"`` any
    non-empty enabled subset, ``"synchronous"`` has no choice (useful
    for pinning the solvers against the synchronous chain).  Below the
    daemon the edges reproduce the chain builder's probability
    expression with subset weight one: uniform choice among a mover's
    enabled actions, times the outcome distribution.
    """
    if daemon not in MDP_DAEMONS:
        raise MarkovError(
            f"unknown daemon {daemon!r}; known: {MDP_DAEMONS}"
        )
    total = system.num_configurations()
    if total > max_states:
        raise MarkovError(
            f"configuration space has {total} states, budget is"
            f" {max_states}"
        )
    if not ranks_fit_int64(system):
        raise MarkovError(
            "configuration ranks exceed int64; the MDP tier requires"
            " an int64-rankable configuration space"
        )
    tables = tables_for(system)
    relation = (
        DistributedRelation(max_enabled)
        if daemon == "distributed"
        else relation_by_name(daemon)
    )
    context = _ChainContext(tables, _RelationPlan(relation))
    num_states = int(total)
    atom_values = context.atom_values
    states, codes, counts, targets, kept = _expand(
        system, context, None, max_states,
        lambda chunk: (
            chunk.choice,
            _edge_probs(chunk.weight, chunk.divisor, chunk.atoms, atom_values),
        ),
    )
    choice = np.concatenate([part[0] for part in kept])
    probs = np.concatenate([part[1] for part in kept])
    # Edges come source-major, then in plan order: an action is one run
    # of equal (source, choice).
    source = np.repeat(np.arange(num_states, dtype=np.int64), counts)
    starts = np.ones(source.shape[0], dtype=bool)
    starts[1:] = (source[1:] != source[:-1]) | (choice[1:] != choice[:-1])
    action_of_edge = np.cumsum(starts) - 1
    num_actions = int(action_of_edge[-1]) + 1
    positive = probs > 0.0
    plan = _DedupPlan(
        num_actions,
        np.bincount(action_of_edge[positive], minlength=num_actions),
        targets[positive],
        num_cols=num_states,
    )
    action_counts = np.bincount(source[starts], minlength=num_states)
    action_indptr = np.zeros(num_states + 1, dtype=np.int64)
    np.cumsum(action_counts, out=action_indptr[1:])
    mdp = MarkovDecisionProcess(
        system,
        states,
        daemon,
        action_indptr,
        plan.indptr,
        plan.indices,
        plan.accumulate(probs[positive]),
        tables.encoding,
        codes,
    )
    mdp._tables = tables
    return mdp
