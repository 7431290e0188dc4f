"""Core guarded-command framework: the paper's Section 2 model.

Execution-engine architecture — **System = semantics and oracle,
compiled tables = speed, one expander = exact analysis** (the full guide
lives in ``docs/architecture.md``):

* :class:`~repro.core.system.System` is the readable, validating
  reference implementation of the step semantics: every guard and outcome
  statement runs against a freshly built
  :class:`~repro.core.view.View` of the pre-step configuration.  It is
  the single source of truth for what a step *means*, the scalar oracle
  every fast path is tested against, and the fallback for systems whose
  tables do not fit the compilation budget.  The scalar paths read it
  directly: simulation (:func:`repro.core.simulate.run` /
  :func:`~repro.core.simulate.run_until`), the scalar Monte-Carlo
  engine, the chain builder's ``engine="scalar"`` and the explorer's
  FIFO dict walk.
* :class:`~repro.core.encoding.StateEncoding` and
  :func:`~repro.core.encoding.compile_tables` are the fast path.  The
  locally-shared-memory model makes a process's enabled actions and
  post-states a function of its own and its neighbors' local states, so
  :meth:`~repro.core.system.System.resolve_neighborhood` runs once per
  neighborhood of one member per process class; local states intern to
  dense integer codes, configurations become NumPy ``uint32`` vectors,
  and the resolutions pack into flat gather arrays —
  compiled once per system content and shared process-wide through
  :func:`~repro.core.encoding.tables_for` — so whole Monte-Carlo batches
  advance in lockstep as ``(trials × processes)`` code matrices
  (:class:`repro.markov.batch.BatchEngine`, driven through
  ``MonteCarloRunner(engine="auto"|"batch")``).  The batch tier
  reproduces the scalar engine's sampling *distributions* — not its
  random streams — and ``engine="scalar"`` remains the per-trial
  equivalence oracle.
* :func:`repro.markov.builder.build_chain`'s code-space expander reads
  the same compiled tables: configurations are mixed-radix ranks over
  the immutable :class:`~repro.core.encoding.CompiledKernelTables`, and
  chains, parametric chains, MDPs and
  :meth:`~repro.stabilization.statespace.StateSpace.explore` are views of
  its expansion.  Unlike the batch tier's distribution-level
  equivalence, compiled exploration is **bit-for-bit** identical to the
  FIFO dict walk over ``System`` — the dict walk is the oracle.
"""

from repro.core.actions import (
    Action,
    Outcome,
    PROBABILITY_TOLERANCE,
    Statement,
    deterministic_action,
)
from repro.core.algorithm import Algorithm
from repro.core.configuration import (
    Configuration,
    LocalState,
    configuration_as_dicts,
    configuration_from_dicts,
    count_configurations,
    enumerate_configurations,
    make_configuration,
    replace_local,
)
from repro.core.encoding import (
    CompiledKernelTables,
    StateEncoding,
    compile_tables,
    tables_for,
)
from repro.core.parametric import (
    MAX_COIN_PARAMETERS,
    AffineProbability,
    CoinParameter,
)
from repro.core.simulate import (
    SchedulerSampler,
    SimulationResult,
    run,
    run_until,
)
from repro.core.system import Branch, Move, System, compose_branches
from repro.core.topology import OrientedRing, Topology
from repro.core.trace import Lasso, Step, Trace, lasso_from_trace
from repro.core.variables import BOTTOM, VariableLayout, VarSpec
from repro.core.view import View

__all__ = [
    "Action",
    "Outcome",
    "Statement",
    "PROBABILITY_TOLERANCE",
    "deterministic_action",
    "Algorithm",
    "Configuration",
    "LocalState",
    "make_configuration",
    "replace_local",
    "enumerate_configurations",
    "count_configurations",
    "configuration_as_dicts",
    "configuration_from_dicts",
    "StateEncoding",
    "CompiledKernelTables",
    "compile_tables",
    "tables_for",
    "CoinParameter",
    "AffineProbability",
    "MAX_COIN_PARAMETERS",
    "SchedulerSampler",
    "SimulationResult",
    "run",
    "run_until",
    "System",
    "Branch",
    "Move",
    "compose_branches",
    "Topology",
    "OrientedRing",
    "Trace",
    "Step",
    "Lasso",
    "lasso_from_trace",
    "BOTTOM",
    "VarSpec",
    "VariableLayout",
    "View",
]
