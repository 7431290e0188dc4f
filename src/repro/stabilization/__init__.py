"""Stabilization definitions, model checker, and witness construction."""

from repro.stabilization.adversarial import (
    AdversarialVerdict,
    DaemonBracket,
    best_case_convergence,
    daemon_bracket,
    worst_case_convergence,
)
from repro.stabilization.classify import StabilizationVerdict, classify
from repro.stabilization.closure import ClosureViolation, check_strong_closure
from repro.stabilization.faults import (
    FAULT_MODES,
    CompiledFault,
    FaultPlan,
    compile_fault,
)
from repro.stabilization.convergence import (
    CertainConvergenceReport,
    certain_convergence,
    possible_convergence,
    shortest_distances_to_legitimate,
    strongly_connected_components,
    transient_cycles_exist,
)
from repro.stabilization.probabilistic import (
    ProbabilisticVerdict,
    classify_probabilistic,
)
from repro.stabilization.profile import (
    ConvergenceProfile,
    convergence_profile,
)
from repro.stabilization.specification import (
    PredicateSpecification,
    Specification,
)
from repro.stabilization.statespace import (
    LabeledEdge,
    StateSpace,
    mask_to_subset,
    subset_to_mask,
)
from repro.stabilization.symmetry import (
    check_symmetric_class_closed,
    is_equivariant_synchronous_step,
    mirror_of_path,
    symmetric_configurations,
    transport_configuration,
)
from repro.stabilization.witnesses import (
    converging_execution,
    find_gouda_witnesses,
    find_strongly_fair_lasso,
    recover_step,
    synchronous_lasso,
    synchronous_successor,
)

__all__ = [
    "StabilizationVerdict",
    "classify",
    "ClosureViolation",
    "check_strong_closure",
    "CertainConvergenceReport",
    "certain_convergence",
    "possible_convergence",
    "shortest_distances_to_legitimate",
    "strongly_connected_components",
    "transient_cycles_exist",
    "Specification",
    "PredicateSpecification",
    "StateSpace",
    "LabeledEdge",
    "subset_to_mask",
    "mask_to_subset",
    "converging_execution",
    "synchronous_lasso",
    "synchronous_successor",
    "find_strongly_fair_lasso",
    "find_gouda_witnesses",
    "recover_step",
    "transport_configuration",
    "symmetric_configurations",
    "is_equivariant_synchronous_step",
    "check_symmetric_class_closed",
    "mirror_of_path",
    "ConvergenceProfile",
    "convergence_profile",
    "ProbabilisticVerdict",
    "classify_probabilistic",
    "AdversarialVerdict",
    "DaemonBracket",
    "best_case_convergence",
    "daemon_bracket",
    "worst_case_convergence",
    "FAULT_MODES",
    "FaultPlan",
    "CompiledFault",
    "compile_fault",
]
