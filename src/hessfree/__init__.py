"""Hessian-free estimation and falsification of Hessian-Lipschitz
constants via Jensen-gap probes, plus the cocoercivity / convexity-split
and slice-reconstruction checks behind the equivalence."""

from .baillon_haddad import (
    CocoercivityReport,
    ConvexitySplitReport,
    check_cocoercive,
    cocoercivity_residual,
    convexity_split_check,
    lipschitz_from_cocoercivity,
)
from .estimate import (
    CrossValidationReport,
    LowerBoundCertificate,
    NoInformativeProbeError,
    ProbeLog,
    SearchBudget,
    ViolationCertificate,
    cross_validate,
    estimate_L,
    falsify,
    replay,
)
from .oracles import (
    BUILTIN_NAMES,
    DomainSampler,
    ScalarOracle,
    VectorOracle,
    as_vector_oracle,
    builtin,
    fd_jacobian,
    lip_from_hessians,
    lip_from_jacobians,
)
from .probe import (
    ProbeResult,
    best_t_probe,
    jensen_probe,
    midpoint_convexity_violation,
    two_point_probe,
)
from .slices import (
    derivative_norm_via_functionals,
    difference_matrix,
    functional_sup_ratio,
    reconstruct_derivative_action,
    slice_gradient_map,
    slice_map,
    slice_smoothness_check,
    unit_functional_set,
)
from .vecspace import (
    Configuration,
    SimplexWeights,
    convex_combination,
    norm2,
    pair_spread,
)

__version__ = "0.1.0"
