"""Numerical construction and certification of involutions on Banach
algebras from approximately involutive maps.

Pipeline: pick the contractive scaling direction for the control function,
stabilize f through the scaling limit I(x) = lim q^{-n} f(q^n x), then
verify the hypotheses, the closeness bound, the involution laws, and the
C*-identity on a sampled probe region.
"""

__version__ = "0.1.0"

from . import algebra, cli, fixedpoint, maps, stabilizer, verifier
from .algebra import (
    SCALAR,
    AlgebraKind,
    AlgebraSpec,
    Element,
    add,
    conj_transpose,
    element,
    matrix_spec,
    mul,
    norm,
    pointwise_spec,
    sample_element,
    scalar,
    scale,
    sub,
    zero,
)
from .errors import (
    ConfigError,
    DegenerateDirection,
    Exhausted,
    InvolStabError,
    IterateOverflow,
    KindSpecMismatch,
    NoContraction,
    NonCauchy,
    NotContractive,
    OutOfRange,
    SpecMismatch,
    StabilizationFailure,
)
from .maps import (
    ApproxMap,
    Involution,
    InvolutionKind,
    LambdaSampler,
    NO_PERTURBATION,
    PerturbationKind,
    PerturbationSpec,
    adjoint,
    antimul_defect,
    conjugation,
    cstar_defect,
    eval_f,
    eval_f_rows,
    eval_involution,
    eval_perturbation,
    jensen_defect,
    sample_lambdas,
    twisted_adjoint,
)
from .fixedpoint import (
    INF,
    AlternativeOutcome,
    Branch,
    FunctionSpaceMetric,
    GeneralizedMetricSpace,
    aposteriori_bound,
    function_space_distance,
    gmetric_check,
    iterate_alternative,
    ray_probes,
    scaling_operator,
)
from .stabilizer import (
    ControlFunction,
    ControlKind,
    Regime,
    ScalingDirection,
    StabilizationTrace,
    control_eval,
    control_of_x,
    corollary_constant,
    error_bound,
    power_product,
    power_sum,
    select_direction,
    stabilize_point,
    stabilize_points,
)
from .verifier import (
    BoundReport,
    CstarReport,
    DefectReport,
    LawReport,
    StabilizedMap,
    UniquenessReport,
    scan_hypotheses,
    verify_bound,
    verify_cstar,
    verify_involution_laws,
    verify_uniqueness,
)
