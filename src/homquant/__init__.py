"""Dilation homogeneity toolkit.

Canonical homogeneous norms for strictly monotone linear dilations, the
straightened vector-space structure they induce, a polar-spherical state
quantizer that commutes with a discrete dilation subgroup, sampled property
checkers, and closed-loop simulation under quantized homogeneous feedback.
"""

from .checks import (
    SampleSpec,
    SectorSpec,
    check_field_homogeneity,
    check_hom_sector,
    check_quantizer_discrete_homogeneity,
    ratio_bounds_on_domain,
    sample_directions,
    sample_states,
)
from .dilation import (
    Dilation,
    dilation_norm_bounds,
    make_dilation,
)
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    DegreeMismatchError,
    DimensionTooSmallError,
    EmptyTrajectoryError,
    HomquantError,
    NegativeInputError,
    NoConvergenceError,
    NonFiniteInputError,
    NonFiniteStateError,
    NonPositiveFunctionError,
    NormOverflowError,
    NotMonotoneError,
    NotOnSphereError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    UnknownSuiteError,
    UnsupportedDimensionError,
    ZeroVectorError,
)
from .geometry import (
    FundamentalDomain,
    distance_bound_alpha1,
    hom_norm,
    hom_norm_many,
    hom_project,
    phi,
    phi_inv,
    phi_many,
    projection_index,
    tilde_scale,
)
from .quantizer import (
    QuantizerParams,
    angular_error_bound,
    epsilon_tilde,
    hom_quantize,
    hom_quantize_many,
    log_quantize,
    spherical_quantize,
    spherical_quantize_many,
    to_spherical,
    unit_from_angles,
)
from .simulation import (
    HomFeedback,
    HomPlant,
    Trajectory,
    example_plant,
    hom_feedback_eval,
    settling_metrics,
    simulate,
)

__version__ = "0.1.0"
