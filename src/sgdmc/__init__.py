"""Constant step-size SGD on separable objectives as a monotone iterated
function system: absorbing-set decomposition, invariant measures, basin
eigenfunctions, splitting-condition rate certificates, sampling, and the
diffusion-surrogate stationary density."""

__version__ = "0.1.0"

from .absorbing import (
    AbsorbingInterval,
    Decomposition,
    Rectangle,
    SignChart,
    absorbing_intervals,
    decompose,
    rectangle_count_for,
    sign_chart,
    uniqueness_check,
)
from .diffusion import (
    DiffusionProfile,
    density_cell_masses,
    stationary_density,
    vanishing_points,
)
from .dynamics import (
    EscapeReport,
    MapFamily,
    SampleSummary,
    SplittingCertificate,
    apply_path,
    escape_path,
    extremal_envelope,
    sgd_sample,
    splitting_certificate_multi,
    splitting_length_1d,
    uniform_escape_length,
    verify_certificate,
)
from .metrics import MetricConfig, d_F, d_alpha_rect, d_tilde, metric_config
from .objective import (
    CriticalPointReport,
    SeparableObjective,
    bernoulli_pair,
    crossed_quadratics_2d,
    double_well,
    double_well_potential,
    eighth_order,
    eighth_order_potential,
    eta_bound,
    lambda_split,
    lipschitz_constant,
    objective_from_config,
)
from .poly import Polynomial, critical_points, real_roots
from .transfer import (
    BasinFunctions,
    DiscreteMeasure,
    Grid,
    InvariantResult,
    LimitMixtureResult,
    SeparableOperator,
    basin_functions,
    dual_operator,
    dual_residual,
    invariant_measure,
    limit_mixture,
    mixture_coefficients,
    push_forward,
    ulam_absorption,
    ulam_assemble,
)
