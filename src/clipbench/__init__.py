"""Gradient-clipping optimizers and their executable convergence theory."""

from .core import clip, clip_coefficient
from .problems import (
    BernoulliShiftQuadratic,
    ChiSquareQuadratic,
    LogisticRegressionProblem,
    Problem,
    ProblemMeta,
    Quadratic,
)
from .data_ingest import (
    Dataset,
    ParseError,
    parse_libsvm,
    serialize_libsvm,
    subsample,
    synthesize_logistic_dataset,
)
from .optimizers import (
    Cells,
    DivergenceError,
    RunConfig,
    Trace,
    run,
    run_dp_sgd,
)
from .theory import (
    BoundReport,
    LowerBoundInstance,
    RateParams,
    bias_floor,
    bound_det_convex,
    bound_det_strongly_convex,
    bound_dp_sgd,
    bound_stoch_nonconvex,
    build_lower_bound_large_c,
    build_lower_bound_small_c,
    certify_smoothness,
    clip_probability_bound,
    dp_noise_calibration,
    exact_fixed_point,
    expected_clipped_grad,
    max_stepsize,
    trajectory_smoothness,
)

__version__ = "0.1.0"
