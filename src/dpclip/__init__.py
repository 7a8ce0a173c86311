"""Differentially private empirical risk minimization with per-sample
clipping, principled clip-norm selection and verification oracles."""

from .clipping import (
    DiscreteVectorDistribution,
    bias_bound_corollary,
    bias_bound_lemma,
    clip,
    clip_rows,
    clipping_bias_exact,
)
from .domains import UNCONSTRAINED, Ball, Unconstrained
from .lipschitz import (
    LipschitzProfile,
    alpha_estimate,
    build_profile,
    interpolation_gap,
    percentile,
)
from .losses import (
    Dataset,
    Problem,
    QvSpec,
    geometric_median_problem,
    hard_instance_problem,
    heavy_tailed_logistic_dataset,
    load_dataset_csv,
    logistic_grad,
    logistic_grad_norm_exact,
    logistic_loss,
    logistic_problem,
    lower_bound_loss,
    per_sample_lipschitz_logistic,
    planted_logistic_dataset,
    sample_Qv_many,
    sharpness_radius,
)
from .optimizer import (
    DpSgdConfig,
    dp_sgd_step,
    poisson_sample,
    reference_minimum,
    run_dp_sgd,
    schedule_constrained_convex,
    schedule_interpolation,
    schedule_nonconvex,
    schedule_sharp_convex,
    schedule_unconstrained_convex,
    subgradient_descent,
)
from .privacy import (
    NoiseSpec,
    PrivacyBudget,
    PrivacyRegimeWarning,
    compute_phi,
    gaussian_noise,
    noise_variance,
    report_noisy_max,
)

__version__ = "0.1.0"
