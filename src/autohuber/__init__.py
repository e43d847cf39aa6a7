"""autohuber: self-tuning pseudo-Huber mean estimation.

Estimates a mean together with the robustification scale of a pseudo-Huber
loss by minimizing a single penalized objective, so no variance estimate is
needed up front.  Includes a population-level oracle for the optimal scale,
standardized heavy-tailed noise models, baseline estimators, and a Monte
Carlo study harness with a CLI.
"""

from .loss import (
    Hessian2x2,
    as_sample,
    grad_mu,
    grad_tau,
    gradient,
    hessian,
    pointwise_loss,
    total_loss,
)
from .noise import NoiseModel, law_label, parse_noise, sample, standardize
from .oracle import (
    OracleSolution,
    expected_tau_ratio,
    sigma_tau_sq,
    tau_star,
    tau_star_monotonicity_check,
)
from .solver import (
    DiagnosticsReport,
    EstimatorConfig,
    FitResult,
    TauCollapseWarning,
    default_z,
    diagnostics,
    fit,
    fit_fixed_tau,
    profile_tau_gradient,
)
from .harness import (
    StudyResult,
    StudyRow,
    StudySpec,
    fixed_tau_ph,
    median_of_means,
    run_deviation_study,
    run_tau_adaptivity_study,
    sample_mean,
    write_csv,
    write_json,
)

__version__ = "0.1.0"

__all__ = [
    "Hessian2x2",
    "as_sample",
    "pointwise_loss",
    "total_loss",
    "gradient",
    "grad_mu",
    "grad_tau",
    "hessian",
    "NoiseModel",
    "standardize",
    "parse_noise",
    "law_label",
    "sample",
    "OracleSolution",
    "expected_tau_ratio",
    "sigma_tau_sq",
    "tau_star",
    "tau_star_monotonicity_check",
    "EstimatorConfig",
    "FitResult",
    "DiagnosticsReport",
    "TauCollapseWarning",
    "default_z",
    "fit",
    "fit_fixed_tau",
    "profile_tau_gradient",
    "diagnostics",
    "StudySpec",
    "StudyRow",
    "StudyResult",
    "sample_mean",
    "median_of_means",
    "fixed_tau_ph",
    "run_deviation_study",
    "run_tau_adaptivity_study",
    "write_csv",
    "write_json",
    "__version__",
]
