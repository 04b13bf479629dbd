"""Conformal prediction intervals for regression with responses in (0,1).

Transformation (logit-normal) and beta regression models, residual-based
non-conformity scores, split and full conformal prediction with an
adaptive interval search, and a simulation laboratory for coverage
experiments.
"""

from .conformal import (
    FullConfig,
    IntervalSearchWarning,
    PredictionInterval,
    SplitConfig,
    classical_gauss_interval,
    conformal_quantile,
    full_cp,
    indicator,
    split_cp,
    split_cp_batch,
)
from .models import (
    Dataset,
    FitError,
    FittedModel,
    ModelFamily,
    ModelSpec,
    NonConvergence,
    SingularDesign,
    fit,
    loglik,
)
from .numeric import (
    BetaParams,
    beta_cdf,
    beta_pdf,
    beta_quantile,
    expit,
    logit,
    norm_cdf,
    norm_quantile,
)
from .scores import ScoreKind, score
from .simlab import (
    CoverageReport,
    Method,
    Scenario,
    ScenarioConfig,
    bootstrap_interval,
    gen_covariates,
    gen_response,
    run_coverage,
    union_intersection,
)

__version__ = "0.1.0"

__all__ = [
    "BetaParams",
    "CoverageReport",
    "Dataset",
    "FitError",
    "FittedModel",
    "FullConfig",
    "IntervalSearchWarning",
    "Method",
    "ModelFamily",
    "ModelSpec",
    "NonConvergence",
    "PredictionInterval",
    "Scenario",
    "ScenarioConfig",
    "ScoreKind",
    "SingularDesign",
    "SplitConfig",
    "beta_cdf",
    "beta_pdf",
    "beta_quantile",
    "bootstrap_interval",
    "classical_gauss_interval",
    "conformal_quantile",
    "expit",
    "fit",
    "full_cp",
    "gen_covariates",
    "gen_response",
    "indicator",
    "logit",
    "loglik",
    "norm_cdf",
    "norm_quantile",
    "run_coverage",
    "score",
    "split_cp",
    "split_cp_batch",
    "union_intersection",
]
