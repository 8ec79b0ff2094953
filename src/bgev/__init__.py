"""Bimodal generalized extreme value distribution toolkit.

Evaluation, sampling, moments and mode structure of the BGEV family;
maximum-likelihood fitting with analytic derivatives; goodness-of-fit
statistics; a Monte Carlo estimator-quality harness; and a block-maxima
pipeline with a command-line front end.
"""

from .distribution import (
    cdf,
    critical_points,
    moment,
    pdf,
    quantile,
    sample,
    sf,
    support,
    tail_index,
)
from .gev import gev_cdf, gev_logpdf, gev_mode, gev_pdf, gev_quantile
from .gof import (
    GofReport,
    LjungBoxReport,
    ad_statistic,
    gof_report,
    ks_statistic,
    ljung_box,
    qq_pairs,
)
from .incgamma import incomplete_gamma_lower, incomplete_gamma_upper
from .likelihood import PARAM_ORDER, hessian, log_likelihood, score
from .mle import (
    FisherInformation,
    FitResult,
    InfeasibleStartError,
    default_start,
    fisher_information,
    fit_mle,
)
from .params import (
    BgevParams,
    CriticalPoints,
    Modality,
    ParameterError,
    Support,
    SupportKind,
)
from .pipeline import (
    BlockMaxima,
    ComparisonReport,
    InputDataError,
    ModelAssessment,
    SeriesFile,
    block_maxima,
    emit_plot_data,
    fit_and_compare,
    ingest,
    standardize,
)
from .sim import SimConfig, SimReport, load_suite_config, run_cell, run_suite
from .transform import transform_d1, transform_d2, transform_forward, transform_inverse

__version__ = "0.1.0"

__all__ = [
    "BgevParams",
    "Support",
    "SupportKind",
    "CriticalPoints",
    "Modality",
    "ParameterError",
    "transform_forward",
    "transform_inverse",
    "transform_d1",
    "transform_d2",
    "gev_pdf",
    "gev_cdf",
    "gev_quantile",
    "gev_logpdf",
    "gev_mode",
    "incomplete_gamma_lower",
    "incomplete_gamma_upper",
    "support",
    "pdf",
    "cdf",
    "sf",
    "quantile",
    "sample",
    "critical_points",
    "moment",
    "tail_index",
    "PARAM_ORDER",
    "log_likelihood",
    "score",
    "hessian",
    "FitResult",
    "FisherInformation",
    "InfeasibleStartError",
    "fit_mle",
    "fisher_information",
    "default_start",
    "GofReport",
    "LjungBoxReport",
    "ks_statistic",
    "ad_statistic",
    "ljung_box",
    "qq_pairs",
    "gof_report",
    "SimConfig",
    "SimReport",
    "run_cell",
    "run_suite",
    "load_suite_config",
    "SeriesFile",
    "BlockMaxima",
    "ComparisonReport",
    "ModelAssessment",
    "InputDataError",
    "ingest",
    "block_maxima",
    "standardize",
    "fit_and_compare",
    "emit_plot_data",
    "__version__",
]
