"""Bimodal generalized extreme value distribution toolkit.

Evaluation, sampling, moments and mode structure of the BGEV family;
maximum-likelihood fitting with analytic derivatives; goodness-of-fit
statistics; a Monte Carlo estimator-quality harness; and a block-maxima
pipeline with a command-line front end.

The public names below are loaded from their submodules on first use
(PEP 562), so ``import bgev`` itself imports neither numpy nor any
submodule, and each command of the CLI loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines each
_SUBMODULE_NAMES = {
    "params": (
        "BgevParams",
        "Support",
        "SupportKind",
        "CriticalPoints",
        "Modality",
        "ParameterError",
        "InputDataError",
        "InfeasibleStartError",
        "NotConvergedError",
    ),
    "transform": ("transform_forward", "transform_inverse"),
    "gev": ("gev_cdf", "gev_quantile", "gev_mode"),
    "incgamma": ("incomplete_gamma_lower", "incomplete_gamma_upper"),
    "distribution": (
        "support",
        "logpdf",
        "pdf",
        "cdf",
        "sf",
        "quantile",
        "sample",
        "critical_points",
        "moment",
        "tail_index",
    ),
    "likelihood": ("PARAM_ORDER", "log_likelihood", "score", "hessian"),
    "mle": ("FitResult", "fit_mle", "default_start"),
    "gof": ("GofReport", "LjungBoxReport", "ks_statistic", "ad_statistic", "ljung_box", "qq_pairs", "gof_report"),
    "sim": ("SimConfig", "SimReport", "run_cell", "run_suite", "load_suite_config"),
    "pipeline": (
        "SeriesFile",
        "BlockMaxima",
        "ComparisonReport",
        "ModelAssessment",
        "ingest",
        "block_maxima",
        "standardize",
        "fit_and_compare",
        "emit_plot_data",
    ),
}
_ORIGIN = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name):
    if name in _SUBMODULE_NAMES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
