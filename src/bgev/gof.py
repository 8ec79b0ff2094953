"""Goodness-of-fit statistics against a fully specified distribution.

Kolmogorov-Smirnov and Anderson-Darling use their textbook definitions over
the order statistics; Ljung-Box is the usual portmanteau statistic with a
chi-squared reference distribution, whose tail probability comes from the
regularized upper incomplete gamma function.  KS, AD and the QQ data are
permutation invariant in the sample; Ljung-Box depends on the order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .incgamma import regularized_gamma_upper

__all__ = [
    "GofReport",
    "LjungBoxReport",
    "ks_statistic",
    "ad_statistic",
    "ljung_box",
    "qq_pairs",
    "gof_report",
]


def _sorted_sample(x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 1:
        raise ValueError("sample is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"sample contains {np.count_nonzero(~np.isfinite(x))} non-finite values")
    return np.sort(x)


def ks_statistic(x, cdf) -> float:
    """sup-distance between the empirical CDF and the given CDF.

    D = max over the sorted sample of max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n).
    """
    xs = _sorted_sample(x)
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))


def ad_statistic(x, cdf, sf=None) -> float:
    """Anderson-Darling statistic A^2.

    A^2 = -n - (1/n) * sum_i (2i-1) * [log F(x_(i)) + log(1 - F(x_(n+1-i)))].
    With the survival function ``sf``, log(1 - F) is log sf where F rounds
    to 1.  Raises when any F(x_(i)) lands exactly on 0, or on 1 without a
    positive sf, reporting which observation did it.
    """
    xs = _sorted_sample(x)
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    top = f >= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # where F >= 1: replaced, or raised on
        log_sf = np.log1p(-f)
        if sf is not None and top.any():
            log_sf[top] = np.log(sf(xs[top]))
    on_boundary = (f <= 0.0) | (top & ~(log_sf > -np.inf))
    if np.any(on_boundary):
        j = int(np.argmax(on_boundary))
        raise ValueError(
            f"F(x) hit the boundary for observation x={float(xs[j])} (rank {j + 1}, F={float(f[j])})"
        )
    i = np.arange(1, n + 1)
    s = np.sum((2 * i - 1) * (np.log(f) + log_sf[::-1]))
    return float(-n - s / n)


@dataclass(frozen=True)
class LjungBoxReport:
    statistic: float
    lags: int
    p_value: float


def ljung_box(x, lags: int = 10) -> LjungBoxReport:
    """Portmanteau test of serial independence.

    Q = n(n+2) * sum_{k=1..h} acf_k^2 / (n-k), referred to chi-squared with
    h degrees of freedom: the p-value is the regularized upper incomplete
    gamma at (h/2, Q/2), which stays finite for every admissible h.
    Requires h < n/2 and a non-constant series whose sum of squared
    deviations is a finite float.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if lags < 1:
        raise ValueError("lags must be >= 1")
    if not lags < n / 2:
        raise ValueError(f"need lags < n/2, got lags={lags}, n={n}")
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean()
        denom = float(np.dot(centered, centered))
    if not np.isfinite(denom):
        raise ValueError("ljung_box: the spread of the series overflows a float")
    if denom == 0.0:
        raise ValueError("constant series has no autocorrelation structure")
    q = 0.0
    for k in range(1, lags + 1):
        rho = float(np.dot(centered[k:], centered[:-k])) / denom
        q += rho * rho / (n - k)
    q *= n * (n + 2.0)
    return LjungBoxReport(statistic=q, lags=lags, p_value=regularized_gamma_upper(lags / 2.0, q / 2.0))


def qq_pairs(x, quantile) -> np.ndarray:
    """(theoretical, empirical) pairs at Hazen plotting positions (i-0.5)/n.

    Returns an (n, 2) array sorted ascending in the empirical coordinate.
    """
    xs = _sorted_sample(x)
    n = xs.size
    if n < 2:
        raise ValueError("need at least 2 observations for a QQ plot")
    levels = (np.arange(1, n + 1) - 0.5) / n
    theo = np.asarray(quantile(levels), dtype=float)
    return np.column_stack([theo, xs])


@dataclass(frozen=True)
class GofReport:
    """KS and AD statistics plus QQ data for one fitted model."""

    ks: float
    ad: float
    n: int
    qq: np.ndarray


def gof_report(x, cdf, quantile, sf=None) -> GofReport:
    xs = _sorted_sample(x)
    return GofReport(
        ks=ks_statistic(xs, cdf),
        ad=ad_statistic(xs, cdf, sf),
        n=xs.size,
        qq=qq_pairs(xs, quantile),
    )
