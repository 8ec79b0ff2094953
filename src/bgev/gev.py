"""Baseline generalized extreme value distribution with nonzero shape.

All functions here take the shape xi != 0 explicitly.  ``gev_cdf`` and
``gev_quantile`` accept a general scale; the unit-scale variants used as the
building block of the BGEV composition are the defaults (sigma = 1).  The
GEV density is the BGEV density at delta = 0 and sigma = 1
(``distribution.pdf``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["gev_cdf", "gev_quantile", "gev_mode"]


def _kernel(x, xi: float, mu: float, sigma: float):
    """1 + xi*(x - mu)/sigma; the support is where it is positive, and callers
    mask the rest."""
    x = np.asarray(x, dtype=float)
    return 1.0 + xi * (x - mu) / sigma


def gev_cdf(x, xi: float, mu: float, sigma: float = 1.0):
    """GEV distribution function, clamped to {0, 1} outside the support; nan at nan."""
    if xi == 0.0:
        raise ValueError("xi must be nonzero")
    u = _kernel(x, xi, mu, sigma)
    out = np.empty_like(u)
    inside = u > 0.0
    with np.errstate(over="ignore", under="ignore"):
        out[inside] = np.exp(-(u[inside] ** (-1.0 / xi)))
    # below the lower endpoint (xi > 0) the mass is 0; above the upper (xi < 0) it is 1
    out[~inside] = 0.0 if xi > 0.0 else 1.0
    out[np.isnan(u)] = np.nan
    return out if out.ndim else float(out)


def gev_quantile(q, xi: float, mu: float, sigma: float = 1.0):
    """Inverse CDF: mu + sigma*((-log q)**(-xi) - 1)/xi for q in (0, 1)."""
    if xi == 0.0:
        raise ValueError("xi must be nonzero")
    q = np.asarray(q, dtype=float)
    if np.any((q <= 0.0) | (q >= 1.0)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    out = mu + sigma * ((-np.log(q)) ** (-xi) - 1.0) / xi
    return out if out.ndim else float(out)


def gev_mode(xi: float, mu: float) -> float:
    """Mode of the unit-scale GEV density.

    Stationarity of the log density gives the interior mode
    mu + ((1+xi)**(-xi) - 1)/xi, valid for xi > -1.  For xi <= -1 the density
    is increasing up to the right support endpoint mu - 1/xi, which is then
    the mode (supremum for xi < -1, attained for xi = -1).
    """
    if xi == 0.0:
        raise ValueError("xi must be nonzero")
    if xi <= -1.0:
        return mu - 1.0 / xi
    return mu + ((1.0 + xi) ** (-xi) - 1.0) / xi
