"""Log-likelihood of a BGEV sample with analytic gradient and Hessian.

Derivative vectors and matrices are ordered (mu, sigma, delta, xi).  All
three come from one pass of ``kernel``, which evaluates the per-observation
quantities once and differentiates through the GEV kernel
psi = 1 + xi*(sigma*x*|x|**delta - mu); every entry is pinned by central
finite-difference tests.

Infeasible evaluations (an observation outside the support of the candidate
parameters, or sitting exactly at the origin with delta != 0) yield -inf for
the log-likelihood and NaN arrays for its derivatives; optimizers treat
these as rejected proposals, no exception is raised.
"""

from __future__ import annotations

import math

import numpy as np

from .params import BgevParams

__all__ = ["PARAM_ORDER", "kernel", "log_likelihood", "score", "hessian"]

PARAM_ORDER = ("mu", "sigma", "delta", "xi")


def _infeasible(order: int):
    if order == 0:
        return -np.inf
    if order == 1:
        return -np.inf, np.full(4, np.nan)
    return -np.inf, np.full(4, np.nan), np.full((4, 4), np.nan)


def kernel(theta: BgevParams, x, order: int = 2):
    """Log-likelihood and, by ``order``, its derivatives from one pass.

    order 0 returns ll, order 1 (ll, g), order 2 (ll, g, H).  With
    w = x*|x|**delta, L = log|x|, t = sigma*w and psi = 1 + xi*(t - mu), the
    log-likelihood is n*log(sigma) + n*log(1+delta) + delta*sum(L) + sum(f)
    with f = -(1 + 1/xi)*log(psi) - psi**(-1/xi).  g and H follow from the
    chain rule through psi: P holds d psi / d theta per observation, so the
    curvature term is (P * f_psipsi) @ P.T; the five non-zero second
    derivatives of psi, the explicit-xi terms of f and the direct
    sigma/delta terms are added as sums.
    """
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    mu, sg, dl, xi = theta.mu, theta.sigma, theta.delta, theta.xi
    with np.errstate(all="ignore"):
        absx = np.abs(x)
        L = np.log(absx)
        if not absx.all():  # an observation at the origin
            if dl != 0.0:
                return _infeasible(order)
            L[absx == 0.0] = 0.0
        w = x * absx**dl if dl != 0.0 else x
        t = sg * w
        d = t - mu
        psi = 1.0 + xi * d
        if not (psi > 0.0).all():  # NaN fails too; psi = inf makes ll -inf below
            return _infeasible(order)
        u = np.log(psi)
        a = np.exp(-u / xi)
        sum_l = float(L.sum())
        ll = (
            n * math.log(sg)
            + n * math.log1p(dl)
            + dl * sum_l
            - (1.0 + 1.0 / xi) * float(u.sum())
            - float(a.sum())
        )
        if not math.isfinite(ll):
            return _infeasible(order)
        if order == 0:
            return ll

        tl = t * L
        p = np.empty((4, n))
        p[0] = -xi
        p[1] = xi * w
        p[2] = xi * tl
        p[3] = d
        f_psi = (a - 1.0 - xi) / (xi * psi)
        f_xi = u * (1.0 - a) / xi**2
        g = p @ f_psi
        g[1] += n / sg
        g[2] += n / (1.0 + dl) + sum_l
        g[3] += f_xi.sum()
        if order == 1:
            return ll, g

        f_psipsi = (1.0 + xi) * (xi - a) / (xi * psi) ** 2
        f_psixi = (1.0 - a + a * u / xi) / (xi**2 * psi)
        f_xixi = -u * (2.0 * (1.0 - a) / xi**3 + u * a / xi**4)
        h = (p * f_psipsi) @ p.T
        h = 0.5 * (h + h.T)
        # second derivatives of psi, weighted by f_psi
        h_mu_xi = -float(f_psi.sum())
        h_sg_dl = xi * float(f_psi @ (w * L))
        h_sg_xi = float(f_psi @ w)
        h_dl_xi = float(f_psi @ tl)
        h[0, 3] += h_mu_xi
        h[3, 0] += h_mu_xi
        h[1, 2] += h_sg_dl
        h[2, 1] += h_sg_dl
        h[1, 3] += h_sg_xi
        h[3, 1] += h_sg_xi
        h[2, 3] += h_dl_xi
        h[3, 2] += h_dl_xi
        h[2, 2] += xi * float(f_psi @ (tl * L))
        # explicit xi dependence of f, and the direct sigma/delta terms
        cross = p @ f_psixi
        h[3] += cross
        h[:, 3] += cross
        h[3, 3] += float(f_xixi.sum())
        h[1, 1] -= n / sg**2
        h[2, 2] -= n / (1.0 + dl) ** 2
    return ll, g, h


def log_likelihood(theta: BgevParams, x) -> float:
    """Sum of log densities; -inf when any observation is infeasible."""
    return kernel(theta, x, 0)


def score(theta: BgevParams, x) -> np.ndarray:
    """Analytic gradient of the log-likelihood, ordered (mu, sigma, delta, xi).

    NaN-filled when the evaluation is infeasible.
    """
    return kernel(theta, x, 1)[1]


def hessian(theta: BgevParams, x) -> np.ndarray:
    """Analytic Hessian of the log-likelihood, ordered (mu, sigma, delta, xi).

    Exactly symmetric; NaN-filled when the evaluation is infeasible.
    """
    return kernel(theta, x, 2)[2]
