"""Shared fixtures and oracle helpers."""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import bgev
from bgev import BgevParams, pdf, support, transform_forward
from bgev.likelihood import log_density_terms


def random_params(rng, xi_lo=0.15, xi_hi=1.0, delta_lo=-0.5, delta_hi=4.0, xi_sign=None):
    """Admissible parameter vector drawn from the regular estimation regime."""
    sign = xi_sign if xi_sign is not None else rng.choice([-1.0, 1.0])
    return BgevParams(
        xi=float(sign * rng.uniform(xi_lo, xi_hi)),
        mu=float(rng.uniform(-2.0, 2.0)),
        sigma=float(rng.uniform(0.3, 3.0)),
        delta=float(rng.uniform(delta_lo, delta_hi)),
    )


def integrate_pdf(p: BgevParams, fn=None, epsabs=1e-12, epsrel=1e-10):
    """Adaptive quadrature of fn(x)*pdf(x) over the support, split at the
    origin so the delta < 0 singularity stays on a segment endpoint."""
    f = fn or (lambda x: 1.0)
    sup = support(p)
    lo = sup.lower if np.isfinite(sup.lower) else -np.inf
    hi = sup.upper if np.isfinite(sup.upper) else np.inf
    cuts = [lo]
    if lo < 0.0 < hi:
        cuts.append(0.0)
    cuts.append(hi)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        val, _ = integrate.quad(
            lambda t: f(t) * float(pdf(t, p)), a, b, limit=400, epsabs=epsabs, epsrel=epsrel
        )
        total += val
    return total


def gev_pdf(x, xi: float, mu: float, sigma: float = 1.0):
    """GEV density, zero outside the support: the reference for the
    likelihood kernel's terms, which ``distribution.logpdf`` shares, so it
    is written apart from them."""
    if xi == 0.0:
        raise ValueError("xi must be nonzero")
    u = 1.0 + xi * (np.asarray(x, dtype=float) - mu) / sigma
    out = np.zeros_like(u)
    inside = u > 0.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ui = u[inside]
        e = np.exp(-(ui ** (-1.0 / xi)))
        # e = 0 far in the tail, where the power factor may overflow
        out[inside] = np.where(e == 0.0, 0.0, ui ** (-1.0 / xi - 1.0) * e) / sigma
    return out if out.ndim else float(out)


def log_gev_factor(x, p: BgevParams):
    """log gev_pdf(T(x)), with T the transform."""
    with np.errstate(divide="ignore"):
        return np.log(gev_pdf(transform_forward(x, p.sigma, p.delta), p.xi, p.mu))


def log_jacobian(x, p: BgevParams):
    """log of the transform's derivative sigma*(delta+1)*|x|**delta, at
    x != 0 unless delta = 0."""
    x = np.asarray(x, dtype=float)
    return math.log(p.sigma * (p.delta + 1.0)) + (p.delta * np.log(np.abs(x)) if p.delta else np.zeros_like(x))


def log_density_oracle(x, p: BgevParams):
    """The log density written apart from the likelihood kernel's terms,
    which logpdf shares: log gev_pdf(T(x)) plus the log Jacobian."""
    return log_gev_factor(x, p) + log_jacobian(x, p)


def _chain_rule(psi_1, psi_2, f_psi, f_psipsi, f_xi, f_psixi, f_xixi, direct_g, direct_h):
    """g and H of sum(f) plus the direct terms, by the chain rule through
    psi: psi_1 (4, n) and psi_2 (4, 4, n) are the first and second
    derivatives of psi per observation, the f_ arrays the partials of f in
    (psi, xi)."""
    g = psi_1 @ f_psi + direct_g
    g[3] += f_xi.sum()
    h = (psi_1 * f_psipsi) @ psi_1.T + psi_2 @ f_psi + direct_h
    cross = psi_1 @ f_psixi
    h[3] += cross
    h[:, 3] += cross
    h[3, 3] += f_xixi.sum()
    return g, h


def kernel_derivatives_oracle(p: BgevParams, x):
    """The gradient and Hessian of the log-likelihood of a 1-D sample by
    the matrix form of the chain rule: P = d psi / d theta per observation,
    the curvature (P * f_psipsi) @ P.T, d f / d psi times the second
    derivatives of psi, the explicit-xi terms of f and the direct
    sigma/delta terms, each summed on its own.  It takes the
    per-observation terms from ``log_density_terms``, as the kernel does.

    Returns (g, h, g_size, h_size): each size is the same sum taken over
    the magnitudes of everything added or subtracted on the way, the
    scale of the rounding error of either computation."""
    x = np.asarray(x, dtype=float)
    n, xi = x.size, p.xi
    theta = np.array([[p.mu, p.sigma, p.delta, p.xi]])
    with np.errstate(all="ignore"):
        L, w, t, d, psi, u, a = (v.ravel() for v in log_density_terms(theta, x[None], np.empty((3, 1, n))))
        tl, ax = t * L, abs(xi)
        signed = dict(
            psi_1=np.stack([np.full(n, -xi), xi * w, xi * tl, d]),
            f_psi=(a - 1.0 - xi) / (xi * psi),
            f_psipsi=(1.0 + xi) * (xi - a) / (xi * psi) ** 2,
            f_xi=u * (1.0 - a) / xi**2,
            f_psixi=(1.0 - a + a * u / xi) / (xi**2 * psi),
            f_xixi=-u * (2.0 * (1.0 - a) + a * u / xi) / xi**3,
            direct_g=np.array([0.0, n / p.sigma, n / (1.0 + p.delta), 0.0]),
            direct_h=np.diag([0.0, -n / p.sigma**2, -n / (1.0 + p.delta) ** 2, 0.0]),
        )
        size = dict(
            psi_1=np.abs(signed["psi_1"]),
            f_psi=(a + 1.0 + ax) / (ax * psi),
            f_psipsi=(1.0 + ax) * (ax + a + 2.0) / (xi * psi) ** 2,
            f_xi=np.abs(u) * (1.0 + a) / xi**2,
            f_psixi=(1.0 + a + a * np.abs(u) / ax) / (xi**2 * psi),
            f_xixi=np.abs(u) * (2.0 * (1.0 + a) + a * np.abs(u) / ax) / ax**3,
            direct_g=np.abs(signed["direct_g"]),
            direct_h=np.abs(signed["direct_h"]),
        )
        # the second derivatives of psi: mu-xi, sigma-delta, sigma-xi,
        # delta-delta and delta-xi
        psi_2 = np.zeros((4, 4, n))
        psi_2[0, 3] = psi_2[3, 0] = -1.0
        psi_2[1, 2] = psi_2[2, 1] = xi * w * L
        psi_2[1, 3] = psi_2[3, 1] = w
        psi_2[2, 2] = xi * tl * L
        psi_2[2, 3] = psi_2[3, 2] = tl
        g, h = _chain_rule(psi_2=psi_2, **signed)
        g_size, h_size = _chain_rule(psi_2=np.abs(psi_2), **size)
        g[2] += L.sum()  # the derivative of delta*sum(L)
        g_size[2] += np.abs(L).sum()
    return g, h, g_size, h_size


def child_env():
    """Environment under which a child interpreter imports the same bgev as this process."""
    src = str(Path(bgev.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def central_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


@pytest.fixture
def rng():
    return np.random.default_rng(20260401)
