"""Log-likelihood of a BGEV sample with analytic gradient and Hessian.

Derivative vectors and matrices are ordered (mu, sigma, delta, xi).  All
three come from one pass of ``kernel``, which evaluates the per-observation
quantities once and differentiates through the GEV kernel
psi = 1 + xi*(sigma*x*|x|**delta - mu); every entry is pinned by central
finite-difference tests.  The kernel also takes m samples of one size at
once, each with its own parameter vector: that is how a Monte Carlo cell is
fitted in lockstep.  Every step is numpy arithmetic that is elementwise
over the rows, a reduction along one row or a product of one row's
matrices, so row i of such a call is bitwise the call on row i alone.

Infeasible evaluations (an observation outside the support of the candidate
parameters, or sitting exactly at the origin with delta != 0) yield -inf for
the log-likelihood and NaN arrays for its derivatives; optimizers treat
these as rejected proposals, no exception is raised.  In a batched call
only the infeasible rows carry these sentinels.  Nor does an admissible
row at the edge of the float range raise: where a power of xi, sigma or
1 + delta overflows or a square underflows, the entries it feeds take the
IEEE result (sigma = 1e-170 gives d2/dsigma2 = -inf, say), and a
non-finite entry makes the optimizer drop the row.
"""

from __future__ import annotations

import numpy as np

from .params import BgevParams

__all__ = ["PARAM_ORDER", "kernel", "log_likelihood", "score", "hessian"]

PARAM_ORDER = ("mu", "sigma", "delta", "xi")

# elements of data per batched pass: max(1, _CHUNK // n) samples go
# through the per-observation pass together, which bounds its temporaries
# at any m; ll, g and H are then assembled once from all the row sums
_CHUNK = 4096


def log_density_terms(theta: np.ndarray, x: np.ndarray, q: np.ndarray):
    """Per-observation terms (L, w, t, d, psi, u, a) of the log density of
    each row of x (m, n) at its parameter row of theta (m, 4):

        log f(x) = log sigma + log1p(delta) + delta*L - (1 + 1/xi)*u - a

    with L = log|x| (0 at the origin), w = x*|x|**delta, t = sigma*w,
    d = t - mu, psi = 1 + xi*d, u = log(psi) and a = exp(-u/xi), the GEV
    factor's power psi**(-1/xi).  L, u and a are written to q[:, 0],
    q[:, 1] and q[:, 2] of a buffer q (m, >= 3, n).  Outside the support
    psi <= 0 and the formula is -inf or nan.  At the origin with
    delta != 0, where the likelihood counts an observation as infeasible,
    psi and the terms after it are nan.  Call under
    ``np.errstate(all="ignore")``.
    """
    absx = np.abs(x)
    L = np.log(absx, out=q[:, 0])
    zero = None
    if not absx.all():  # an observation at the origin
        zero = absx == 0.0
        L[zero] = 0.0
    # one power for all rows, its exponent materialised to the data's
    # shape: numpy's power squares or takes the square root for an
    # exponent of 2 or 0.5 that is broadcast along a row of one call,
    # so a scalar or (m, 1) exponent would part a row from itself alone
    w = x
    if any(theta[:, 2].tolist()):
        w = np.empty_like(x)
        w[:] = theta[:, 2:3]
        np.power(absx, w, out=w)
        w *= x
    mu, sg, _, xi = theta.T[:, :, None]  # (m, 1): broadcast along the rows of x
    t = sg * w
    d = t - mu
    psi = 1.0 + xi * d
    if zero is not None:
        psi[zero & (theta[:, 2:3] != 0.0)] = np.nan
    u = np.log(psi, out=q[:, 1])
    a = np.exp(-u / xi, out=q[:, 2])
    return L, w, t, d, psi, u, a


def _sums(theta: np.ndarray, x: np.ndarray, derivatives: bool):
    """The row sums of the batched kernel on one chunk: theta (m, 4), x (m, n).

    Returns the sums s of the per-observation terms, and with derivatives
    the products of P (d psi / d theta per observation) that ``_assemble``
    needs: P @ f_psi, then (P * f_psipsi) @ P.T and P @ f_psixi.  Each is a
    reduction along a row or a product of one row's matrices.  Call under
    ``np.errstate(all="ignore")``.
    """
    m, n = x.shape
    # terms whose row sums are needed share one buffer, so that one
    # reduction gives them all: L, u, a; f_xi, f_psi; f_xixi, and f_psi
    # times psi's second derivatives w, w*L, t*L and t*L**2 (the second
    # and fourth without their factor xi)
    q = np.empty((m, 10 if derivatives else 3, n))
    L, w, t, d, psi, u, a = log_density_terms(theta, x, q)
    if not derivatives:
        return (q.sum(axis=2),)
    v = theta[:, 3:]  # xi, broadcast along the rows of x
    v2 = v * v
    tl = t * L
    p = np.empty((m, 4, n))  # d psi / d theta per observation
    p[:, 0] = -v
    np.multiply(v, w, out=p[:, 1])
    np.multiply(v, tl, out=p[:, 2])
    p[:, 3] = d
    one_a = 1.0 - a
    np.divide(u * one_a, v2, out=q[:, 3])  # f_xi
    v_psi = v * psi
    f_psi = np.divide(a - 1.0 - v, v_psi, out=q[:, 4])
    b = one_a + u * a / v  # shared by f_xixi and f_psixi
    np.divide(u * (one_a + b), -(v2 * v), out=q[:, 5])  # f_xixi
    np.multiply(f_psi, w, out=q[:, 6])
    np.multiply(q[:, 6], L, out=q[:, 7])
    np.multiply(f_psi, tl, out=q[:, 8])
    np.multiply(q[:, 8], L, out=q[:, 9])
    s = q.sum(axis=2)
    pf = np.matmul(p, f_psi[:, :, None])[:, :, 0]
    f_psipsi = (1.0 + v) * (v - a) / v_psi**2
    c = np.matmul(p * f_psipsi[:, None, :], p.transpose(0, 2, 1))
    return s, pf, c, np.matmul(p, (b / (v2 * psi))[:, :, None])[:, :, 0]  # P @ f_psixi


def _assemble(theta: np.ndarray, n: int, s: np.ndarray, pf=None, c=None, pfx=None):
    """ll of every row of a call from its row sums s, and g and H as well
    when the products of ``_sums`` are given.  Every step is elementwise
    over rows.  Call under ``np.errstate(all="ignore")``."""
    sg, dl, xi = theta[:, 1], theta[:, 2], theta[:, 3]
    ll = n * np.log(sg) + n * np.log1p(dl) + dl * s[:, 0] - (1.0 + 1.0 / xi) * s[:, 1] - s[:, 2]
    # psi <= 0 or NaN anywhere (an observation at the origin with delta !=
    # 0 included), and psi = inf, leave ll non-finite
    bad = ~np.isfinite(ll)
    ll[bad] = -np.inf
    if pf is None:
        return ll
    g = pf
    g[:, 1] += n / sg
    g[:, 2] += n / (1.0 + dl) + s[:, 0]
    g[:, 3] += s[:, 3]
    g[bad] = np.nan
    # one triangle, added with its transpose so that H is exactly
    # symmetric: the explicit xi dependence of f in row 3 (so twice on the
    # diagonal) and the off-diagonal second derivatives of psi
    tri = np.zeros((len(theta), 4, 4))
    tri[:, 3] = pfx
    tri[:, 3, 0] -= s[:, 4]
    tri[:, 3, 1] += s[:, 6]
    tri[:, 3, 2] += s[:, 8]
    tri[:, 2, 1] = xi * s[:, 7]
    h = 0.5 * (c + c.transpose(0, 2, 1)) + (tri + tri.transpose(0, 2, 1))
    h[:, 1, 1] -= n / sg**2
    h[:, 2, 2] += xi * s[:, 9] - n / (1.0 + dl) ** 2
    h[:, 3, 3] += s[:, 5]
    h[bad] = np.nan
    return ll, g, h


def kernel(theta, x, order: int = 2, rows=None):
    """Log-likelihood and, by ``order``, its derivatives from one pass.

    order 0 returns ll, order 1 (ll, g), order 2 (ll, g, H); order 1 is
    order 2 without its H, so its g is order 2's bit for bit.  With
    w = x*|x|**delta, L = log|x|, t = sigma*w and psi = 1 + xi*(t - mu), the
    log-likelihood is n*log(sigma) + n*log(1+delta) + delta*sum(L) + sum(f)
    with f = -(1 + 1/xi)*log(psi) - psi**(-1/xi).  g and H follow from the
    chain rule through psi: P holds d psi / d theta per observation, so the
    curvature term is (P * f_psipsi) @ P.T; the five non-zero second
    derivatives of psi, the explicit-xi terms of f and the direct
    sigma/delta terms are added as sums.

    theta is a BgevParams with a 1-D sample x, giving a float ll, a (4,)
    gradient and a (4, 4) Hessian.  Or it is an (m, 4) array of admissible
    parameter rows in PARAM_ORDER with an (m, n) array of samples, giving
    (m,) log-likelihoods, (m, 4) gradients and (m, 4, 4) Hessians; row i
    equals the call on row i alone, bit for bit.  With rows, an index
    array of length m, theta's row i goes with x[rows[i]] instead: the
    rows are gathered one chunk at a time, so the subset of x is never
    copied whole.
    """
    alone = isinstance(theta, BgevParams)
    if alone:
        theta = np.array([[theta.mu, theta.sigma, theta.delta, theta.xi]])
        x = np.asarray(x, dtype=float).ravel()[None]
    else:
        theta = np.asarray(theta, dtype=float)
        x = np.asarray(x, dtype=float)
    per = max(1, _CHUNK // max(1, x.shape[1]))  # an empty sample is one chunk
    chunk = (lambda i: x[i : i + per]) if rows is None else (lambda i: x[rows[i : i + per]])
    with np.errstate(all="ignore"):
        if len(theta) <= per:
            sums = _sums(theta, chunk(0), order > 0)
        else:
            parts = [_sums(theta[i : i + per], chunk(i), order > 0) for i in range(0, len(theta), per)]
            sums = [np.concatenate(v) for v in zip(*parts)]
        out = _assemble(theta, x.shape[1], *sums)
    if order == 1:
        out = out[:2]
    if not alone:
        return out
    if order == 0:
        return float(out[0])
    return (float(out[0][0]), *(v[0] for v in out[1:]))


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
