"""Log-likelihood of a BGEV sample with analytic gradient and Hessian.

Derivative vectors and matrices are ordered (mu, sigma, delta, xi).  All
three come from one pass of ``kernel``, which evaluates the per-observation
quantities once and differentiates through the GEV kernel
psi = 1 + xi*(sigma*x*|x|**delta - mu); every entry is pinned by central
finite-difference tests.  The kernel also takes m samples of one size at
once, each with its own parameter vector: that is how a Monte Carlo cell is
fitted in lockstep, and row i of such a call is bitwise the call on row i
alone.

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

import math

import numpy as np

from .params import BgevParams

__all__ = ["PARAM_ORDER", "kernel", "log_likelihood", "score", "hessian"]

PARAM_ORDER = ("mu", "sigma", "delta", "xi")

# elements of data per batched pass: rows = max(1, _CHUNK // n) samples go
# through the kernel together, which bounds its temporaries at any m
_CHUNK = 2048


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of two (m, k) arrays.  A stack of 1 x k by
    k x 1 products runs the BLAS dot of a 1-D ``a[i] @ b[i]``, bit for bit;
    a row sum of ``a * b`` would not."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


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


def _rows(theta: np.ndarray, x: np.ndarray, order: int):
    """The batched kernel on one chunk: theta (m, 4), x (m, n).

    numpy does the per-observation work, its row sums and the BLAS
    products for all rows at once.  Each row's log-likelihood, gradient and
    Hessian are then assembled from those in Python floats, term by term in
    the order of the one-sample formula: that keeps a batched row bitwise
    equal to the row alone, and the math module's log1p and float powers
    can differ from numpy's in the last bit.
    """
    m, n = x.shape
    params = [row[1:] for row in theta.tolist()]  # (sigma, delta, xi) per row
    # terms whose row sums are needed share one buffer, so that one
    # reduction gives them all: L, u, a, then f_xi, f_psi, f_xixi
    q = np.empty((m, 6 if order else 3, n))
    with np.errstate(all="ignore"):
        L, w, t, d, psi, u, a = log_density_terms(theta, x, q)
        sums = q[:, :3].sum(axis=2).tolist()
        if order:
            xi = theta[:, 3:]
            tl = t * L
            p = np.empty((m, 4, n))
            p[:, 0] = -xi
            np.multiply(xi, w, out=p[:, 1])
            np.multiply(xi, tl, out=p[:, 2])
            p[:, 3] = d
            powers = np.array([(_pow(v, 2), _pow(v, 3), _pow(v, 4)) for _, _, v in params]).T[:, :, None]
            one_a = 1.0 - a
            np.divide(u * one_a, powers[0], out=q[:, 3])  # f_xi
            xi_psi = xi * psi
            f_psi = np.divide(a - 1.0 - xi, xi_psi, out=q[:, 4])
            g_psi = np.matmul(p, f_psi[:, :, None])[:, :, 0].tolist()
        if order == 2:
            f_psipsi = (1.0 + xi) * (xi - a) / xi_psi**2
            f_psixi = (one_a + a * u / xi) / (powers[0] * psi)
            np.multiply(-u, 2.0 * one_a / powers[1] + u * a / powers[2], out=q[:, 5])  # f_xixi
            h = np.matmul(p * f_psipsi[:, None, :], p.transpose(0, 2, 1))
            h_psi = (0.5 * (h + h.transpose(0, 2, 1))).reshape(m, 16).tolist()
            cross = np.matmul(p, f_psixi[:, :, None])[:, :, 0].tolist()
            # second derivatives of psi, weighted by f_psi
            dots = list(zip(*(row_dots(f_psi, v).tolist() for v in (w * L, w, tl, tl * L))))
        sums_f = q[:, 3:].sum(axis=2).tolist() if order else sums
    ll, grads, hessians = [], [], []
    all_finite = True
    for r, (s, e, v) in enumerate(params):
        s_l, s_u, s_a = sums[r]
        ll.append(n * math.log(s) + n * math.log1p(e) + e * s_l - (1.0 + 1.0 / v) * s_u - s_a)
        all_finite = all_finite and math.isfinite(ll[-1])
        if order:
            g = g_psi[r]
            g[1] += n / s
            g[2] += n / (1.0 + e) + s_l
            g[3] += sums_f[r][0]
            grads.append(g)
        if order == 2:
            _, s_fpsi, s_fxixi = sums_f[r]
            hessians.append(_hessian_row(n, s, e, v, h_psi[r], cross[r], s_fpsi, s_fxixi, *dots[r]))
    ll = np.array(ll)
    # psi <= 0 or NaN anywhere (an observation at the origin with delta != 0
    # included), and psi = inf, leave ll non-finite
    bad = None
    if not all_finite:
        bad = ~np.isfinite(ll)
        ll[bad] = -np.inf
    if order == 0:
        return ll
    g = np.array(grads)
    if bad is not None:
        g[bad] = np.nan
    if order == 1:
        return ll, g
    h = np.array(hessians).reshape(m, 4, 4)
    if bad is not None:
        h[bad] = np.nan
    return ll, g, h


def _hessian_row(n, sg, dl, xi, h, cross, s_fpsi, s_fxixi, s_wl, s_w, s_tl, s_tll) -> list[float]:
    """One row's Hessian, flat, from its curvature term h = (P * f_psipsi) @ P.T
    and its sums, each entry taking its terms in the one-sample order."""
    # second derivatives of psi, weighted by f_psi
    h_mu_xi = -s_fpsi
    h_sg_dl = xi * s_wl
    h[3] += h_mu_xi
    h[12] += h_mu_xi
    h[6] += h_sg_dl
    h[9] += h_sg_dl
    h[7] += s_w
    h[13] += s_w
    h[11] += s_tl
    h[14] += s_tl
    h[10] += xi * s_tll
    # explicit xi dependence of f, and the direct sigma/delta terms
    for j, c in enumerate(cross):
        h[12 + j] += c
    for j, c in enumerate(cross):
        h[4 * j + 3] += c
    h[15] += s_fxixi
    sg2 = _pow(sg, 2)
    h[5] -= n / sg2 if sg2 else math.inf
    h[10] -= n / _pow(1.0 + dl, 2)
    return h


def _pow(v: float, k: int) -> float:
    """v**k in floats, inf of v's sign where it overflows, which a float
    power raises on."""
    try:
        return v**k
    except OverflowError:
        return math.copysign(math.inf, v) if k % 2 else math.inf


def kernel(theta, x, order: int = 2):
    """Log-likelihood and, by ``order``, its derivatives from one pass.

    order 0 returns ll, order 1 (ll, g), order 2 (ll, g, H).  With
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
    equals the call on row i alone, bit for bit.
    """
    if isinstance(theta, BgevParams):
        row = np.array([[theta.mu, theta.sigma, theta.delta, theta.xi]])
        out = _rows(row, np.asarray(x, dtype=float).ravel()[None], order)
        if order == 0:
            return float(out[0])
        return (float(out[0][0]), *(v[0] for v in out[1:]))
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    rows = max(1, _CHUNK // x.shape[1])
    if len(x) <= rows:
        return _rows(theta, x, order)
    parts = [_rows(theta[i : i + rows], x[i : i + rows], order) for i in range(0, len(x), rows)]
    if order == 0:
        return np.concatenate(parts)
    return tuple(np.concatenate(v) for v in zip(*parts))


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
