"""Log-likelihood of a BGEV sample with analytic gradient and Hessian.

Derivative vectors and matrices are ordered (mu, sigma, delta, xi).  All
three come from one pass of ``kernel``, which evaluates the per-observation
quantities once and differentiates through the GEV kernel
psi = 1 + xi*(sigma*x*|x|**delta - mu): every derivative sum of a chunk of
data is an entry of one batched product of per-observation weights by a
basis of observation terms, scaled per row by powers of xi afterwards.
Every entry is pinned by central finite-difference tests and by the
matrix form of the chain rule kept in the tests.  The kernel also takes m
samples of one size at once, each with its own parameter vector: that is
how a Monte Carlo cell is fitted in lockstep.  Every step is numpy
arithmetic that is elementwise over the rows, a reduction along one row or
a product of one row's matrices, so row i of such a call is bitwise the
call on row i alone.

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


def log_density_terms(theta: np.ndarray, x: np.ndarray, q: np.ndarray, w=None, d=None):
    """Per-observation terms (L, w, t, d, psi, u, a) of the log density of
    each row of x (m, n) at its parameter row of theta (m, 4):

        log f(x) = log sigma + log1p(delta) + delta*L - (1 + 1/xi)*u - a

    with L = log|x| (0 at the origin), w = x*|x|**delta, t = sigma*w,
    d = t - mu, psi = 1 + xi*d, u = log(psi) and a = exp(-u/xi), the GEV
    factor's power psi**(-1/xi).  L, u and a are written to q[0], q[1]
    and q[2] of a buffer q (3, m, n), and w and d to the (m, n) arrays
    given for them, if any.  Outside the support
    psi <= 0 and the formula is -inf or nan.  At the origin with
    delta != 0, where the likelihood counts an observation as infeasible,
    psi and the terms after it are nan.  Call under
    ``np.errstate(all="ignore")``.
    """
    absx = np.abs(x)
    L = np.log(absx, out=q[0])
    zero = None
    if not absx.all():  # an observation at the origin
        zero = absx == 0.0
        L[zero] = 0.0
    # one power for all rows, its exponent materialised to the data's
    # shape: numpy's power squares or takes the square root for an
    # exponent of 2 or 0.5 that is broadcast along a row of one call,
    # so a scalar or (m, 1) exponent would part a row from itself alone
    if any(theta[:, 2].tolist()):
        w = np.empty_like(x) if w is None else w
        w[:] = theta[:, 2:3]
        np.power(absx, w, out=w)
        w *= x
    elif w is None:
        w = x
    else:
        w[:] = x
    mu, sg, _, xi = theta.T[:, :, None]  # (m, 1): broadcast along the rows of x
    t = sg * w
    d = np.subtract(t, mu, out=d)
    psi = 1.0 + xi * d
    if zero is not None:
        psi[zero & (theta[:, 2:3] != 0.0)] = np.nan
    u = np.log(psi, out=q[1])
    a = np.exp(np.divide(u, -xi, out=q[2]), out=q[2])  # u/(-xi) is -u/xi bit for bit
    return L, w, t, d, psi, u, a


def _sums(theta: np.ndarray, x: np.ndarray, derivatives: bool):
    """The row sums of the batched kernel on one chunk: theta (m, 4), x (m, n).

    Returns the sums s (m, 3) of L, u and a, and with derivatives the
    product (m, 8, 6) of the weights W by the basis B, each stacked along
    the second axis:

        W = (e, b/psi, u*(1 - a), u*(2*(1 - a) + a*u/xi), k, k*w, k*t*L, k*d)
        B = (1, w, t*L, d, w*L, t*L**2)

    with e = (a - 1 - xi)/psi, k = (e + 1/psi)/psi and b = 1 - a + a*u/xi.
    Every derivative sum of ``_assemble`` is an entry of W @ B.T times a
    factor of the row's xi.  Each step is a reduction along a row or a
    product of one row's matrices.  Call under ``np.errstate(all="ignore")``.
    """
    m, n = x.shape
    q = np.empty((3, m, n))
    if not derivatives:
        log_density_terms(theta, x, q)
        return (q.sum(axis=2).T,)
    # each stack holds one term per (m, n) block, so that the elementwise
    # steps run over whole blocks
    bs = np.empty((6, m, n))
    L, w, t, d, psi, u, a = log_density_terms(theta, x, q, bs[1], bs[3])
    s = q.sum(axis=2).T
    v = theta[:, 3:]  # xi, broadcast along the rows of x
    bs[0] = 1.0
    tl = np.multiply(t, L, out=bs[2])
    np.multiply(w, L, out=bs[4])
    np.multiply(tl, L, out=bs[5])
    ws = np.empty((8, m, n))
    rp = np.divide(1.0, psi, out=psi)
    e = np.subtract(a, 1.0 + v, out=ws[0])
    e *= rp
    k = np.add(e, rp, out=ws[4])
    k *= rp
    one_a = np.subtract(1.0, a, out=ws[2])
    b = np.multiply(a, u, out=ws[1])
    b /= v
    b += one_a
    np.add(one_a, b, out=ws[3])
    ws[3] *= u
    one_a *= u  # u*(1 - a)
    b *= rp  # b/psi
    np.multiply(k, w, out=ws[5])
    np.multiply(k, tl, out=ws[6])
    np.multiply(k, d, out=ws[7])
    return s, np.matmul(ws.transpose(1, 0, 2), bs.transpose(1, 2, 0))


def _assemble(theta: np.ndarray, n: int, s: np.ndarray, wb=None):
    """ll of every row of a call from its row sums s, and g and H as well
    when the product wb of ``_sums`` is given.  Every step is elementwise
    over rows.  Call under ``np.errstate(all="ignore")``."""
    sg, dl, xi = theta[:, 1], theta[:, 2], theta[:, 3]
    ll = n * np.log(sg) + n * np.log1p(dl) + dl * s[:, 0] - (1.0 + 1.0 / xi) * s[:, 1] - s[:, 2]
    # psi <= 0 or NaN anywhere (an observation at the origin with delta !=
    # 0 included), and psi = inf, leave ll non-finite
    bad = ~np.isfinite(ll)
    ll[bad] = -np.inf
    if wb is None:
        return ll
    # d psi / d theta = xi * r * (1, w, t*L, d) per observation, with
    # r = (-1, 1, 1, 1/xi), and d f / d psi = e/xi, so g_i and H_ij are r_i
    # and r_i * r_j times sums of the product
    r = np.ones((len(theta), 4))
    r[:, 0] = -1.0
    r[:, 3] = 1.0 / xi
    eb = wb[:, 0]  # e times the basis
    g = eb[:, :4].copy()
    g[:, 1] += n / sg
    g[:, 2] += n / (1.0 + dl) + s[:, 0]
    g[:, 3] += wb[:, 2, 0] / xi  # the explicit xi dependence of f
    g *= r
    g[bad] = np.nan
    # the curvature term (P * d2f/dpsi2) @ P.T with d2f/dpsi2 =
    # -(1 + xi)*k/xi**2; d2f/dpsi dxi = b/(xi**2 * psi) in row 3 and
    # d f / d psi times the second derivatives of psi below the diagonal,
    # each doubled, as the mean of h and its transpose halves them; and the
    # diagonal terms.  That mean makes H exactly symmetric.
    h = wb[:, 4:, :4] * -(1.0 + xi)[:, None, None]
    h[:, 3, :3] += 2.0 * (wb[:, 1, :3] + eb[:, :3])
    h[:, 3, 3] += 2.0 * wb[:, 1, 3]
    h[:, 2, 1] += 2.0 * eb[:, 4]
    h[:, 1, 1] -= n / sg**2
    h[:, 2, 2] += eb[:, 5] - n / (1.0 + dl) ** 2
    h[:, 3, 3] -= wb[:, 3, 0] / xi
    h = 0.5 * (h + h.transpose(0, 2, 1)) * (r[:, :, None] * r[:, None, :])
    h[bad] = np.nan
    return ll, g, h


def kernel(theta, x, order: int = 2, rows=None):
    """Log-likelihood and, by ``order``, its derivatives from one pass.

    order 0 returns ll, order 1 (ll, g), order 2 (ll, g, H); order 1 is
    order 2 without its H, so its g is order 2's bit for bit.  With
    w = x*|x|**delta, L = log|x|, t = sigma*w and psi = 1 + xi*(t - mu), the
    log-likelihood is n*log(sigma) + n*log(1+delta) + delta*sum(L) + sum(f)
    with f = -(1 + 1/xi)*log(psi) - psi**(-1/xi).  g and H follow from the
    chain rule through psi, whose gradient is xi*r*(1, w, t*L, d) per
    observation with r = (-1, 1, 1, 1/xi).  So every sum they need, the
    curvature (P * f_psipsi) @ P.T with P = d psi / d theta included, is an
    entry of one product W @ B.T of eight per-observation weights by six
    basis terms (see ``_sums``) times a factor of the row's xi; the direct
    sigma/delta terms are added after.

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
