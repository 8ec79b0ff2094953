"""Evaluation, sampling and structural analysis of the bimodal GEV law.

The distribution is the pushforward of a unit-scale GEV(xi, mu) through the
inverse of the signed power map sigma*x*|x|**delta: the CDF is the GEV CDF
composed with the forward map, and the density picks up the map's derivative
as a Jacobian factor.  The log density is computed from the likelihood
kernel's per-observation terms, so ``logpdf`` summed over a sample is the
log-likelihood, and ``pdf`` is its exponential.  Everything here is a pure
function of its arguments.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

from .gev import gev_cdf, gev_mode, gev_quantile
from .incgamma import incomplete_gamma_lower, incomplete_gamma_upper
from .likelihood import log_density_terms
from .params import BgevParams, CriticalPoints, Modality, Support, SupportKind
from .transform import transform_forward, transform_inverse

__all__ = [
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
]

_CRITICAL_GRID = 1024  # bracketing grid size of critical_points


def support(p: BgevParams) -> Support:
    """Half-line on which the density is positive.

    The finite endpoint is the preimage of the GEV support boundary
    mu - 1/xi under the power map.
    """
    edge = transform_inverse(p.mu - 1.0 / p.xi, p.sigma, p.delta)
    if p.xi > 0:
        return Support(lower=edge, upper=math.inf, kind=SupportKind.LEFT_BOUNDED)
    return Support(lower=-math.inf, upper=edge, kind=SupportKind.RIGHT_BOUNDED)


def logpdf(x, p: BgevParams):
    """Log density at x: the per-observation summand of the log-likelihood,
    log sigma + log1p(delta) + delta*log|x| - (1 + 1/xi)*log(psi) - psi**(-1/xi)
    with psi = 1 + xi*(sigma*x*|x|**delta - mu), from the likelihood
    kernel's own terms.

    -inf outside the support and where the GEV factor underflows.  At the
    origin the Jacobian factor is 0 for delta > 0 (-inf) and singular for
    -1 < delta < 0, where the density is unbounded: +inf whenever 0 lies
    inside the support.  The spike is integrable.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(1, -1)
    theta = np.array([[p.mu, p.sigma, p.delta, p.xi]])
    with np.errstate(all="ignore"):
        L, _, _, _, psi, u, a = log_density_terms(theta, flat, np.empty((1, 3, flat.size)))
        out = math.log(p.sigma) + math.log1p(p.delta) + p.delta * L - (1.0 + 1.0 / p.xi) * u - a
    out[~(psi > 0.0) | np.isnan(out)] = -np.inf
    if p.delta != 0.0:
        out[flat == 0.0] = np.inf if p.delta < 0.0 and 1.0 - p.xi * p.mu > 0.0 else -np.inf
    out = out.reshape(x.shape)
    return out if out.ndim else float(out)


def pdf(x, p: BgevParams):
    """Density at x, exp(logpdf(x, p)); zero outside the support."""
    with np.errstate(over="ignore"):
        out = np.exp(logpdf(x, p))
    return out if out.ndim else float(out)


def cdf(x, p: BgevParams):
    """Distribution function, clamped to 0/1 outside the support."""
    t = transform_forward(x, p.sigma, p.delta)
    return gev_cdf(t, p.xi, p.mu)


def sf(x, p: BgevParams):
    """Survival function 1 - cdf(x), computed to full relative accuracy in the
    far right tail (where 1 - exp(-eps) would otherwise round to eps-ish)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(transform_forward(x, p.sigma, p.delta), dtype=float)
    u = 1.0 + p.xi * (t - p.mu)
    out = np.empty_like(u)
    inside = u > 0.0
    with np.errstate(over="ignore", under="ignore"):
        out[inside] = -np.expm1(-(u[inside] ** (-1.0 / p.xi)))
    out[~inside] = 1.0 if p.xi > 0.0 else 0.0
    return out if out.ndim else float(out)


def quantile(q, p: BgevParams):
    """Inverse CDF: the power-map preimage of the GEV quantile.

    Raises for levels outside the open unit interval.
    """
    y = gev_quantile(q, p.xi, p.mu)
    return transform_inverse(y, p.sigma, p.delta)


def sample(n: int, p: BgevParams, seed) -> np.ndarray:
    """n i.i.d. draws by inverse-transform sampling.

    seed may be an integer or a ready-made numpy Generator; an integer always
    yields the same sequence.  Uniform variates are clipped away from 0 so the
    quantile map stays finite.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u = np.clip(rng.random(n), 1e-300, 1.0 - 1e-16)
    return np.asarray(quantile(u, p))


def tail_index(p: BgevParams) -> float:
    """Pareto-like right-tail exponent (delta+1)/xi, defined for xi > 0."""
    if p.xi <= 0.0:
        raise ValueError("tail index requires xi > 0 (heavy right tail)")
    return (p.delta + 1.0) / p.xi


# ----------------------------------------------------------------------------
# critical points


def _stationarity_y(y: np.ndarray, p: BgevParams) -> np.ndarray:
    """Stationarity function on the GEV-kernel scale y = 1 + xi*(T(x) - mu).

    For delta != 0, a point x != 0 is stationary iff G(y) = 0 where
        G(y) = delta*y - (delta+1)*Tval*((1+xi) - y**(-1/xi)),
        Tval = mu + (y-1)/xi.
    At delta == 0 this G picks up a spurious root at Tval = 0, so that case
    is resolved directly from the GEV mode instead.  The product
    Tval * y**(-1/xi) is expanded to keep 0*inf out of the tails.
    """
    xi, mu, dl = p.xi, p.mu, p.delta
    c = mu - 1.0 / xi
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        pow_a = y ** (-1.0 / xi)
        pow_b = y ** (1.0 - 1.0 / xi)
        tval = mu + (y - 1.0) / xi
        cross = (c * pow_a if c != 0.0 else 0.0) + pow_b / xi
        g = dl * y - (dl + 1.0) * (1.0 + xi) * tval + (dl + 1.0) * cross
    return g


def _bisect_y(p: BgevParams, a: float, b: float, fa: float) -> float:
    for _ in range(200):
        m = 0.5 * (a + b)
        if (b - a) <= 1e-12 * max(abs(a), abs(b), 1.0):
            return m
        fm = float(_stationarity_y(np.asarray(m), p))
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def critical_points(p: BgevParams) -> CriticalPoints:
    """Stationary points of the density and a unimodal/bimodal verdict.

    Roots of the stationarity equation are bracketed on a 1024-point
    geometric grid of the GEV-kernel variable covering the central 1 - 1e-12
    quantile range, then refined by bisection; x = 0 is appended when
    delta >= 2 and the origin lies strictly inside the support (there the
    Jacobian and its derivative both vanish, so the density has a flat
    point).  Classification
    counts local maxima among the returned points; DEGENERATE flags any shape
    the procedure could not resolve.
    """
    sup = support(p)
    pts = []
    if p.delta == 0.0:
        # plain GEV composed with a linear map: the only stationary point is
        # the preimage of the GEV mode (interior for xi > -1)
        if p.xi > -1.0:
            x = transform_inverse(gev_mode(p.xi, p.mu), p.sigma, p.delta)
            if sup.contains(x):
                pts.append(float(x))
    else:
        eps_q = 1e-12
        y_lo_q = (-math.log(eps_q)) ** (-p.xi)
        y_hi_q = (-math.log1p(-eps_q)) ** (-p.xi)
        lo, hi = min(y_lo_q, y_hi_q), max(y_lo_q, y_hi_q)

        ys = np.geomspace(lo, hi, _CRITICAL_GRID)
        gs = _stationarity_y(ys, p)
        ok = np.isfinite(gs)

        roots_y: list[float] = []
        for i in range(len(ys) - 1):
            if not (ok[i] and ok[i + 1]):
                continue
            if gs[i] == 0.0:
                roots_y.append(float(ys[i]))
            elif gs[i] * gs[i + 1] < 0.0:
                roots_y.append(_bisect_y(p, float(ys[i]), float(ys[i + 1]), float(gs[i])))
        if gs[-1] == 0.0 and ok[-1]:
            roots_y.append(float(ys[-1]))

        for y in roots_y:
            t = p.mu + (y - 1.0) / p.xi
            x = transform_inverse(t, p.sigma, p.delta)
            if sup.contains(x):
                pts.append(float(x))
    if p.delta >= 2.0 and sup.contains(0.0):
        pts.append(0.0)

    pts = sorted(pts)
    merged: list[float] = []
    for x in pts:
        if merged and abs(x - merged[-1]) <= 1e-9 * max(1.0, abs(x)):
            continue
        merged.append(x)

    if not merged:
        return CriticalPoints(points=(), classification=Modality.DEGENERATE)

    # fences between/around the critical points; density is ~0 at both of them
    left = quantile(1e-8, p)
    right = quantile(1.0 - 1e-8, p)
    fences = [min(left, merged[0] - 1.0)]
    for a, b in zip(merged, merged[1:]):
        fences.append(0.5 * (a + b))
    fences.append(max(right, merged[-1] + 1.0))

    fvals = [float(pdf(x, p)) for x in merged]
    ffence = [float(pdf(x, p)) for x in fences]
    maxima = tuple(
        x
        for x, v, lo_v, hi_v in zip(merged, fvals, ffence[:-1], ffence[1:])
        if v >= lo_v and v >= hi_v and np.isfinite(v)
    )

    if len(maxima) == 1:
        cls = Modality.UNIMODAL
    elif len(maxima) == 2:
        cls = Modality.BIMODAL
    else:
        cls = Modality.DEGENERATE
    return CriticalPoints(points=tuple(merged), classification=cls, maxima=maxima)


# ----------------------------------------------------------------------------
# moments


def moment(k: int, p: BgevParams) -> float:
    """E[X**(k*(delta+1))], the k-th moment on the transformed power scale.

    Exists for xi < 1/k.  With Z ~ Exp(1), the GEV variable is
    Y = T(X) = mu + (Z**(-xi) - 1)/xi, so Y**k expands binomially in powers
    Z**(-xi*i) whose expectations over Z are incomplete gamma integrals.
    For either sign of xi, Y < 0 exactly when Z > x0 = (1 - xi*mu)**(-1/xi);
    when 1 - xi*mu <= 0 the support lies entirely on one side of zero
    (x0 = inf for xi > 0, x0 = 0 for xi < 0).  The part over Y < 0 carries
    the sign (-1)**(k*delta), so when the support reaches below zero the
    moment is real-valued only if k*(delta+1) is an integer, i.e. k*delta
    integral.  The binomial sum cancels as |xi| -> 0, losing up to about
    k*log10(1/|xi|) digits.
    """
    if int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    k = int(k)
    xi, mu, sg, dl = p.xi, p.mu, p.sigma, p.delta
    if xi >= 1.0 / k:
        raise ValueError(f"moment of order k={k} requires xi < 1/k, got xi={xi}")

    base = 1.0 - xi * mu
    if base > 0.0:
        x0 = base ** (-1.0 / xi)
    else:
        x0 = math.inf if xi > 0 else 0.0

    kd = k * dl
    if x0 < math.inf and abs(kd - round(kd)) >= 1e-9:
        raise ValueError(
            "moment is not real-valued: support includes negatives and the "
            f"exponent k*(delta+1)={k * (dl + 1.0)} is not an integer"
        )
    sign = -1.0 if round(kd) % 2 else 1.0

    i_neg = 0.0  # xi**k * E[Y**k; Y < 0], the part over Z > x0
    i_pos = 0.0  # xi**k * E[Y**k; Y >= 0]
    for i in range(k + 1):
        c = comb(k, i) * (-base) ** (k - i)
        i_neg += c * incomplete_gamma_upper(1.0 - xi * i, x0)
        i_pos += c * incomplete_gamma_lower(1.0 - xi * i, x0)
    return (sign * i_neg + i_pos) / (xi**k * sg**k)
