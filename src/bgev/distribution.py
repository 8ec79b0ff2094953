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
# the range ``sample`` clips its uniform variates to, away from 0 so that
# the quantile map stays finite
_UNIFORM_RANGE = (1e-300, 1.0 - 1e-16)


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
    inside the support.  The spike is integrable.  nan at nan.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(1, -1)
    theta = np.array([[p.mu, p.sigma, p.delta, p.xi]])
    with np.errstate(all="ignore"):
        L, _, _, _, psi, u, a = log_density_terms(theta, flat, np.empty((3, 1, flat.size)))
        out = np.log(p.sigma) + np.log1p(p.delta) + p.delta * L - (1.0 + 1.0 / p.xi) * u - a
    out[~(psi > 0.0) | np.isnan(out)] = -np.inf
    if p.delta != 0.0:
        out[flat == 0.0] = np.inf if p.delta < 0.0 and 1.0 - p.xi * p.mu > 0.0 else -np.inf
    out[np.isnan(flat)] = np.nan
    out = out.reshape(x.shape)
    return out if out.ndim else float(out)


def pdf(x, p: BgevParams):
    """Density at x, exp(logpdf(x, p)); zero outside the support, nan at nan."""
    with np.errstate(over="ignore"):
        out = np.exp(logpdf(x, p))
    return out if out.ndim else float(out)


def cdf(x, p: BgevParams):
    """Distribution function, clamped to 0/1 outside the support; nan at nan."""
    t = transform_forward(x, p.sigma, p.delta)
    return gev_cdf(t, p.xi, p.mu)


def sf(x, p: BgevParams):
    """Survival function 1 - cdf(x), nan at nan, computed to full relative
    accuracy in the far right tail (where 1 - exp(-eps) would round to eps-ish)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(transform_forward(x, p.sigma, p.delta), dtype=float)
    u = 1.0 + p.xi * (t - p.mu)
    out = np.empty_like(u)
    inside = u > 0.0
    with np.errstate(over="ignore", under="ignore"):
        out[inside] = -np.expm1(-(u[inside] ** (-1.0 / p.xi)))
    out[~inside] = 1.0 if p.xi > 0.0 else 0.0
    out[np.isnan(u)] = np.nan
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
    GEV quantile stays finite; the power map can still overflow to +-inf
    near delta = -1, where it raises that quantile to the power 1/(1+delta).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u = np.clip(rng.random(n), *_UNIFORM_RANGE)
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


def critical_points(p: BgevParams) -> CriticalPoints:
    """Critical points of the density, the stationary points and, for
    delta != 0, the origin, with a unimodal/bimodal verdict.

    Sign changes of the stationarity function are bracketed on a 1024-point
    geometric grid of the GEV-kernel variable covering the central 1 - 1e-12
    quantile range and bisected all together.  The origin, when the support
    holds it, is the Jacobian's zero (density 0, delta > 0) or pole (density
    unbounded, delta < 0).  A point is a maximum when its density is at
    least that at both of its fences, the midpoints to its neighbours and a
    far point beyond each end; DEGENERATE flags any count of maxima other
    than one or two.
    """
    sup = support(p)
    if p.delta == 0.0:
        # plain GEV composed with a linear map: the only stationary point is
        # the preimage of the GEV mode (interior for xi > -1)
        x = np.array([])
        if p.xi > -1.0:
            x = np.array([transform_inverse(gev_mode(p.xi, p.mu), p.sigma, 0.0)])
    else:
        # the GEV-kernel values at the quantile levels 1e-12 and 1 - 1e-12
        ends = (-math.log(1e-12)) ** -p.xi, (-math.log1p(-1e-12)) ** -p.xi
        ys = np.geomspace(min(ends), max(ends), _CRITICAL_GRID)
        gs = _stationarity_y(ys, p)
        sign = np.where(np.isfinite(gs), np.sign(gs), np.nan)  # no bracket ends at an overflow
        i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
        a, b, sign_a = ys[i], ys[i + 1], sign[i]
        live = np.ones(i.size, dtype=bool)
        for _ in range(200):  # bisect all brackets together; a zero at m closes its bracket onto m
            if not live.any():
                break
            m = 0.5 * (a + b)
            s = sign_a * np.sign(_stationarity_y(m, p))
            a = np.where(live & (s >= 0.0), m, a)
            b = np.where(live & (s <= 0.0), m, b)
            live = b - a > 1e-12 * np.maximum(b, 1.0)
        y = np.concatenate([ys[gs == 0.0], 0.5 * (a + b)])
        x = transform_inverse(p.mu + (y - 1.0) / p.xi, p.sigma, p.delta)
        if sup.contains(0.0):  # the Jacobian's zero (delta > 0) or pole (delta < 0)
            x = np.append(x, 0.0)
    x = np.sort(x[(sup.lower < x) & (x < sup.upper)])
    if not x.size:
        return CriticalPoints(points=(), classification=Modality.DEGENERATE)
    x = x[np.r_[True, np.diff(x) > 1e-9 * np.maximum(1.0, np.abs(x[1:]))]]  # merge near-duplicates

    # fences between/around the critical points; density is ~0 at the outer two
    lo = min(quantile(1e-8, p), x[0] - 1.0)
    hi = max(quantile(1.0 - 1e-8, p), x[-1] + 1.0)
    v = pdf(np.concatenate([x, [lo], 0.5 * (x[:-1] + x[1:]), [hi]]), p)
    at, fence = v[: x.size], v[x.size :]
    maxima = x[(at >= fence[:-1]) & (at >= fence[1:])]
    if maxima.size == 1:
        cls = Modality.UNIMODAL
    elif maxima.size == 2:
        cls = Modality.BIMODAL
    else:
        cls = Modality.DEGENERATE
    return CriticalPoints(
        points=tuple(x.tolist()),
        classification=cls,
        maxima=tuple(maxima.tolist()),
    )


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
