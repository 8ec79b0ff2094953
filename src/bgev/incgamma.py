"""Incomplete gamma functions.

``incomplete_gamma_lower(a, x)`` integrates t**(a-1)*exp(-t) over (0, x) and
``incomplete_gamma_upper(a, x)`` over (x, inf), so the two always sum to
Gamma(a).  This is the standard convention (lower = small-t integral); any
source that writes the pair the other way round must be mapped before use.
``regularized_gamma_upper(a, x)`` is Q(a, x) = upper / Gamma(a), computed
without forming Gamma(a), so it stays finite where Gamma(a) overflows; it
gives chi-squared tail probabilities as chi2.sf(q, h) = Q(h/2, q/2).

Evaluation follows the classic split: a power series for the lower function
when x < a + 1, and a modified Lentz continued fraction for the upper
function when x >= a + 1, each pushed to double-precision convergence.
"""

from __future__ import annotations

import math

__all__ = ["incomplete_gamma_lower", "incomplete_gamma_upper", "regularized_gamma_upper"]

_EPS = 2.22e-16
_TINY = 1e-300
_MAX_ITER = 600


def _check_args(a: float, x: float) -> None:
    if not (a > 0.0) or not math.isfinite(a):
        raise ValueError(f"shape a must be positive and finite, got {a}")
    if x < 0.0 or math.isnan(x):
        raise ValueError(f"x must be >= 0, got {x}")


def _series_regularized(a: float, x: float) -> float:
    """P(a, x) by the ascending series; accurate for x < a + 1."""
    if x == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise ArithmeticError(f"series for incomplete gamma failed to converge (a={a}, x={x})")
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _contfrac_regularized(a: float, x: float) -> float:
    """Q(a, x) by the Lentz continued fraction; accurate for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ArithmeticError(f"continued fraction for incomplete gamma failed to converge (a={a}, x={x})")
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def incomplete_gamma_lower(a: float, x: float) -> float:
    """Integral of t**(a-1)*exp(-t) over (0, x)."""
    _check_args(a, x)
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return math.gamma(a)
    if x < a + 1.0:
        p = _series_regularized(a, x)
    else:
        p = 1.0 - _contfrac_regularized(a, x)
    return p * math.gamma(a)


def regularized_gamma_upper(a: float, x: float) -> float:
    """Q(a, x): the integral of t**(a-1)*exp(-t) over (x, inf), divided by Gamma(a)."""
    _check_args(a, x)
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x < a + 1.0:
        return 1.0 - _series_regularized(a, x)
    return _contfrac_regularized(a, x)


def incomplete_gamma_upper(a: float, x: float) -> float:
    """Integral of t**(a-1)*exp(-t) over (x, inf)."""
    return regularized_gamma_upper(a, x) * math.gamma(a)
