"""The signed power transformation sigma * x * |x|**delta and its calculus.

The map is odd, strictly increasing for delta > -1, and fixes the origin.
Derivatives at x = 0 are singular for some delta ranges; see the individual
functions for the exact domains.
"""

from __future__ import annotations

import numpy as np

__all__ = ["transform_forward", "transform_inverse", "transform_d1", "transform_d2"]


def _check(sigma: float, delta: float) -> None:
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if delta <= -1.0:
        raise ValueError(f"delta must be > -1, got {delta}")


def transform_forward(x, sigma: float, delta: float):
    """sigma * x * |x|**delta, elementwise.  Total on the reals."""
    _check(sigma, delta)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p = np.where(x == 0.0, 0.0, np.abs(x) ** delta)
        out = sigma * x * p  # +-inf where the power overflows
    return out if out.ndim else float(out)

def transform_inverse(y, sigma: float, delta: float):
    """sign(y) * (|y|/sigma)**(1/(delta+1)), the inverse of transform_forward."""
    _check(sigma, delta)
    y = np.asarray(y, dtype=float)
    out = np.sign(y) * (np.abs(y) / sigma) ** (1.0 / (delta + 1.0))
    return out if out.ndim else float(out)


def transform_d1(x, sigma: float, delta: float):
    """First derivative sigma*(delta+1)*|x|**delta.

    Nonnegative everywhere it is defined.  For delta < 0 the derivative is
    singular at the origin and evaluating there raises.
    """
    _check(sigma, delta)
    x = np.asarray(x, dtype=float)
    if delta < 0.0 and np.any(x == 0.0):
        raise ValueError("first derivative is singular at x = 0 for delta < 0")
    with np.errstate(divide="ignore"):
        p = np.where(x == 0.0, 0.0 if delta > 0 else 1.0, np.abs(x) ** delta)
    out = sigma * (delta + 1.0) * p
    return out if out.ndim else float(out)


def transform_d2(x, sigma: float, delta: float):
    """Second derivative sign(x)*sigma*(delta+1)*delta*|x|**(delta-1).

    Undefined at x = 0 for delta < 1 (except the trivial delta = 0 case,
    where it is identically zero).
    """
    _check(sigma, delta)
    x = np.asarray(x, dtype=float)
    if delta == 0.0:
        out = np.zeros_like(x)
        return out if out.ndim else float(out)
    if delta < 1.0 and np.any(x == 0.0):
        raise ValueError("second derivative is undefined at x = 0 for delta < 1")
    with np.errstate(divide="ignore"):
        p = np.where(x == 0.0, 0.0, np.abs(x) ** (delta - 1.0))
    out = np.sign(x) * sigma * (delta + 1.0) * delta * p
    return out if out.ndim else float(out)
