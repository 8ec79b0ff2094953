"""The signed power transformation sigma * x * |x|**delta and its inverse.

The map is odd, strictly increasing for delta > -1, and fixes the origin.
Its derivative sigma*(delta+1)*|x|**delta, the Jacobian factor of the BGEV
density, is carried in log form by ``distribution.logpdf``; it is singular
at the origin for delta < 0.
"""

from __future__ import annotations

import numpy as np

__all__ = ["transform_forward", "transform_inverse"]


def _check(sigma: float, delta: float) -> None:
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if delta <= -1.0:
        raise ValueError(f"delta must be > -1, got {delta}")


def transform_forward(x, sigma: float, delta: float):
    """sigma * x * |x|**delta, elementwise.  Total on the extended reals:
    +-inf maps to +-inf, where |x|**delta is 0 for delta < 0."""
    _check(sigma, delta)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p = np.where(x == 0.0, 0.0, np.where(np.isinf(x), 1.0, np.abs(x) ** delta))
        out = sigma * x * p  # +-inf where the power overflows
    return out if out.ndim else float(out)


def transform_inverse(y, sigma: float, delta: float):
    """sign(y) * (|y|/sigma)**(1/(delta+1)), the inverse of transform_forward."""
    _check(sigma, delta)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):  # +-inf where the power overflows, as near delta = -1
        out = np.sign(y) * (np.abs(y) / sigma) ** (1.0 / (delta + 1.0))
    return out if out.ndim else float(out)
