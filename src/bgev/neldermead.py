"""Plain Nelder-Mead simplex minimizer.

Standard coefficients: reflection 1, expansion 2, contraction 0.5,
shrink 0.5.  Convergence is declared when either the function-value spread
over the simplex or its largest edge (sup-norm) drops below the tolerances;
the result's stop field names the test that fired ("ftol" or "xtol"), or
"max_iter" when the iteration cap ended the search.
Objective values of +inf are legal and mark infeasible proposals, which the
ordinary reflect/contract logic then moves away from; NaN is coerced to +inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["NelderMeadResult", "nelder_mead"]

_ALPHA = 1.0  # reflection
_GAMMA = 2.0  # expansion
_RHO = 0.5  # contraction
_SIGMA = 0.5  # shrink


@dataclass(frozen=True)
class NelderMeadResult:
    x: np.ndarray
    fun: float
    iterations: int
    n_eval: int
    converged: bool
    stop: str


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    # classic per-coordinate perturbation: 5% of the coordinate, small absolute
    # step where the coordinate is zero
    n = x0.size
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        if x0[i] != 0.0:
            simplex[i + 1, i] *= 1.05
        else:
            simplex[i + 1, i] = 0.00025
    return simplex


def nelder_mead(
    fn: Callable[[np.ndarray], float],
    x0,
    ftol: float = 1e-8,
    xtol: float = 1e-8,
    max_iter: int = 5000,
) -> NelderMeadResult:
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    n_eval = 0

    def f(z: np.ndarray) -> float:
        nonlocal n_eval
        n_eval += 1
        v = fn(z)
        return np.inf if (v is None or np.isnan(v)) else float(v)

    simplex = _initial_simplex(x0)
    fvals = np.array([f(v) for v in simplex])

    stop = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]

        spread = fvals[-1] - fvals[0] if np.isfinite(fvals[-1]) else np.inf
        size = np.max(np.abs(simplex[1:] - simplex[0]))
        if spread < ftol or size < xtol:
            stop = "ftol" if spread < ftol else "xtol"
            break

        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + _ALPHA * (centroid - simplex[-1])
        fr = f(xr)

        if fr < fvals[0]:
            xe = centroid + _GAMMA * (xr - centroid)
            fe = f(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:  # outside contraction
                xc = centroid + _RHO * (xr - centroid)
                fc = f(xc)
                accept = fc <= fr
            else:  # inside contraction
                xc = centroid - _RHO * (centroid - simplex[-1])
                fc = f(xc)
                accept = fc < fvals[-1]
            if accept:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + _SIGMA * (simplex[i] - simplex[0])
                    fvals[i] = f(simplex[i])

    best = int(np.argmin(fvals))
    return NelderMeadResult(
        x=simplex[best].copy(),
        fun=float(fvals[best]),
        iterations=it,
        n_eval=n_eval,
        converged=stop != "max_iter",
        stop=stop,
    )
