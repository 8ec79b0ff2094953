"""Maximum-likelihood fitting of BGEV parameters.

The search runs in unconstrained coordinates (mu, log sigma, log(1+delta),
xi) so the scale and bimodality constraints hold by construction; results
are reported in natural coordinates.  It is a damped Newton ascent on the
analytic score and Hessian of ``likelihood.kernel``; Nelder-Mead, restarted
from the original start, takes over whenever a Newton step cannot be
completed.  Individual parameters can be pinned to fixed values, which is
how the scale is held at its true value in simulation studies and how the
plain GEV arises as the delta = 0 submodel.  The stopping tolerances and the
fallback's iteration cap are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distribution import sample
from .likelihood import PARAM_ORDER, hessian, kernel, log_likelihood
from .neldermead import nelder_mead
from .params import BgevParams, ParameterError

__all__ = [
    "FitResult",
    "FisherInformation",
    "InfeasibleStartError",
    "fit_mle",
    "fisher_information",
    "default_start",
]

_XI_FLOOR = 1e-8  # |xi| below this is treated as infeasible (model needs xi != 0)
_FTOL = 1e-8  # Newton stop on the predicted log-likelihood gain; also Nelder-Mead's ftol
_XTOL = 1e-8  # Nelder-Mead simplex-size tolerance
_MAX_ITER = 5000  # Nelder-Mead iteration cap
_NEWTON_MAX_STEPS = 50  # a Newton run still going after this many steps hands over
_ARMIJO = 1e-4  # sufficient-increase fraction of the predicted gain
_MAX_HALVINGS = 40  # line-search step halvings before the step counts as failed
_MAX_DAMPINGS = 20  # tenfold damping increases before the system counts as failed


class InfeasibleStartError(ValueError):
    """The starting point assigns zero likelihood to the data."""


@dataclass(frozen=True)
class FitResult:
    """Outcome of one likelihood maximization.

    fim is the observed information matrix -hessian(theta_hat) in natural
    coordinates, ordered (mu, sigma, delta, xi); std_errors are the square
    roots of the diagonal of its inverse and are present only when the
    matrix is positive definite.  stop says how the search ended: "newton"
    for a Newton finish, otherwise the Nelder-Mead fallback's "ftol", "xtol"
    or "max_iter"; iterations counts the steps of that method and n_eval
    every likelihood evaluation the fit made.
    """

    theta_hat: BgevParams
    neg2loglik: float
    converged: bool
    iterations: int
    fim: np.ndarray | None
    std_errors: np.ndarray | None
    start: BgevParams
    n_eval: int
    stop: str


def _to_internal(p: BgevParams) -> np.ndarray:
    return np.array([p.mu, math.log(p.sigma), math.log1p(p.delta), p.xi])


def _from_internal(z: np.ndarray, fixed: dict[str, float]) -> BgevParams | None:
    mu, lsg, ldl, xi = z
    if not np.all(np.isfinite(z)):
        return None
    try:
        kw = {
            "mu": float(mu),
            "sigma": float(math.exp(lsg)),
            "delta": float(math.expm1(ldl)),
            "xi": float(xi),
        }
        kw.update(fixed)  # pinned values bypass the log round trip exactly
        if abs(kw["xi"]) < _XI_FLOOR:
            return None
        return BgevParams(**kw)
    except (ParameterError, OverflowError):
        return None


def _ascent_step(neg_h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Solve (neg_h + lam*I) s = g for the first lam in 0, c, 10c, 100c, ...
    (c = 1e-3 * max|diag(neg_h)|) at which Cholesky succeeds; None when
    none does."""
    eye = np.eye(g.size)
    lam = 0.0
    floor = 1e-3 * max(1.0, float(np.max(np.abs(np.diag(neg_h)))))
    for _ in range(_MAX_DAMPINGS):
        m = neg_h + lam * eye
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            lam = max(10.0 * lam, floor)
            continue
        return np.linalg.solve(m, g), lam
    return None


def _newton(evaluate, z: np.ndarray, free_idx: list[int]):
    """Damped Newton ascent from z over the free internal coordinates.

    evaluate(z, order) returns (theta, kernel output) at the free coordinates
    z, or (None, -inf) where z maps outside the parameter space.  Returns
    (theta, ll, hessian, steps) at the first iterate whose undamped Newton
    decrement g.s is below 2*_FTOL, or None when a derivative is non-finite,
    no damping makes the system positive definite, the line search fails or
    the step cap is reached.
    """
    for steps in range(_NEWTON_MAX_STEPS):
        theta, out = evaluate(z, 2)
        if theta is None:
            return None
        ll, g, h = out
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
            return None
        # chain rule into (mu, log sigma, log1p delta, xi)
        jac = np.array([1.0, theta.sigma, 1.0 + theta.delta, 1.0])
        g_z = jac * g
        h_z = jac[:, None] * h * jac
        h_z[1, 1] += g_z[1]
        h_z[2, 2] += g_z[2]
        g_z = g_z[free_idx]
        step = _ascent_step(-h_z[np.ix_(free_idx, free_idx)], g_z)
        if step is None:
            return None
        s, lam = step
        slope = float(g_z @ s)
        if lam == 0.0 and slope < 2.0 * _FTOL:
            return theta, ll, h, steps
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            z_try = z + alpha * s
            if evaluate(z_try, 0)[1] >= ll + _ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            return None
        z = z_try
    return None


def fit_mle(x, start: BgevParams, fixed: dict[str, float] | None = None) -> FitResult:
    """Maximize the BGEV log-likelihood from the given start.

    fixed pins parameters by name (any of PARAM_ORDER, not all four) to the
    given values, which replace the start's; the rest are optimized.
    Damped Newton on the analytic score and Hessian runs first; when it
    cannot finish, Nelder-Mead runs from the same start.  The start must be
    feasible (finite log-likelihood) and the sample must hold at least 8
    observations.  Non-convergence within the iteration cap is reported
    through the converged flag, never raised; the best point seen is still
    returned and its -2 log-likelihood never exceeds the start's.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 8:
        raise ValueError(f"need at least 8 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    fixed = fixed or {}
    unknown = set(fixed) - set(PARAM_ORDER)
    if unknown:
        raise ValueError(f"unknown fixed parameters: {sorted(unknown)}")
    free_idx = [i for i, name in enumerate(PARAM_ORDER) if name not in fixed]
    if not free_idx:
        raise ValueError("all parameters fixed, nothing to optimize")
    start = replace(start, **fixed)  # validates the pinned values

    n_eval = 1
    if not np.isfinite(kernel(start, x, 0)):
        raise InfeasibleStartError(
            "starting parameters give zero likelihood (data outside their support)"
        )
    z_base = _to_internal(start)

    def evaluate(z_free: np.ndarray, order: int):
        nonlocal n_eval
        z = z_base.copy()
        z[free_idx] = z_free
        theta = _from_internal(z, fixed)
        if theta is None:
            return None, -np.inf
        n_eval += 1
        return theta, kernel(theta, x, order)

    newton = _newton(evaluate, z_base[free_idx], free_idx)
    if newton is not None:
        theta_hat, ll_hat, h, iterations = newton
        converged, stop = True, "newton"
    else:
        res = nelder_mead(
            lambda z: -evaluate(z, 0)[1],
            z_base[free_idx],
            ftol=_FTOL,
            xtol=_XTOL,
            max_iter=_MAX_ITER,
        )
        z_hat = z_base.copy()
        z_hat[free_idx] = res.x
        theta_hat = _from_internal(z_hat, fixed)
        if theta_hat is None or not np.isfinite(res.fun):
            # optimizer never left the infeasible region; report the start itself
            theta_hat = start
        n_eval += 1
        ll_hat, _, h = kernel(theta_hat, x, 2)
        converged, stop, iterations = res.converged, res.stop, res.iterations

    fim = None
    std = None
    if np.all(np.isfinite(h)):
        fim = -h  # observed information; the kernel's Hessian is exactly symmetric
        try:
            np.linalg.cholesky(fim)  # positive definiteness gate
            std = np.sqrt(np.diag(np.linalg.inv(fim)))
        except np.linalg.LinAlgError:
            std = None

    return FitResult(
        theta_hat=theta_hat,
        neg2loglik=-2.0 * ll_hat,
        converged=converged,
        iterations=iterations,
        fim=fim,
        std_errors=std,
        start=start,
        n_eval=n_eval,
        stop=stop,
    )


def default_start(x) -> BgevParams:
    """Data-driven starting point: shape sign from the sample skewness,
    location matched to the sample median, unit transform scale, delta 0.
    The shape is shrunk toward zero until the whole sample is feasible."""
    x = np.asarray(x, dtype=float)
    med = float(np.median(x))
    centered = x - np.mean(x)
    s = float(np.std(x))
    skew = float(np.mean(centered**3) / s**3) if s > 0 else 0.0
    xi0 = 0.1 if skew >= 0 else -0.1
    for _ in range(60):
        mu0 = med - ((math.log(2.0)) ** (-xi0) - 1.0) / xi0
        cand = BgevParams(xi=xi0, mu=mu0, sigma=1.0, delta=0.0)
        if np.isfinite(log_likelihood(cand, x)):
            return cand
        xi0 *= 0.5
        if abs(xi0) < 1e-4:
            xi0 = math.copysign(1e-4, xi0)
            mu0 = med - ((math.log(2.0)) ** (-xi0) - 1.0) / xi0
            return BgevParams(xi=xi0, mu=mu0, sigma=1.0, delta=0.0)
    raise InfeasibleStartError("could not construct a feasible default start")


@dataclass(frozen=True)
class FisherInformation:
    """Monte Carlo estimate of the per-observation Fisher information.

    matrix averages -hessian/n over replicates drawn at theta; mc_std_error
    holds the entrywise Monte Carlo standard error of that average.  Invalid
    replicates (non-finite Hessian) are skipped and counted.
    """

    matrix: np.ndarray
    mc_std_error: np.ndarray
    replicates_used: int
    replicates_failed: int


def fisher_information(theta: BgevParams, m: int, n: int, seed: int) -> FisherInformation:
    """Average -hessian(theta, sample_n)/n over m seeded replicates."""
    if m < 30:
        raise ValueError(f"need m >= 30 replicates, got {m}")
    mats = []
    failed = 0
    for r in range(m):
        rng = np.random.default_rng([int(seed), r])
        xr = sample(n, theta, rng)
        h = hessian(theta, xr)
        if np.all(np.isfinite(h)):
            mats.append(-h / n)
        else:
            failed += 1
    if not mats:
        raise ArithmeticError("every replicate produced an invalid Hessian")
    stack = np.stack(mats)
    mean = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / math.sqrt(len(mats))
    return FisherInformation(
        matrix=0.5 * (mean + mean.T),
        mc_std_error=se,
        replicates_used=len(mats),
        replicates_failed=failed,
    )
