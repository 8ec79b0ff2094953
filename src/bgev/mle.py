"""Maximum-likelihood fitting of BGEV parameters.

The search runs in unconstrained coordinates (mu, log sigma, log(1+delta),
xi) so the scale and bimodality constraints hold by construction; results
are reported in natural coordinates.  It is one trust-region Newton run on
the analytic score and Hessian of ``likelihood.kernel`` (Nocedal & Wright,
*Numerical Optimization*, ch. 4): each step maximizes the quadratic model
of the log-likelihood within a radius, and the ratio of the actual to the
predicted gain of the step decides whether it is taken and how the radius
changes.  A fit is converged only where Newton's own stop held.  Individual
parameters can be pinned to fixed values, which is how the scale is held at
its true value in simulation studies and how the plain GEV arises as the
delta = 0 submodel.  The stopping tolerance, the step cap and the initial
radius are module constants.

There is one fit path, and its run takes many samples of one size in
lockstep: ``fit_mle_rows`` fits all the replicates of the Monte Carlo cells
of one sample size and scale at once, and ``fit_mle`` is its one-sample
case.  Every step, radius and stop decision is made per row, so each row
takes exactly the path it takes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .likelihood import PARAM_ORDER, kernel, log_likelihood
from .params import BgevParams, InfeasibleStartError

__all__ = [
    "FitResult",
    "InfeasibleStartError",
    "fit_mle",
    "fit_mle_rows",
    "default_start",
]

_XI_FLOOR = 1e-8  # |xi| below this is treated as infeasible (model needs xi != 0)
_FTOL = 1e-8  # Newton stop on the predicted log-likelihood gain
_MAX_STEPS = 250  # a run still going after this many trial steps has not converged
_RADIUS = 0.2  # the trust region's initial radius in the free internal coordinates
_ETA = 1e-4  # least ratio of actual to predicted gain at which a trial is accepted
_BOUNDARY_TOL = 1e-3  # a boundary step may be this fraction longer than the radius
_BOUNDARY_ITERATIONS = 50  # cap on the Newton iterations for one boundary step


@dataclass(frozen=True)
class FitResult:
    """Outcome of one likelihood maximization.

    fim is the full observed information matrix -hessian(theta_hat) in
    natural coordinates, ordered (mu, sigma, delta, xi), and None where the
    Hessian is not finite; fixed names the parameters the fit pinned, in
    that order.  stop says why the run ended: "newton" where Newton's stop
    held at theta_hat, otherwise "step_cap", or "no_ascent" (a step that
    predicts no gain or no longer moves the iterate, a start outside the
    parameter space, or a non-finite derivative at the start).  iterations
    counts the trial steps, taken or not, and n_eval every likelihood
    evaluation the fit made: 1 for the start, which is also its feasibility
    test, plus each trial that stayed in the parameter space.  converged
    and std_errors are derived from these fields.
    """

    theta_hat: BgevParams
    neg2loglik: float
    iterations: int
    fim: np.ndarray | None
    fixed: tuple[str, ...]
    start: BgevParams
    n_eval: int
    stop: str

    @property
    def converged(self) -> bool:
        """Whether Newton's stop held at theta_hat."""
        return self.stop == "newton"

    @cached_property
    def std_errors(self) -> np.ndarray | None:
        """Computed from fim when first read: 0 for a pinned parameter and
        otherwise the square roots of the diagonal of the inverse of fim's
        block on the free parameters, where that block is positive definite
        (its lowest ``eigvalsh`` eigenvalue above 0, the test of Newton's
        stop) and the inverse exists with a positive diagonal; else None."""
        if self.fim is None:
            return None
        free = [i for i, name in enumerate(PARAM_ORDER) if name not in self.fixed]
        block = self.fim[np.ix_(free, free)]
        if not np.linalg.eigvalsh(block)[0] > 0.0:
            return None
        try:
            variances = np.diag(np.linalg.inv(block))
        except np.linalg.LinAlgError:  # an eigenvalue a rounding error above 0 can leave a zero pivot
            return None
        if not variances.min() > 0.0:
            return None
        std = np.zeros(4)
        std[free] = np.sqrt(variances)
        return std


def _to_internal(p: BgevParams) -> list[float]:
    return [p.mu, math.log(p.sigma), math.log1p(p.delta), p.xi]


# bounds of a natural parameter row (mu, sigma, delta, xi), both open: every
# entry finite, sigma > 0 and delta > -1; |xi| >= _XI_FLOOR is checked apart
_LOWER = np.array([-np.inf, 0.0, -1.0, -np.inf])


class _Space:
    """The free internal coordinates of a fit and the pinned natural values."""

    def __init__(self, fixed: dict[str, float]):
        self.fixed = fixed
        self.free = [i for i, name in enumerate(PARAM_ORDER) if name not in fixed]
        self.free_block = np.ix_(self.free, self.free)
        self.pinned = np.array([fixed.get(name, np.nan) for name in PARAM_ORDER], dtype=float)

    def natural(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Natural parameter rows (mu, sigma, delta, xi) of the free internal
        coordinates z (r, k), and the mask of rows inside the parameter
        space; pinned values bypass the log round trip exactly.  The map is
        elementwise, so a row's values do not depend on the other rows; a
        coordinate whose exp overflows gives inf, which is outside."""
        theta = np.empty((len(z), 4))
        theta[:] = self.pinned
        with np.errstate(over="ignore"):
            for j, col in enumerate(self.free):
                theta[:, col] = z[:, j] if col in (0, 3) else (np.exp if col == 1 else np.expm1)(z[:, j])
        inside = np.logical_and.reduce((theta > _LOWER) & (theta < np.inf), axis=1)
        return theta, inside & (np.abs(theta[:, 3]) >= _XI_FLOOR)

    def params(self, row: np.ndarray) -> BgevParams:
        return BgevParams(**{**dict(zip(PARAM_ORDER, row.tolist())), **self.fixed})


def _trust_steps(neg_h: np.ndarray, g: np.ndarray, radius: np.ndarray):
    """Each row's step for the model g.s - s.neg_h.s/2 of its log-likelihood
    gain within its trust region |s| <= radius (Euclidean), and the Newton
    stop test.

    One ``eigh`` over the stack gives each row neg_h = Q diag(w) Q' and the
    coordinates c = Q'g of its gradient, in which the model is separable.
    Where the lowest eigenvalue is above 0, neg_h is positive definite and
    the undamped Newton step has coordinates c / w: the row stops when its
    decrement g.s = sum(c**2 / w) is below 2*_FTOL, and otherwise its step
    is the Newton step, shortened to the radius where it is longer.  That
    is the model's maximizer over the ellipsoid of neg_h itself (Nocedal
    & Wright, *Numerical Optimization*, section 4.5).  It keeps the Newton
    direction, which bends with -H along the edge of the support, where
    the log-likelihood falls away like a barrier; the sphere's maximizer
    turns toward the gradient and into that edge (on fit_long's 7,300
    maxima, the BGEV fit from the GEV optimum took 27 trials with it and
    8 with the Newton direction).  Where neg_h is not positive definite
    the step is the model's maximizer on the sphere (``_boundary_steps``),
    which exists at any finite neg_h.  Returns (s, stop, pred, boundary):
    the steps, the mask of rows that stop, each step's predicted gain, and
    the mask of rows whose step was held to the radius.
    """
    w, q = np.linalg.eigh(neg_h)
    c = np.matmul(g[:, None, :], q)[:, 0, :]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # no step is taken where these arise
        newton = w[:, 0] > 0.0
        t = np.where(newton[:, None], c / w, np.nan)
        stop = newton & (_row_dots(c, t) < 2.0 * _FTOL)
        length = np.sqrt(_row_dots(t, t))
        boundary = ~stop & ~(length <= radius)
        t[boundary] *= (radius[boundary] / length[boundary])[:, None]
        if False in newton.tolist():
            t[~newton] = _boundary_steps(w[~newton], c[~newton], radius[~newton])
        pred = _row_dots(c, t) - 0.5 * _row_dots(t, w * t)
    return np.matmul(q, t[:, :, None])[:, :, 0], stop, pred, boundary


def _boundary_steps(w: np.ndarray, c: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """The eigenbasis coordinates t of the model's maximizer on the sphere
    of each row's radius, where the lowest eigenvalue w[0] is at most 0:
    t = c / (w + lam) with lam above -w[0] (Moré and Sorensen's iteration;
    Nocedal & Wright, *Numerical Optimization*, Algorithm 4.3).

    lam starts where the lowest coordinate alone is radius long, so every
    row starts with |t| >= radius, and Newton's iteration on 1/|t| =
    1/radius raises lam toward the root; a row stops once |t| is within
    _BOUNDARY_TOL of the radius.  A row left inside the sphere, in the hard
    case where c[0] is lost to rounding against w[0] and the other
    coordinates fall short, has its lowest coordinate extended to reach
    it."""
    lam = np.abs(c[:, 0]) / radius - w[:, 0]
    going = np.ones(len(c), dtype=bool)
    for _ in range(_BOUNDARY_ITERATIONS):
        d = w + lam[:, None]
        pos = d > 0.0
        t = np.divide(c, d, out=np.zeros_like(c), where=pos)
        norm2 = _row_dots(t, t)
        going &= norm2 > ((1.0 + _BOUNDARY_TOL) * radius) ** 2
        if True not in going.tolist():
            break
        norm = np.sqrt(norm2)
        slope = _row_dots(t, np.divide(t, d, out=np.zeros_like(c), where=pos))
        lam = np.where(going, lam + norm2 / slope * (norm - radius) / radius, lam)
    short = norm2 < radius**2
    if True in short.tolist():
        low = t[short, 0]
        t[short, 0] = np.copysign(np.sqrt(radius[short] ** 2 - (norm2[short] - low**2)), low)
    return t


# the chain rule into (mu, log sigma, log1p delta, xi): the Jacobian row is
# theta * _JAC_SCALE + _JAC_SHIFT = (1, sigma, 1 + delta, 1), and the first
# derivatives of log sigma and log1p delta join the Hessian's diagonal
_JAC_SCALE = np.array([0.0, 1.0, 1.0, 0.0])
_JAC_SHIFT = np.array([1.0, 0.0, 1.0, 1.0])
_DIAG_SG_DL = np.diag([0.0, 1.0, 1.0, 0.0])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of two (m, k) arrays, one 1 x k by k x 1
    product per row, so that a row's value does not depend on the rows
    batched with it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _finite_rows(a: np.ndarray) -> np.ndarray:
    return np.logical_and.reduce(np.isfinite(a.reshape(len(a), math.prod(a.shape[1:]))), axis=1)


def _newton(x: np.ndarray, z: np.ndarray, space: _Space):
    """Trust-region Newton ascent of each sample, a row of x (m, n), from
    its free internal start, the same row of z (m, k), all in lockstep
    (Nocedal & Wright, *Numerical Optimization*, Algorithm 4.1).

    Each row takes exactly the path it takes alone: its step, its stop and
    its radius are decided on its own numbers.  A row stops at the first
    iterate whose undamped Newton decrement g.s is below 2*_FTOL at a
    positive definite -H, and is frozen there.  Otherwise its trial z + s
    (``_trust_steps``) is evaluated once, at order 2, and the ratio of the
    actual to the predicted gain decides: above _ETA the trial is the next
    iterate, and its (ll, g, H) are carried into the next step; otherwise
    the row keeps its iterate and what was evaluated there.  Below 1/4 the
    radius shrinks to a quarter of the step's length, and above 3/4 a step
    held to the radius doubles it.  Each step's trials are evaluated as the
    starts are, in one kernel call on every running row, whose rows are
    independent; a trial outside the parameter space (the mask of
    ``_Space.natural``), or whose derivatives are not finite, is rejected,
    and counts as no evaluation in the first case.  A row fails when its
    start's log-likelihood or derivatives are not finite or its start lies
    outside the space, when its step predicts no gain or no longer moves
    it, or when it is still running after _MAX_STEPS trials.

    Returns (theta, ll, h, steps, evals, done): each row's final parameter
    row (m, 4), where it stopped or else its last iterate; the
    log-likelihoods (m,) and Hessians (m, 4, 4) there (ll -inf at an
    infeasible start); each row's trial count and likelihood evaluations,
    its start's included; and the mask of rows that stopped rather than
    failed.  The arrays of the rows still running are kept compact, and
    compacted again only when rows leave; the data are never compacted:
    the kernel gathers the running rows of x a chunk at a time.
    """
    m = len(z)
    theta_out, inside = space.natural(z)
    ll_out, g, h_out = kernel(theta_out, x, 2)
    evals = np.ones(m, dtype=int)
    steps = np.full(m, _MAX_STEPS)
    done = np.zeros(m, dtype=bool)
    free, block = space.free, space.free_block
    # the running rows: row of x, free internal and natural coordinates,
    # the iterate's evaluation, and the radius
    idx, z, theta, ll, h = np.arange(m), z.copy(), theta_out.copy(), ll_out.copy(), h_out.copy()
    radius = np.full(m, _RADIUS)
    live = inside & _finite_rows(g) & _finite_rows(h)
    if False in live.tolist():
        steps[~live] = 0
        idx, z, theta, ll, g, h, radius = (a[live] for a in (idx, z, theta, ll, g, h, radius))
    for step in range(_MAX_STEPS):
        if not idx.size:
            break
        jac = theta * _JAC_SCALE + _JAC_SHIFT
        g_z = jac * g
        h_z = jac[:, :, None] * h * jac[:, None, :] + g_z[:, None, :] * _DIAG_SG_DL
        s, stop, pred, boundary = _trust_steps(-h_z[:, block[0], block[1]], g_z[:, free], radius)
        z_try = z + s
        leave = stop | ~((pred > 0.0) & np.logical_or.reduce(z_try != z, axis=1))
        if True in leave.tolist():
            done[idx[stop]] = True
            gone = idx[leave]
            theta_out[gone], ll_out[gone], h_out[gone], steps[gone] = theta[leave], ll[leave], h[leave], step
            go = ~leave
            idx, z, theta, ll, g, h, radius = (a[go] for a in (idx, z, theta, ll, g, h, radius))
            s, z_try, pred, boundary = s[go], z_try[go], pred[go], boundary[go]
            if not idx.size:
                break
        theta_try, inside = space.natural(z_try)
        ll_try, g_try, h_try = kernel(theta_try, x, 2, idx)
        evals[idx] += inside
        ok = inside & np.isfinite(ll_try) & _finite_rows(g_try) & _finite_rows(h_try)
        gain = np.where(ok, ll_try - ll, -np.inf)
        accept = gain > _ETA * pred
        if True in accept.tolist():
            z[accept], theta[accept], ll[accept], g[accept], h[accept] = (
                z_try[accept], theta_try[accept], ll_try[accept], g_try[accept], h_try[accept]
            )
        shrink = ~(gain >= 0.25 * pred)
        grow = boundary & (gain > 0.75 * pred)
        radius = np.where(shrink, 0.25 * np.sqrt(_row_dots(s, s)), np.where(grow, 2.0 * radius, radius))
    theta_out[idx], ll_out[idx], h_out[idx] = theta, ll, h
    return theta_out, ll_out, h_out, steps, evals, done


def _checked_space(x: np.ndarray, fixed: dict[str, float] | None) -> _Space:
    """Checks shared by every sample of a fit, and its coordinate space."""
    if x.shape[-1] < 8:
        raise ValueError(f"need at least 8 observations, got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    fixed = fixed or {}
    unknown = set(fixed) - set(PARAM_ORDER)
    if unknown:
        raise ValueError(f"unknown fixed parameters: {sorted(unknown)}")
    BgevParams(**{"xi": 1.0, "mu": 0.0, "sigma": 1.0, "delta": 0.0, **fixed})  # ParameterError on a bad value
    space = _Space(fixed)
    if not space.free:
        raise ValueError("all parameters fixed, nothing to optimize")
    return space


def fit_mle(x, start: BgevParams, fixed: dict[str, float] | None = None) -> FitResult:
    """Maximize the BGEV log-likelihood from the given start.

    fixed pins parameters by name (any of PARAM_ORDER, not all four) to
    admissible values, which replace the start's; the rest are optimized
    by one trust-region Newton run on the analytic score and Hessian,
    whose first steps are at most _RADIUS long in the free internal
    coordinates.  The start must be feasible (finite log-likelihood) and
    the sample must hold at least 8 observations.  Non-convergence is
    reported through the converged flag, never raised, with the run's last
    iterate, whose -2 log-likelihood never exceeds the start's.  This is
    the one-sample case of ``fit_mle_rows``.
    """
    res = fit_mle_rows(np.asarray(x, dtype=float).ravel()[None], [start], fixed)[0]
    if isinstance(res, Exception):
        raise res
    return res


def _holds(start: BgevParams, fixed: dict[str, float]) -> bool:
    """Whether start holds every pinned value already, the sign of a zero
    included, so that ``replace`` would build an equal BgevParams."""
    return all(
        getattr(start, k) == v and math.copysign(1.0, getattr(start, k)) == math.copysign(1.0, v)
        for k, v in fixed.items()
    )


def fit_mle_rows(
    x, starts: list[BgevParams], fixed: dict[str, float] | None = None
) -> list[FitResult | InfeasibleStartError]:
    """The fit of ``fit_mle`` for every row of x (m, n), each from its own
    start, with one trust-region Newton run for all rows in lockstep.

    Entry r is the fit of row r from starts[r], or the InfeasibleStartError
    its start raises; it is bitwise the fit of row r alone.  The run's own
    evaluation of the starts is the feasibility test: a start whose
    log-likelihood is not finite is that error.  A fit that did not
    converge reports its last iterate with the log-likelihood and Hessian
    the run evaluated there.  Errors shared by all rows (too few
    observations, non-finite data, bad fixed names or values) raise.
    x may be a read-only view, such as one sample broadcast to m rows.
    """
    x = np.asarray(x, dtype=float)
    space = _checked_space(x, fixed)
    starts = [start if _holds(start, space.fixed) else replace(start, **space.fixed) for start in starts]
    z0 = np.array([_to_internal(s) for s in starts]).reshape(-1, 4)[:, space.free]
    theta, ll, h, steps, evals, done = _newton(x, z0, space)
    finite = _finite_rows(h).tolist()
    fixed = tuple(name for name in PARAM_ORDER if name in space.fixed)
    return [
        InfeasibleStartError("starting parameters give zero likelihood (data outside their support)")
        if ll[r] == -np.inf
        else FitResult(
            theta_hat=space.params(theta[r]),
            neg2loglik=-2.0 * float(ll[r]),
            iterations=int(steps[r]),
            fim=-h[r] if finite[r] else None,  # the kernel's Hessian is exactly symmetric
            fixed=fixed,
            start=starts[r],
            n_eval=int(evals[r]),
            stop="newton" if done[r] else "step_cap" if steps[r] == _MAX_STEPS else "no_ascent",
        )
        for r in range(len(starts))
    ]


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-D array, from one partition and numpy's own mean
    of the middle pair; ``np.median`` imports numpy.ma for its nan check."""
    h = x.size // 2
    mid = [h - 1, h] if x.size % 2 == 0 else [h]
    part = np.partition(x, [*mid, -1])
    return math.nan if math.isnan(part[-1]) else float(part[mid[0] : h + 1].mean())


def default_start(x) -> BgevParams:
    """Data-driven starting point: shape sign from the sample skewness,
    location matched to the sample median, unit transform scale, delta 0.
    The shape is the first of 0.1, 0.05, ... (0.1 halved up to nine times)
    and 1e-4 at which the whole sample is feasible; InfeasibleStartError is
    raised when there is none (a sample far off the unit scale, say)."""
    x = np.asarray(x, dtype=float)
    med = _median(x.ravel())
    # the sign of the third central moment, of the sample scaled into [-1, 1]
    # so that its powers cannot overflow
    z = x / max(float(np.max(np.abs(x))), np.finfo(float).tiny)
    sign = 1.0 if float(np.mean((z - np.mean(z)) ** 3)) >= 0 else -1.0
    for xi0 in (*(sign * 0.1 * 0.5**k for k in range(10)), sign * 1e-4):
        cand = BgevParams(xi=xi0, mu=med - ((math.log(2.0)) ** (-xi0) - 1.0) / xi0, sigma=1.0, delta=0.0)
        if np.isfinite(log_likelihood(cand, x)):
            return cand
    raise InfeasibleStartError("could not construct a feasible default start")
