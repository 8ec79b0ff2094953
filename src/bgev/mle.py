"""Maximum-likelihood fitting of BGEV parameters.

The search runs in unconstrained coordinates (mu, log sigma, log(1+delta),
xi) so the scale and bimodality constraints hold by construction; results
are reported in natural coordinates.  It is a damped Newton ascent on the
analytic score and Hessian of ``likelihood.kernel``.  A run that cannot be
completed is retried once from the original start with every step bounded
in length, the plainest trust region (Nocedal & Wright, *Numerical
Optimization*, ch. 4).  A fit is converged only where Newton's own stop
held, in either run.  Individual parameters can be pinned to fixed values,
which is how the scale is held at its true value in simulation studies and
how the plain GEV arises as the delta = 0 submodel.  The stopping
tolerance, the step caps and the retry's step bound are module constants.

There is one fit path, and its Newton runs many samples of one size in
lockstep: ``fit_mle_rows`` fits all the replicates of the Monte Carlo cells
of one sample size and scale at once, and ``fit_mle`` is its one-sample
case.  Every damping, step bound, line-search and stop decision is made
per row, so each row takes exactly the path it takes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distribution import sample
from .likelihood import PARAM_ORDER, kernel, log_likelihood
from .params import BgevParams, InfeasibleStartError

__all__ = [
    "FitResult",
    "FisherInformation",
    "InfeasibleStartError",
    "fit_mle",
    "fit_mle_rows",
    "fisher_information",
    "default_start",
]

_XI_FLOOR = 1e-8  # |xi| below this is treated as infeasible (model needs xi != 0)
_FTOL = 1e-8  # Newton stop on the predicted log-likelihood gain
_NEWTON_MAX_STEPS = 50  # a Newton run still going after this many steps is retried
_RETRY_RADIUS = 0.1  # the retry's longest step in any free internal coordinate
_RETRY_STEPS = 200  # a retry still going after this many steps has not converged
_ARMIJO = 1e-4  # sufficient-increase fraction of the predicted gain
_MAX_HALVINGS = 40  # line-search step halvings before the step counts as failed
_MAX_DAMPINGS = 20  # tenfold damping increases before the system counts as failed


@dataclass(frozen=True)
class FitResult:
    """Outcome of one likelihood maximization.

    fim is the full observed information matrix -hessian(theta_hat) in
    natural coordinates, ordered (mu, sigma, delta, xi).  std_errors, in the
    same order, are 0 for a parameter pinned by ``fixed`` and otherwise the
    square roots of the diagonal of the inverse of fim's block on the free
    parameters.  They are present only when that block is positive
    definite: its lowest eigenvalue (``eigvalsh``) is above 0, the test the
    Newton damping uses.  converged means that Newton's stop held at
    theta_hat.  stop is "newton" for a finish of the first Newton run,
    "bounded" for one of its step-bounded retry, and otherwise says why the
    retry ended: "step_cap", or "no_ascent" (damping, line search or a
    non-finite derivative).  iterations counts the steps of the run that
    ended the search, n_eval every likelihood evaluation the fit made: the
    feasibility check, each line-search probe that stayed in the parameter
    space and each iterate that no probe evaluated, as an accepted full
    Newton step evaluates its iterate.
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


def _per_matrix(f, a: np.ndarray, *b: np.ndarray):
    """``f`` (``np.linalg.solve`` or ``inv``) over a stack (r, k, k), and
    the indices of the matrices LAPACK finds exactly singular, whose rows of
    the result are nan.  One such member makes the stacked call raise, so
    only then is each matrix taken alone; a matrix whose lowest eigenvalue
    is a rounding error above 0 can be one."""
    try:
        return f(a, *b), _NO_ROWS
    except np.linalg.LinAlgError:
        out = np.full(b[0].shape if b else a.shape, np.nan)
        bad = []
        for i in range(len(a)):
            try:
                out[i] = f(a[i], *(v[i] for v in b))
            except np.linalg.LinAlgError:
                bad.append(i)
        return out, np.array(bad, dtype=int)


_NO_ROWS = np.arange(0)


def _ascent_steps(neg_h: np.ndarray, g: np.ndarray):
    """Solve (neg_h + lam*I) s = g for each row at the first lam in 0, c,
    10c, 100c, ... (c = 1e-3 * max(1, max|diag(neg_h)|)) at which the
    damped matrix is positive definite.

    One ``eigvalsh`` over the stack gives each row's lowest eigenvalue l,
    and neg_h + lam*I counts as positive definite when l + lam > 0, so the
    ladder is walked in arithmetic; the rows with a step then share one
    solve, on neg_h + lam*I where lam > 0 and on neg_h itself where it is
    0.  Returns (s, lam, failed): failed indexes the rows at which no
    damping does, or whose damped matrix is exactly singular after all.
    """
    r, k = g.shape
    lam = np.zeros(r)
    low = np.linalg.eigvalsh(neg_h)[:, 0]
    pd = low > 0.0
    if False not in pd.tolist():
        s, failed = _per_matrix(np.linalg.solve, neg_h, g[:, :, None])
        return s[:, :, 0], lam, failed
    short = ~pd
    floor = 1e-3 * np.maximum(1.0, np.abs(np.diagonal(neg_h, axis1=1, axis2=2)).max(axis=1))
    for _ in range(1, _MAX_DAMPINGS):
        lam[short] = np.maximum(10.0 * lam[short], floor[short])
        short &= ~(low + lam > 0.0)
        if True not in short.tolist():
            break
    a = neg_h.copy()
    damped = lam > 0.0
    a[damped] = neg_h[damped] + lam[damped, None, None] * np.eye(k)
    go = np.flatnonzero(~short)
    s = np.full((r, k), np.nan)
    step, bad = _per_matrix(np.linalg.solve, a[go], g[go, :, None])
    s[go] = step[:, :, 0]
    short[go[bad]] = True
    return s, lam, np.flatnonzero(short)


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


def _probe(space: _Space, z: np.ndarray, x: np.ndarray, rows: np.ndarray, order: int):
    """The kernel at order 0, (ll,), or at order 2, (ll, g, H), of each
    sample x[rows] at its free internal coordinates z, with -inf and nan
    where z leaves the parameter space; the mask of rows that were
    evaluated; and the natural parameter rows."""
    theta, ok = space.natural(z)
    if False not in ok.tolist():
        out = kernel(theta, x, order, rows)
        return (out if order else (out,)), ok, theta
    out = (np.full(len(z), -np.inf), np.full((len(z), 4), np.nan), np.full((len(z), 4, 4), np.nan))[: order + 1]
    if True in ok.tolist():
        part = kernel(theta[ok], x, order, rows[ok])
        for whole, some in zip(out, part if order else (part,)):
            whole[ok] = some
    return out, ok, theta


def _newton(x: np.ndarray, rows: np.ndarray, z: np.ndarray, space: _Space, radius=np.inf, max_steps=_NEWTON_MAX_STEPS):
    """Damped Newton ascent of the samples x[rows] of the data x (M, n),
    each from its free internal start, a row of z (m, k), all in lockstep.

    Each row takes exactly the path it takes alone: its damping, its step
    bound, its Armijo backtracking and its stop are decided on its own
    numbers.  A row stops at the first iterate whose undamped Newton
    decrement g.s is below 2*_FTOL and is frozen there.  Past that test, a
    step longer than radius in some coordinate is scaled down to that
    length.  A row fails when its parameters leave the space, a derivative
    is non-finite, no damping makes its system positive definite, its line
    search fails or it is still running after max_steps steps.  Returns
    (theta, ll, h, steps, evals, done): each row's final parameter row
    (m, 4), where it stopped or else its last accepted iterate; the
    log-likelihoods (m,) and Hessians (m, 4, 4) at those rows, with ll nan
    where the run holds no order-2 evaluation of one (a row that left the
    space at once, or whose last accepted step was a halving); each row's
    step count and likelihood evaluations; and the mask of rows that
    stopped rather than failed.

    The line search's full step is evaluated at order 2, and a row that
    takes it carries that (ll, g, H) into its next step, which evaluates
    only the other rows: a kernel row's ll is the same sum at every order,
    so the carried iterate is bitwise the one evaluated again.  The
    halvings are evaluated at order 0.

    The arrays of the rows still running are kept compact, and compacted
    again only when rows stop or fail, so a step in which no row leaves
    does no gathering or scattering.  The data are never compacted: the
    kernel gathers the running rows of x a chunk at a time.
    """
    m = len(z)
    ll_out = np.full(m, np.nan)
    h_out = np.full((m, 4, 4), np.nan)
    steps = np.zeros(m, dtype=int)
    evals = np.zeros(m, dtype=int)
    done = np.zeros(m, dtype=bool)
    free, block = space.free, space.free_block
    # the running rows: original row, evaluations, free internal and
    # natural coordinates, row of x, and whether the iterate still needs
    # its evaluation; an accepted line-search probe hands its natural
    # coordinates on to the next iterate, and a full step its (ll, g, h)
    idx, ev = np.arange(m), np.zeros(m, dtype=int)
    theta, ok = space.natural(z)
    theta_out = theta.copy()  # a row that leaves the space at once reports its start
    z = z.copy()
    if False in ok.tolist():
        idx, z, rows, theta = idx[ok], z[ok], rows[ok], theta[ok]
    fresh = np.ones(len(idx), dtype=bool)
    for step in range(max_steps):
        if not idx.size:
            break
        if False not in fresh.tolist():
            ll, g, h = kernel(theta, x, 2, rows)
        elif True in fresh.tolist():
            ll[fresh], g[fresh], h[fresh] = kernel(theta[fresh], x, 2, rows[fresh])
        ev += fresh
        ok = _finite_rows(g) & _finite_rows(h)
        if False in ok.tolist():
            gone = idx[~ok]
            theta_out[gone], steps[gone], evals[gone] = theta[~ok], step, ev[~ok]
            ll_out[gone], h_out[gone] = ll[~ok], h[~ok]
            idx, ev, z, rows, theta, ll, g, h = idx[ok], ev[ok], z[ok], rows[ok], theta[ok], ll[ok], g[ok], h[ok]
            if not idx.size:
                break
        jac = theta * _JAC_SCALE + _JAC_SHIFT
        g_z = jac * g
        h_z = jac[:, :, None] * h * jac[:, None, :] + g_z[:, None, :] * _DIAG_SG_DL
        g_z = g_z[:, free]
        s, lam, failed = _ascent_steps(-h_z[:, block[0], block[1]], g_z)
        slope = _row_dots(g_z, s)
        stop = (lam == 0.0) & (slope < 2.0 * _FTOL)
        if radius < np.inf:
            norm = np.abs(s).max(axis=1)
            long = norm > radius
            if True in long.tolist():
                s[long] *= (radius / norm[long])[:, None]
                slope[long] = _row_dots(g_z[long], s[long])
        if failed.size or True in stop.tolist():
            done[idx[stop]] = True
            go = ~stop
            go[failed] = False
            gone = idx[~go]
            theta_out[gone], steps[gone], evals[gone] = theta[~go], step, ev[~go]
            ll_out[gone], h_out[gone] = ll[~go], h[~go]
            idx, ev, z, rows, theta, ll, h = idx[go], ev[go], z[go], rows[go], theta[go], ll[go], h[go]
            s, slope = s[go], slope[go]
            if not idx.size:
                break
        # backtracking line search; the rows still searching share alpha
        ll_at, h_at = ll, h  # the iterate's, for a row whose search fails
        at = np.arange(len(idx))  # their positions among the running rows
        zs, ss, rs, lls, slopes = z, s, rows, ll, slope
        alpha = 1.0
        for halving in range(_MAX_HALVINGS):
            z_try = zs + alpha * ss
            (ll_try, *deriv), evaluated, theta_try = _probe(space, z_try, x, rs, 0 if halving else 2)
            ev[at] += evaluated
            accept = ll_try >= lls + _ARMIJO * alpha * slopes
            z[at[accept]], theta[at[accept]] = z_try[accept], theta_try[accept]
            if not halving:  # every running row probed the full step
                ll, (g, h), fresh = ll_try, deriv, ~accept
            if False not in accept.tolist():
                at = at[:0]
                break
            if True in accept.tolist():
                wait = ~accept
                at, zs, ss, rs, lls, slopes = at[wait], zs[wait], ss[wait], rs[wait], lls[wait], slopes[wait]
            alpha *= 0.5
        if at.size:  # these rows found no acceptable step
            go = np.ones(len(idx), dtype=bool)
            go[at] = False
            gone = idx[at]
            theta_out[gone], steps[gone], evals[gone] = theta[at], step, ev[at]
            ll_out[gone], h_out[gone] = ll_at[at], h_at[at]
            idx, ev, z, rows, theta = idx[go], ev[go], z[go], rows[go], theta[go]
            ll, g, h, fresh = ll[go], g[go], h[go], fresh[go]
    theta_out[idx], steps[idx], evals[idx] = theta, max_steps, ev
    if idx.size:  # at the step cap, a row whose last step was the full one holds its evaluation
        held = ~fresh
        ll_out[idx[held]], h_out[idx[held]] = ll[held], h[held]
    return theta_out, ll_out, h_out, steps, evals, done


def _information(h: np.ndarray, space: _Space) -> list[tuple[np.ndarray | None, np.ndarray | None]]:
    """(fim, std_errors) of ``FitResult`` for each Hessian of a stack
    (r, 4, 4): fim = -h where h is finite, and std_errors where fim's block
    on the free parameters of ``space`` is positive definite as well, by
    the lowest-eigenvalue test of ``_ascent_steps``.  They are the square
    roots of the diagonal of that block's inverse, 0 for a pinned
    parameter.  One eigvalsh and one inversion serve the stack."""
    fim = -h  # observed information; the kernel's Hessian is exactly symmetric
    free = fim[:, space.free_block[0], space.free_block[1]]
    finite = _finite_rows(h).tolist()
    rows = [i for i, ok in enumerate(finite) if ok]
    if rows:
        low = np.linalg.eigvalsh(_subset(free, rows))[:, 0].tolist()
        rows = [i for i, v in zip(rows, low) if v > 0.0]
    std = [None] * len(h)
    if rows:
        inv, bad = _per_matrix(np.linalg.inv, _subset(free, rows))
        for i, e in zip(rows, np.sqrt(np.diagonal(inv, axis1=1, axis2=2))):
            std[i] = np.zeros(4)
            std[i][space.free] = e
        for j in bad.tolist():  # exactly singular after all
            std[rows[j]] = None
    return [(f if ok else None, e) for f, e, ok in zip(fim, std, finite)]


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


def _subset(x: np.ndarray, rows: list[int]) -> np.ndarray:
    """The given rows of x, without a copy when they are all of them."""
    return x if len(rows) == len(x) else x[rows]


_INFEASIBLE = "starting parameters give zero likelihood (data outside their support)"


def fit_mle(x, start: BgevParams, fixed: dict[str, float] | None = None) -> FitResult:
    """Maximize the BGEV log-likelihood from the given start.

    fixed pins parameters by name (any of PARAM_ORDER, not all four) to
    admissible values, which replace the start's; the rest are optimized.
    Damped Newton on the analytic score and Hessian runs first; when it
    cannot finish, it runs again from the start with no step longer than
    _RETRY_RADIUS in any free internal coordinate.  The start must be
    feasible (finite log-likelihood) and the sample must hold at least 8
    observations.  Non-convergence is reported through the converged flag,
    never raised, with the retry's last iterate, whose -2 log-likelihood
    never exceeds the start's.  This is the one-sample case of
    ``fit_mle_rows``.
    """
    res = fit_mle_rows(np.asarray(x, dtype=float).ravel()[None], [start], fixed)[0]
    if isinstance(res, Exception):
        raise res
    return res


def fit_mle_rows(
    x, starts: list[BgevParams], fixed: dict[str, float] | None = None
) -> list[FitResult | InfeasibleStartError]:
    """The fit of ``fit_mle`` for every row of x (m, n), each from its own
    start, with one Newton run for all rows in lockstep and one bounded
    retry for all the rows it could not finish.

    Entry r is the fit of row r from starts[r], or the InfeasibleStartError
    its start raises; it is bitwise the fit of row r alone.  A fit that did
    not converge reports the retry's last iterate with its log-likelihood
    and Hessian: those the retry evaluated there, or else those of one more
    order-2 evaluation.  Errors shared by all rows
    (too few observations, non-finite data, bad fixed names or values)
    raise.
    """
    x = np.asarray(x, dtype=float)
    space = _checked_space(x, fixed)
    starts = [replace(start, **space.fixed) for start in starts]
    theta0 = np.array([[s.mu, s.sigma, s.delta, s.xi] for s in starts]).reshape(-1, 4)
    feasible = np.isfinite(kernel(theta0, x, 0))
    out: list = [None if ok else InfeasibleStartError(_INFEASIBLE) for ok in feasible.tolist()]
    rows = np.flatnonzero(feasible)
    if not rows.size:
        return out
    z0 = np.array([_to_internal(starts[r]) for r in rows.tolist()])[:, space.free]
    theta, ll, h, steps, evals, done = _newton(x, rows, z0, space)
    evals += 1  # the feasibility check
    stops = ["newton" if ok else "" for ok in done.tolist()]
    retry = np.flatnonzero(~done)
    if retry.size:
        theta[retry], ll[retry], h[retry], steps[retry], ev, done[retry] = _newton(
            x, rows[retry], z0[retry], space, _RETRY_RADIUS, _RETRY_STEPS
        )
        evals[retry] += ev
        lost = retry[np.isnan(ll[retry])]
        if lost.size:  # last iterates the retry holds no evaluation of
            ll[lost], _, h[lost] = kernel(theta[lost], x, 2, rows[lost])
            evals[lost] += 1
        for i in retry.tolist():
            stops[i] = "bounded" if done[i] else "step_cap" if steps[i] == _RETRY_STEPS else "no_ascent"
    info = _information(h, space)
    for j, r in enumerate(rows.tolist()):
        fim, std = info[j]
        out[r] = FitResult(
            theta_hat=space.params(theta[j]),
            neg2loglik=-2.0 * float(ll[j]),
            converged=bool(done[j]),
            iterations=int(steps[j]),
            fim=fim,
            std_errors=std,
            start=starts[r],
            n_eval=int(evals[j]),
            stop=stops[j],
        )
    return out


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
    The shape is shrunk toward zero until the whole sample is feasible."""
    x = np.asarray(x, dtype=float)
    med = _median(x.ravel())
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
    """Average -hessian(theta, sample_n)/n over m seeded replicates.

    Replicate r is drawn from the stream seeded by (seed, r); all m Hessians
    come from one batched kernel call."""
    if m < 30:
        raise ValueError(f"need m >= 30 replicates, got {m}")
    xs = np.empty((m, n))
    for r in range(m):
        xs[r] = sample(n, theta, np.random.default_rng([int(seed), r]))
    rows = np.tile([theta.mu, theta.sigma, theta.delta, theta.xi], (m, 1))
    h = kernel(rows, xs, 2)[2]
    good = np.isfinite(h).all(axis=(1, 2))
    if not good.any():
        raise ArithmeticError("every replicate produced an invalid Hessian")
    stack = -h[good] / n
    used = len(stack)
    mean = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / math.sqrt(used)
    return FisherInformation(
        matrix=0.5 * (mean + mean.T),
        mc_std_error=se,
        replicates_used=used,
        replicates_failed=m - used,
    )
