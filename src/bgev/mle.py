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

There is one fit path, and its Newton runs many samples of one size in
lockstep: ``fit_mle_rows`` fits all the replicates of a Monte Carlo cell at
once, and ``fit_mle`` is its one-sample case.  Every damping, line-search
and stop decision is made per row, so each row takes exactly the path it
takes alone; a row Newton cannot finish goes on to Nelder-Mead alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distribution import sample
from .likelihood import PARAM_ORDER, kernel, log_likelihood, row_dots
from .neldermead import nelder_mead
from .params import BgevParams, ParameterError

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

    fim is the full observed information matrix -hessian(theta_hat) in
    natural coordinates, ordered (mu, sigma, delta, xi).  std_errors, in the
    same order, are 0 for a parameter pinned by ``fixed`` and otherwise the
    square roots of the diagonal of the inverse of fim's block on the free
    parameters.  They are present only when that block is positive
    definite: its lowest eigenvalue (``eigvalsh``) is above 0, the test the
    Newton damping uses.  stop says how the search
    ended: "newton" for a Newton finish, otherwise the Nelder-Mead
    fallback's "ftol", "xtol" or "max_iter"; iterations counts the steps of
    that method and n_eval every likelihood evaluation the fit made.
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


def _math_rows(f, v: np.ndarray) -> list[float]:
    """math.exp or math.expm1 of each entry, inf where it overflows; numpy's
    versions can differ in the last bit."""
    out = []
    for t in v.tolist():
        try:
            out.append(f(t))
        except OverflowError:
            out.append(math.inf)
    return out


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
        space; pinned values bypass the log round trip exactly."""
        theta = np.empty((len(z), 4))
        theta[:] = self.pinned
        for j, col in enumerate(self.free):
            theta[:, col] = z[:, j] if col in (0, 3) else _math_rows(math.exp if col == 1 else math.expm1, z[:, j])
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


def _finite_rows(a: np.ndarray) -> np.ndarray:
    return np.logical_and.reduce(np.isfinite(a.reshape(len(a), math.prod(a.shape[1:]))), axis=1)


def _probe(space: _Space, z: np.ndarray, x: np.ndarray):
    """Log-likelihood of each row of x at its free internal coordinates z,
    -inf where z leaves the parameter space; the mask of rows that were
    evaluated; and the natural parameter rows."""
    theta, ok = space.natural(z)
    if False not in ok.tolist():
        return kernel(theta, x, 0), ok, theta
    ll = np.full(len(z), -np.inf)
    if True in ok.tolist():
        ll[ok] = kernel(theta[ok], x[ok], 0)
    return ll, ok, theta


def _newton(x: np.ndarray, z: np.ndarray, space: _Space):
    """Damped Newton ascent of every row of x (m, n) from its free internal
    start z (m, k), all rows in lockstep.

    Each row takes exactly the path it takes alone: its damping, its
    Armijo backtracking and its stop are decided on its own numbers.  A row
    stops at the first iterate whose undamped Newton decrement g.s is below
    2*_FTOL and is frozen there.  It fails when its parameters leave the
    space, a derivative is non-finite, no damping makes its system positive
    definite, its line search fails or the step cap is reached.  Returns
    (theta, ll, h, steps, evals, done): the final parameter rows (m, 4),
    log-likelihoods (m,) and Hessians (m, 4, 4) of the rows that stopped,
    each row's step count and likelihood evaluations, and the mask of rows
    that stopped rather than failed.

    The arrays of the rows still running are kept compact, and compacted
    again only when rows stop or fail, so a step in which no row leaves
    does no gathering or scattering.
    """
    m = len(x)
    theta_out = np.full((m, 4), np.nan)
    ll_out = np.full(m, -np.inf)
    h_out = np.full((m, 4, 4), np.nan)
    steps = np.zeros(m, dtype=int)
    evals = np.zeros(m, dtype=int)
    done = np.zeros(m, dtype=bool)
    free, block = space.free, space.free_block
    # the running rows: original row, evaluations, free internal and
    # natural coordinates, and data; an accepted line-search probe hands
    # its natural coordinates on to the next iterate
    idx, ev = np.arange(m), np.zeros(m, dtype=int)
    theta, ok = space.natural(z)
    z = z.copy()
    if False in ok.tolist():
        idx, z, x, theta = idx[ok], z[ok], x[ok], theta[ok]
    for step in range(_NEWTON_MAX_STEPS):
        if not idx.size:
            break
        ev += 1
        ll, g, h = kernel(theta, x, 2)
        ok = _finite_rows(g) & _finite_rows(h)
        if False in ok.tolist():
            evals[idx[~ok]] = ev[~ok]
            idx, ev, z, x, theta, ll, g, h = idx[ok], ev[ok], z[ok], x[ok], theta[ok], ll[ok], g[ok], h[ok]
            if not idx.size:
                break
        jac = theta * _JAC_SCALE + _JAC_SHIFT
        g_z = jac * g
        h_z = jac[:, :, None] * h * jac[:, None, :] + g_z[:, None, :] * _DIAG_SG_DL
        g_z = g_z[:, free]
        s, lam, failed = _ascent_steps(-h_z[:, block[0], block[1]], g_z)
        slope = row_dots(g_z, s)
        stop = (lam == 0.0) & (slope < 2.0 * _FTOL)
        if failed.size or True in stop.tolist():
            ids = idx[stop]
            theta_out[ids], ll_out[ids], h_out[ids] = theta[stop], ll[stop], h[stop]
            steps[ids] = step
            done[ids] = True
            go = ~stop
            go[failed] = False
            evals[idx[~go]] = ev[~go]
            idx, ev, z, x, theta, ll, s, slope = idx[go], ev[go], z[go], x[go], theta[go], ll[go], s[go], slope[go]
            if not idx.size:
                break
        # backtracking line search; the rows still searching share alpha
        at = np.arange(len(idx))  # their positions among the running rows
        zs, ss, xs, lls, slopes = z, s, x, ll, slope
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            z_try = zs + alpha * ss
            ll_try, evaluated, theta_try = _probe(space, z_try, xs)
            ev[at] += evaluated
            accept = ll_try >= lls + _ARMIJO * alpha * slopes
            z[at[accept]], theta[at[accept]] = z_try[accept], theta_try[accept]
            if False not in accept.tolist():
                at = at[:0]
                break
            if True in accept.tolist():
                wait = ~accept
                at, zs, ss, xs, lls, slopes = at[wait], zs[wait], ss[wait], xs[wait], lls[wait], slopes[wait]
            alpha *= 0.5
        if at.size:  # these rows found no acceptable step
            go = np.ones(len(idx), dtype=bool)
            go[at] = False
            evals[idx[at]] = ev[at]
            idx, ev, z, x, theta = idx[go], ev[go], z[go], x[go], theta[go]
    evals[idx] = ev
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

    fixed pins parameters by name (any of PARAM_ORDER, not all four) to the
    given values, which replace the start's; the rest are optimized.
    Damped Newton on the analytic score and Hessian runs first; when it
    cannot finish, Nelder-Mead runs from the same start.  The start must be
    feasible (finite log-likelihood) and the sample must hold at least 8
    observations.  Non-convergence within the iteration cap is reported
    through the converged flag, never raised; the best point seen is still
    returned and its -2 log-likelihood never exceeds the start's.  This is
    the one-sample case of ``fit_mle_rows``.
    """
    res = fit_mle_rows(np.asarray(x, dtype=float).ravel()[None], [start], fixed)[0]
    if isinstance(res, Exception):
        raise res
    return res


def _nelder_mead(x: np.ndarray, z0: np.ndarray, space: _Space, start: BgevParams, n_eval: int):
    """The fallback fit of one sample x (1, n) from its free internal start
    z0 (k,): (theta_hat, ll, h, converged, iterations, n_eval, stop), with
    n_eval counting on from the evaluations already made."""

    def objective(z_free: np.ndarray) -> float:
        nonlocal n_eval
        ll, evaluated, _ = _probe(space, z_free[None], x)
        n_eval += int(evaluated[0])
        return -ll[0]

    res = nelder_mead(objective, z0, ftol=_FTOL, xtol=_XTOL, max_iter=_MAX_ITER)
    theta, ok = space.natural(res.x[None])
    # an optimizer that never left the infeasible region reports the start itself
    theta_hat = space.params(theta[0]) if ok[0] and np.isfinite(res.fun) else start
    ll, _, h = kernel(theta_hat, x[0], 2)
    return theta_hat, ll, h, res.converged, res.iterations, n_eval + 1, res.stop


def fit_mle_rows(
    x, starts: list[BgevParams], fixed: dict[str, float] | None = None
) -> list[FitResult | InfeasibleStartError | ParameterError]:
    """The fit of ``fit_mle`` for every row of x (m, n), each from its own
    start, with one Newton run for all rows in lockstep.

    Entry r is the fit of row r from starts[r], or the InfeasibleStartError
    or ParameterError its start raises; it is bitwise the fit of row r
    alone.  A row the lockstep Newton cannot finish goes on to Nelder-Mead
    from its start, its evaluation count carried over.  Errors shared by
    all rows (too few observations, non-finite data, bad fixed names)
    raise.
    """
    x = np.asarray(x, dtype=float)
    space = _checked_space(x, fixed)
    out: list = [None] * len(x)
    starts = list(starts)
    rows, feasible = [], []
    for r, start in enumerate(starts):
        try:
            starts[r] = replace(start, **space.fixed)
        except ParameterError as exc:
            out[r] = exc
        else:
            rows.append(r)
    if rows:
        theta = np.array([[s.mu, s.sigma, s.delta, s.xi] for s in (starts[r] for r in rows)])
        ok = np.isfinite(kernel(theta, _subset(x, rows), 0))
        for r, good in zip(rows, ok.tolist()):
            if good:
                feasible.append(r)
            else:
                out[r] = InfeasibleStartError(_INFEASIBLE)
    if feasible:
        z0 = np.array([_to_internal(starts[r]) for r in feasible])[:, space.free]
        theta, ll, h, steps, evals, done = _newton(_subset(x, feasible), z0, space)
        fits = []  # (theta_hat, ll, h, converged, iterations, n_eval, stop) per feasible row
        for j, r in enumerate(feasible):
            if done[j]:
                fits.append((space.params(theta[j]), ll[j], h[j], True, steps[j], 1 + int(evals[j]), "newton"))
            else:
                fits.append(_nelder_mead(x[r : r + 1], z0[j], space, starts[r], 1 + int(evals[j])))
        info = _information(np.array([f[2] for f in fits]), space)
        for r, (theta_hat, ll_hat, _, converged, iterations, n_eval, stop), (fim, std) in zip(feasible, fits, info):
            out[r] = FitResult(
                theta_hat=theta_hat,
                neg2loglik=-2.0 * float(ll_hat),
                converged=converged,
                iterations=int(iterations),
                fim=fim,
                std_errors=std,
                start=starts[r],
                n_eval=int(n_eval),
                stop=stop,
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
