import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bgev import (
    BgevParams,
    InfeasibleStartError,
    ParameterError,
    SimConfig,
    default_start,
    fisher_information,
    fit_mle,
    log_likelihood,
    run_cell,
    sample,
)
from bgev import mle, pipeline, sim
from bgev.neldermead import nelder_mead
from bgev.sim import SimCellError


# ----------------------------------------------------------------------- optimizer


def test_nelder_mead_quadratic():
    res = nelder_mead(lambda z: float(np.sum((z - np.array([1.0, -2.0])) ** 2)), [0.0, 0.0])
    assert res.converged
    assert np.allclose(res.x, [1.0, -2.0], atol=1e-4)


def test_nelder_mead_rosenbrock():
    rosen = lambda z: float(100.0 * (z[1] - z[0] ** 2) ** 2 + (1 - z[0]) ** 2)
    res = nelder_mead(rosen, [-1.2, 1.0], max_iter=5000)
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-3)


def test_nelder_mead_handles_infeasible_regions():
    def fn(z):
        if z[0] < 0:
            return np.inf
        return float((z[0] - 2.0) ** 2 + z[1] ** 2)

    res = nelder_mead(fn, [0.5, 1.0])
    assert res.converged and abs(res.x[0] - 2.0) < 1e-3


def test_nelder_mead_iteration_cap():
    rosen = lambda z: float(100.0 * (z[1] - z[0] ** 2) ** 2 + (1 - z[0]) ** 2)
    res = nelder_mead(rosen, [-1.2, 1.0], max_iter=5)
    assert not res.converged and res.iterations == 5 and res.stop == "max_iter"


def test_nelder_mead_reports_which_test_fired():
    bowl = lambda z: float(np.sum(z**2))
    assert nelder_mead(bowl, [3.0, -4.0], ftol=1e-8, xtol=0.0).stop == "ftol"
    assert nelder_mead(bowl, [3.0, -4.0], ftol=0.0, xtol=1e-4).stop == "xtol"


def test_nelder_mead_monotone_best_value():
    calls = []

    def fn(z):
        v = float(np.sum(z**2))
        calls.append(v)
        return v

    res = nelder_mead(fn, [3.0, -4.0])
    running_best = np.minimum.accumulate(calls)
    assert res.fun == pytest.approx(running_best[-1])
    assert np.all(np.diff(running_best) <= 0)


# ----------------------------------------------------------------------- fitting


def test_fit_refit_is_fixed_point():
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    x = sample(500, truth, seed=21)
    first = fit_mle(x, truth)
    second = fit_mle(x, first.theta_hat)
    assert second.converged
    assert second.neg2loglik == pytest.approx(first.neg2loglik, abs=1e-6)


def test_fit_never_worse_than_start(rng):
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    x = sample(300, truth, seed=4)
    start = BgevParams(xi=0.7, mu=0.2, sigma=1.0, delta=2.4)
    res = fit_mle(x, start)
    assert res.neg2loglik <= -2.0 * log_likelihood(start, x) + 1e-9


def test_fit_recovers_table_one_cell():
    # single replicate at n = 1000; the estimate lands within a few
    # standard errors of the truth
    truth = BgevParams(xi=1.0, mu=-1.0, sigma=1.0, delta=0.0)
    rng = np.random.default_rng(77)
    x = sample(1000, truth, rng)
    shift = rng.random(3)
    start, lam = truth, 1.0
    for _ in range(40):  # shrink the perturbation until the start is feasible
        cand = BgevParams(
            xi=truth.xi + lam * shift[0],
            mu=truth.mu + lam * shift[1],
            sigma=1.0,
            delta=truth.delta + lam * shift[2],
        )
        if np.isfinite(log_likelihood(cand, x)):
            start = cand
            break
        lam *= 0.5
    res = fit_mle(x, start, {"sigma": 1.0})
    assert res.converged
    assert abs(res.theta_hat.xi - 1.0) < 0.15
    assert abs(res.theta_hat.mu + 1.0) < 0.15
    assert abs(res.theta_hat.delta - 0.0) < 0.15


def test_fit_mse_scale_table_two_cell():
    # quick 30-replicate version of the n=250 study cell; the full M=100
    # run lives in the acceptance suite
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    ests = []
    for r in range(30):
        rng = np.random.default_rng([555, r])
        x = sample(250, truth, rng)
        start = BgevParams(
            xi=truth.xi + rng.random(),
            mu=truth.mu + rng.random(),
            sigma=1.0,
            delta=truth.delta + rng.random(),
        )
        try:
            res = fit_mle(x, start, {"sigma": 1.0})
        except InfeasibleStartError:
            res = fit_mle(x, truth, {"sigma": 1.0})
        if res.converged:
            ests.append([res.theta_hat.xi, res.theta_hat.mu, res.theta_hat.delta])
    ests = np.asarray(ests)
    assert len(ests) >= 27
    mse = ((ests - [0.5, 0.0, 2.0]) ** 2).mean(axis=0)
    # 3x the reported study scale (0.0053, 0.0026, 0.0315), wide for m=30
    assert mse[0] < 3 * 0.0053 * 2
    assert mse[1] < 3 * 0.0026 * 2
    assert mse[2] < 3 * 0.0315 * 2


# mc_study truths (xi, mu, delta), refit with sigma pinned at 1
STUDY_TRUTHS = ((1.0, -1.0, 0.0), (0.5, 0.0, 2.0), (-0.25, 0.0, 2.0), (0.25, 1.0, -0.5))
SIGMA_FIXED = {"sigma": 1.0}


def study_replicate(truth: BgevParams, n: int, seed: int, r: int):
    """Sample and "truth plus uniform(0,1)" start of replicate r, as run_cell
    builds them for these truths: the shift is halved until the start is
    feasible."""
    rng = np.random.default_rng([seed, r])
    x = sample(n, truth, rng)
    shift = rng.random(3)
    lam = 1.0
    for _ in range(40):
        start = BgevParams(
            xi=truth.xi + lam * shift[0],
            mu=truth.mu + lam * shift[1],
            sigma=truth.sigma,
            delta=truth.delta + lam * shift[2],
        )
        if np.isfinite(log_likelihood(start, x)):
            return x, start
        lam *= 0.5
    return x, truth


def nelder_mead_neg2loglik(x, start: BgevParams) -> tuple[float, bool]:
    """-2 log L reached by plain Nelder-Mead in (mu, log1p delta, xi) with
    sigma pinned at 1 and |xi| >= mle._XI_FLOOR, from the same start and
    with the default tolerances, and whether it converged."""

    def objective(z):
        if abs(z[2]) < mle._XI_FLOOR:  # fit_mle's space: the kernel cancels badly there
            return np.inf
        try:
            theta = BgevParams(mu=z[0], sigma=1.0, delta=float(np.expm1(z[1])), xi=z[2])
        except ValueError:
            return np.inf
        return -log_likelihood(theta, x)

    res = nelder_mead(objective, [start.mu, np.log1p(start.delta), start.xi])
    return 2.0 * res.fun, res.converged


@pytest.mark.parametrize("n", [50, 250, 1000])
@pytest.mark.parametrize("truth_vec", STUDY_TRUTHS)
def test_fit_never_worse_than_nelder_mead(truth_vec, n):
    xi, mu, delta = truth_vec
    truth = BgevParams(xi=xi, mu=mu, sigma=1.0, delta=delta)
    for r in range(3):
        x, start = study_replicate(truth, n, seed=4100 + n, r=r)
        res = fit_mle(x, start, SIGMA_FIXED)
        assert res.neg2loglik <= nelder_mead_neg2loglik(x, start)[0] + 1e-6


# admissible truths: both signs of xi, -1 < delta < 0 as well as delta > 0,
# and xi >= -0.5, where the maximum likelihood estimator is regular.  Nearer
# -1 a sample's likelihood can be unbounded beyond xi = -1, at its upper
# support edge: at truth (-1, -0.75, -0.51), n = 50, seed 365, Nelder-Mead
# "converges" by xtol at xi = -1.05 with a score of 1e14, 1.03 above the
# maximum Newton finds at xi = -0.90
admissible_truths = st.builds(
    BgevParams,
    xi=st.one_of(st.floats(-0.5, -0.05), st.floats(0.05, 1.0)),
    mu=st.floats(-1.0, 1.0),
    sigma=st.just(1.0),
    delta=st.one_of(st.floats(-0.9, -0.05), st.floats(0.0, 4.0)),
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(admissible_truths, st.sampled_from([50, 250]), st.integers(0, 2**16))
def test_newton_optimum_within_tolerance_of_nelder_mead(truth, n, seed):
    # where a fit converges, by the first Newton run or by the bounded
    # retry, and Nelder-Mead converges, the Newton stop g.s < 2*ftol leaves
    # fit_mle no lower in log-likelihood than Nelder-Mead from the same
    # start, or within 1e-7 of it
    x, start = study_replicate(truth, n, seed=seed, r=0)
    res = fit_mle(x, start, SIGMA_FIXED)
    nm, nm_converged = nelder_mead_neg2loglik(x, start)
    assert res.stop in ("newton", "bounded") if res.converged else res.stop in ("step_cap", "no_ascent")
    if res.converged and nm_converged:
        assert -0.5 * res.neg2loglik >= -0.5 * nm - 1e-7


def test_newton_finish_diagnostics():
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    x = sample(250, truth, seed=8)
    res = fit_mle(x, truth, SIGMA_FIXED)
    assert res.converged and res.stop == "newton"
    assert 0 < res.iterations < 50
    # the feasibility check, the start's evaluation with derivatives and at
    # least one line-search probe per step; a step that takes the full
    # Newton step carries that probe's evaluation into the next iterate
    assert res.n_eval >= 2 + res.iterations


def test_fallback_when_likelihood_runs_off():
    # this replicate of the mc_study cell (0.25, 1, -0.5), n = 50 has no
    # interior maximum with sigma pinned: the likelihood keeps rising toward
    # xi ~ 6.9, so Newton fails and the bounded retry is still climbing at
    # its step cap
    truth = BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=-0.5)
    x, start = study_replicate(truth, 50, seed=34009, r=2)
    res = fit_mle(x, start, SIGMA_FIXED)
    assert not res.converged and res.stop == "step_cap"
    assert res.iterations == mle._RETRY_STEPS
    assert res.n_eval > mle._NEWTON_MAX_STEPS + mle._RETRY_STEPS
    assert res.neg2loglik <= -2.0 * log_likelihood(start, x)
    # every count and the last iterate, pinned; its last step took the full
    # Newton step, whose evaluation the fit reports rather than repeats
    assert (res.iterations, res.n_eval, res.neg2loglik) == (200, 269, 249.09736608008473)


def test_every_row_falls_back():
    # no row of the lockstep Newton finishes: all are retried together, each
    # with its own evaluation count, and a one-replicate sim cell of such a
    # row fails its budget rather than the run
    truth = BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=-0.5)
    x, start = study_replicate(truth, 50, seed=34009, r=2)
    for res in mle.fit_mle_rows(np.array([x, x]), [start, start], SIGMA_FIXED):
        assert (res.stop, res.iterations, res.n_eval, res.neg2loglik) == ("step_cap", 200, 269, 249.09736608008473)
    with pytest.raises(SimCellError, match="1/1 replicates failed"):
        run_cell(SimConfig(truth=truth, n=50, m=1, seed=10))


def test_bounded_retry_finds_the_maximum_nelder_mead_finds():
    # Newton from this replicate's start runs off toward xi < -1; the
    # bounded retry stays near the start and stops on Newton's test at the
    # local maximum Nelder-Mead reaches, no lower in log-likelihood
    truth = BgevParams(xi=-0.25, mu=0.0, sigma=1.0, delta=2.0)
    x, start = study_replicate(truth, 50, seed=62006, r=4)
    res = fit_mle(x, start, SIGMA_FIXED)
    assert res.converged and res.stop == "bounded"
    assert res.neg2loglik <= nelder_mead_neg2loglik(x, start)[0] + 1e-6
    # the certificate holds at the reported point: Newton stops there at once
    again = fit_mle(x, res.theta_hat, SIGMA_FIXED)
    assert (again.stop, again.iterations) == ("newton", 0)


@pytest.mark.parametrize(
    "truth_vec, seed, r",
    [((0.25, 1.0, -0.5), 186009, 6), ((-1.0, 1.0, -0.9), 1, 0)],
    ids=["ridge", "unbounded"],
)
def test_no_convergence_without_newtons_stop(truth_vec, seed, r):
    # Nelder-Mead calls both of these converged: the first by ftol on a
    # ridge at xi ~ 7 with max|score| ~ 6e3, the second by xtol beyond
    # xi = -1, where the likelihood is unbounded.  Neither end is
    # stationary, and neither fit reaches Newton's stop
    xi, mu, delta = truth_vec
    x, start = study_replicate(BgevParams(xi=xi, mu=mu, sigma=1.0, delta=delta), 50, seed=seed, r=r)
    res = fit_mle(x, start, SIGMA_FIXED)
    assert res.converged is False and res.stop in ("step_cap", "no_ascent")
    assert res.neg2loglik <= -2.0 * log_likelihood(start, x)


def count_kernel_rows(monkeypatch) -> list[int]:
    """Route mle's kernel through a counter of the samples it evaluates."""
    rows = []
    real = mle.kernel

    def counted(theta, x, order=2, at=None):
        rows.append(1 if isinstance(theta, BgevParams) else len(theta))
        return real(theta, x, order, at)

    monkeypatch.setattr(mle, "kernel", counted)
    return rows


def test_n_eval_counts_every_likelihood_evaluation(monkeypatch):
    # a line-search probe of replicate r = 3 leaves the parameter space;
    # such a probe is rejected without an evaluation and costs nothing
    truth = BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=-0.5)
    reps = [study_replicate(truth, 50, seed=28, r=r) for r in range(6)]
    rows = count_kernel_rows(monkeypatch)
    res = fit_mle(*reps[3], SIGMA_FIXED)
    assert res.stop == "newton" and res.n_eval == sum(rows)
    rows.clear()
    fits = mle.fit_mle_rows(np.array([x for x, _ in reps]), [s for _, s in reps], SIGMA_FIXED)
    assert all(f.stop == "newton" for f in fits)
    assert sum(f.n_eval for f in fits) == sum(rows)
    assert fits[3].n_eval == res.n_eval


def test_fixed_parameters_respected():
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    x = sample(200, truth, seed=31)
    res = fit_mle(x, truth, {"sigma": 1.0, "delta": 2.0})
    assert res.theta_hat.sigma == 1.0
    assert res.theta_hat.delta == 2.0


@pytest.mark.parametrize(
    "fixed, error",
    [
        ({"scale": 1.0}, ValueError),
        ({"sigma": 0.0}, ParameterError),
        ({"delta": -1.0}, ParameterError),
        ({"mu": 0.0, "sigma": 1.0, "delta": 2.0, "xi": 0.5}, ValueError),
    ],
)
def test_fixed_parameters_rejected(fixed, error):
    # every row shares fixed, so a bad name or value raises for the whole call
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    x = sample(50, truth, seed=31)
    with pytest.raises(error):
        fit_mle(x, truth, fixed)
    with pytest.raises(error):
        mle.fit_mle_rows(np.array([x, x]), [truth, truth], fixed)


def test_infeasible_start_raises():
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    x = sample(100, truth, seed=2)
    bad = BgevParams(xi=5.0, mu=2.0, sigma=1.0, delta=2.0)
    assert log_likelihood(bad, x) == -np.inf
    with pytest.raises(InfeasibleStartError):
        fit_mle(x, bad)


def test_sample_size_floor():
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=0.0)
    with pytest.raises(ValueError):
        fit_mle(sample(7, truth, seed=1), truth)


def cholesky_ladder(neg_h: np.ndarray, g: np.ndarray):
    """The damping of ``mle._ascent_steps`` decided by Cholesky, as it was:
    each rung's stack is factored, and a stack that fails is split in
    halves until each failure stands alone.  Returns (s, lam, failed)."""

    def positive_definite(a):
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            if len(a) == 1:
                return np.zeros(1, dtype=bool)
            half = len(a) // 2
            return np.concatenate([positive_definite(a[:half]), positive_definite(a[half:])])
        return np.ones(len(a), dtype=bool)

    r, k = g.shape
    lam = np.zeros(r)
    s = np.full((r, k), np.nan)
    todo = np.arange(r)
    a = neg_h
    pd = positive_definite(neg_h)
    floor = 1e-3 * np.maximum(1.0, np.abs(np.diagonal(neg_h, axis1=1, axis2=2)).max(axis=1))
    for attempt in range(mle._MAX_DAMPINGS):
        if attempt:
            lam[todo] = np.maximum(10.0 * lam[todo], floor[todo])
            a = neg_h[todo] + lam[todo, None, None] * np.eye(k)
            pd = positive_definite(a)
        if pd.any():
            s[todo[pd]] = np.linalg.solve(a[pd], g[todo[pd], :, None])[:, :, 0]
            todo = todo[~pd]
            if not todo.size:
                break
    return s, lam, todo


def symmetric_stack(rng, r: int, k: int, kind: str) -> np.ndarray:
    """r random symmetric k x k matrices, Q diag(w) Q.T with its lower
    triangle mirrored, whose eigenvalues w span three decades at a random
    scale: all positive, mixed, all negative, or with |w_min| / |w_max| in
    [1e-9, 1e-6] and a random sign."""
    mag = 10.0 ** rng.uniform(-3.0, 3.0, (r, 1)) * 10.0 ** rng.uniform(0.0, 3.0, (r, k))
    sign = {"definite": 1.0, "negative": -1.0}.get(kind, rng.choice([-1.0, 1.0], (r, k)))
    w = sign * mag
    if kind == "near_singular":
        w[:, 1:] = np.abs(w[:, 1:])
        w[:, 0] = w[:, 1:].max(axis=1) * rng.choice([-1.0, 1.0], r) * 10.0 ** rng.uniform(-9.0, -6.0, r)
    q = np.linalg.qr(rng.normal(size=(r, k, k)))[0]
    a = q @ (w[:, :, None] * q.transpose(0, 2, 1))
    lower = np.tril(a)
    return lower + np.tril(a, -1).transpose(0, 2, 1)


def assert_same_damping(neg_h, g):
    s, lam, failed = mle._ascent_steps(neg_h, g)
    s_ref, lam_ref, failed_ref = cholesky_ladder(neg_h, g)
    assert failed.tolist() == failed_ref.tolist()
    assert lam.tobytes() == lam_ref.tobytes()
    ok = np.ones(len(g), dtype=bool)
    ok[failed] = False
    assert s[ok].tobytes() == s_ref[ok].tobytes()
    return s, lam, failed


@pytest.mark.parametrize("kind", ["definite", "indefinite", "negative", "near_singular"])
def test_ascent_steps_match_cholesky_ladder(kind):
    # the lowest-eigenvalue test walks the ladder to the rung Cholesky
    # reaches, and the steps are bitwise Cholesky's; in a stack, each row
    # gets what it gets alone
    rng = np.random.default_rng(["definite", "indefinite", "negative", "near_singular"].index(kind))
    for k in (2, 3, 4):
        neg_h = symmetric_stack(rng, 64, k, kind)
        g = rng.normal(size=(64, k))
        s, lam, failed = assert_same_damping(neg_h, g)
        for i in range(len(g)):
            s1, lam1, failed1 = mle._ascent_steps(neg_h[i : i + 1], g[i : i + 1])
            assert lam1[0] == lam[i] and failed1.size == (i in failed)
            assert failed1.size or s1.tobytes() == s[i].tobytes()


def test_ascent_steps_fail_where_no_damping_suffices():
    # max|diag| = 1 puts the last rung at 1e15, short of the eigenvalue -1e16
    neg_h = np.array([[[1.0, 1e16], [1e16, 1.0]], [[2.0, 0.5], [0.5, 1.0]], [[-1.0, 0.0], [0.0, 3.0]]])
    s, lam, failed = assert_same_damping(neg_h, np.ones((3, 2)))
    assert failed.tolist() == [0] and lam[0] == 1e-3 * 10.0**18
    assert lam[1] == 0.0 and lam[2] > 0.0


def test_ascent_steps_fail_on_exactly_singular_matrix():
    # lowest eigenvalue a rounding error above 0, an exactly zero LU pivot:
    # the row fails, the others of its stack keep their steps
    neg_h = np.array([[[1.0, -3.0], [-3.0, 9.0]], [[2.0, 0.5], [0.5, 1.0]]])
    assert np.linalg.eigvalsh(neg_h[0])[0] > 0.0
    s, lam, failed = mle._ascent_steps(neg_h, np.ones((2, 2)))
    assert failed.tolist() == [0] and s[1].tobytes() == np.linalg.solve(neg_h[1], np.ones(2)).tobytes()
    # and such an information matrix gives no standard errors
    fim = np.zeros((2, 4, 4))
    fim[:, :2, :2], fim[:, 2:, 2:] = neg_h, np.eye(2)
    assert np.linalg.eigvalsh(fim[0])[0] > 0.0
    (f0, std0), (f1, std1) = mle._information(-fim, mle._Space({}))
    assert f0 is not None and std0 is None
    assert std1.tobytes() == np.sqrt(np.diag(np.linalg.inv(fim[1]))).tobytes()


def test_ascent_steps_match_cholesky_ladder_on_a_cell(monkeypatch):
    # the Newton systems of one mc_study cell, which damps about a third of them
    stacks = []
    real = mle._ascent_steps

    def spy(neg_h, g):
        stacks.append((neg_h.copy(), g.copy()))
        return real(neg_h, g)

    truth = BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=-0.5)
    reps = [study_replicate(truth, 50, seed=1000, r=r) for r in range(20)]
    monkeypatch.setattr(mle, "_ascent_steps", spy)
    mle.fit_mle_rows(np.array([x for x, _ in reps]), [s for _, s in reps], SIGMA_FIXED)
    monkeypatch.undo()
    damped = 0
    for neg_h, g in stacks:
        damped += int((assert_same_damping(neg_h, g)[1] > 0.0).sum())
    assert damped > 20


def test_median_and_quartiles_equal_numpy():
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=n) for n in (1, 2, 7, 8, 365)]
    arrays += [rng.integers(0, 3, size=n).astype(float) for n in (5, 6, 40)]  # ties
    arrays += [np.array([2.0, -0.0, 0.0, 2.0]), np.array([1e300, -1e300, 3.0])]
    for x in arrays:
        assert np.float64(mle._median(x)).tobytes() == np.median(x).tobytes()
        q25, q75 = pipeline._quartiles(x)
        assert np.array([q75, q25]).tobytes() == np.percentile(x, [75, 25]).tobytes()


def test_std_errors_present_for_clean_fit():
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    x = sample(2000, truth, seed=6)
    res = fit_mle(x, truth)
    assert res.fim is not None and np.array_equal(res.fim, res.fim.T)
    assert res.std_errors is not None and np.all(res.std_errors > 0)
    # a pinned parameter has SE 0, the others come from the free block alone
    x = sample(500, BgevParams(xi=0.25, mu=0.0, sigma=1.0, delta=0.0), seed=3)
    res = fit_mle(x, default_start(x), {"delta": 0.0})
    free = [0, 1, 3]
    assert res.fim.shape == (4, 4) and res.std_errors[2] == 0.0
    assert res.std_errors[free].tobytes() == np.sqrt(np.diag(np.linalg.inv(res.fim[np.ix_(free, free)]))).tobytes()


def test_std_errors_calibrated_on_a_sim_cell():
    # calibration oracle, sigma pinned as in every sim fit: on the mc_study
    # cell (0.25, 1, -0.5) at n = 1000, drawn as run_cell draws it, the mean
    # SE of each free parameter is within 15% of the Monte Carlo SD of its
    # estimates, and the 95% Wald intervals cover the truth as often as a
    # binomial(m, 0.95) count allows at the 99.9% level
    truth = BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=-0.5)
    n, m, seed = 1000, 200, 5
    xs, shifts = np.empty((m, n)), np.empty((m, 3))
    for r in range(m):
        rng = np.random.default_rng([seed, r])
        xs[r] = sample(n, truth, rng)
        shifts[r] = rng.random(3)
    fits = mle.fit_mle_rows(xs, sim._starts([truth] * m, xs, shifts), SIGMA_FIXED)
    assert all(f.stop == "newton" and f.std_errors is not None for f in fits)
    free = [0, 2, 3]
    est = np.array([[f.theta_hat.mu, f.theta_hat.delta, f.theta_hat.xi] for f in fits])
    se = np.array([f.std_errors for f in fits])
    assert np.all(se[:, 1] == 0.0)
    ratio = se[:, free].mean(axis=0) / est.std(axis=0, ddof=1)
    assert np.all(np.abs(ratio - 1.0) <= 0.15), ratio
    covered = (np.abs(est - [truth.mu, truth.delta, truth.xi]) <= stats.norm.ppf(0.975) * se[:, free]).sum(axis=0)
    lo, hi = stats.binom.interval(0.999, m, 0.95)
    assert np.all((lo <= covered) & (covered <= hi)), covered


def test_default_start_feasible(rng):
    for _ in range(10):
        truth = BgevParams(
            xi=float(rng.choice([-1, 1]) * rng.uniform(0.2, 0.8)),
            mu=float(rng.uniform(-1, 1)),
            sigma=1.0,
            delta=float(rng.uniform(0, 2)),
        )
        x = sample(150, truth, rng)
        s = default_start(x)
        assert np.isfinite(log_likelihood(s, x))


# ----------------------------------------------------------------------- Fisher information


def test_fisher_information_psd_at_table_cells():
    for truth in (
        BgevParams(xi=1.0, mu=-1.0, sigma=1.0, delta=0.0),
        BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0),
        BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=4.0),
    ):
        fi = fisher_information(truth, m=40, n=300, seed=17)
        assert fi.replicates_failed == 0
        eig = np.linalg.eigvalsh(fi.matrix)
        assert np.all(eig > -1e-10)


def test_fisher_information_mc_error_shrinks():
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=1.0)
    small = fisher_information(truth, m=40, n=200, seed=3)
    big = fisher_information(truth, m=160, n=200, seed=3)
    # entrywise MC standard error scales like 1/sqrt(m): expect ~2x shrink
    ratio = np.median(small.mc_std_error / np.maximum(big.mc_std_error, 1e-300))
    assert 1.4 < ratio < 2.9


def test_fisher_information_skips_invalid_hessians(monkeypatch):
    # replicates whose Hessian is not finite are left out of the average
    # and counted
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=1.0)
    full = fisher_information(truth, m=40, n=100, seed=3)
    real = mle.kernel

    def every_fourth_invalid(theta, x, order=2):
        ll, g, h = real(theta, x, order)
        h[::4] = np.nan
        return ll, g, h

    monkeypatch.setattr(mle, "kernel", every_fourth_invalid)
    part = fisher_information(truth, m=40, n=100, seed=3)
    assert (part.replicates_used, part.replicates_failed) == (30, 10)
    assert not np.array_equal(part.matrix, full.matrix) and np.all(np.isfinite(part.matrix))


def test_fisher_information_requires_30_replicates():
    with pytest.raises(ValueError):
        fisher_information(BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=0.0), m=10, n=100, seed=1)


def test_fisher_information_gev_reduction_block():
    # at delta=0, sigma=1 the model is the unit-scale GEV; compare the
    # (mu, xi) block against a finite-difference information estimate built
    # on an independent GEV implementation
    truth = BgevParams(xi=0.4, mu=0.0, sigma=1.0, delta=0.0)
    m, n = 60, 400
    fi = fisher_information(truth, m=m, n=n, seed=29)

    def gev_ll(mu, xi, x):
        return float(np.sum(stats.genextreme.logpdf(x, c=-xi, loc=mu, scale=1.0)))

    h = 1e-4
    mats = []
    for r in range(m):
        rng = np.random.default_rng([29, r])
        x = sample(n, truth, rng)
        f0 = gev_ll(truth.mu, truth.xi, x)
        d_mumu = (gev_ll(truth.mu + h, truth.xi, x) - 2 * f0 + gev_ll(truth.mu - h, truth.xi, x)) / h**2
        d_xixi = (gev_ll(truth.mu, truth.xi + h, x) - 2 * f0 + gev_ll(truth.mu, truth.xi - h, x)) / h**2
        d_muxi = (
            gev_ll(truth.mu + h, truth.xi + h, x)
            - gev_ll(truth.mu + h, truth.xi - h, x)
            - gev_ll(truth.mu - h, truth.xi + h, x)
            + gev_ll(truth.mu - h, truth.xi - h, x)
        ) / (4 * h**2)
        mats.append(-np.array([[d_mumu, d_muxi], [d_muxi, d_xixi]]) / n)
    ref = np.mean(mats, axis=0)

    idx = [0, 3]  # (mu, xi) rows/cols in the 4x4 ordering
    got = fi.matrix[np.ix_(idx, idx)]
    tol = 2.0 * fi.mc_std_error[np.ix_(idx, idx)] + 1e-3
    assert np.all(np.abs(got - ref) <= tol)
