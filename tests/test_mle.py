import math
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from bgev import (
    BgevParams,
    InfeasibleStartError,
    ParameterError,
    SimConfig,
    default_start,
    fit_mle,
    log_likelihood,
    quantile,
    run_cell,
    sample,
)
from bgev import mle, pipeline, sim
from bgev.cli import main
from bgev.data import bundled_path
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
    # where a fit converges and Nelder-Mead converges, the Newton stop
    # g.s < 2*ftol leaves fit_mle no lower in log-likelihood than
    # Nelder-Mead from the same start, or within 1e-7 of it
    x, start = study_replicate(truth, n, seed=seed, r=0)
    res = fit_mle(x, start, SIGMA_FIXED)
    nm, nm_converged = nelder_mead_neg2loglik(x, start)
    assert res.stop == "newton" if res.converged else res.stop in ("step_cap", "no_ascent")
    if res.converged and nm_converged:
        assert -0.5 * res.neg2loglik >= -0.5 * nm - 1e-7


@st.composite
def certificate_samples(draw):
    """A sample of 8 to 300 draws at an admissible truth (sigma = 1): xi of
    either sign away from 0, -1 < delta <= 3; as drawn, with one
    observation moved to a far tail, or with every value tied three
    times."""
    truth = BgevParams(
        xi=draw(st.one_of(st.floats(-0.9, -0.05), st.floats(0.05, 1.5))),
        mu=draw(st.floats(-1.0, 1.0)),
        sigma=1.0,
        delta=draw(st.floats(-0.99, 3.0)),
    )
    n = draw(st.integers(8, 300))
    x = sample(n, truth, draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["plain", "far_tail", "tied"]))
    if kind == "far_tail":
        x[draw(st.integers(0, n - 1))] = quantile(draw(st.sampled_from([1e-12, 1.0 - 1e-12])), truth)
    elif kind == "tied":
        x = np.repeat(x[: -(-n // 3)], 3)[:n]
    assume(np.isfinite(x).all())  # near delta = -1 the law's tail can pass the largest float
    return x


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(certificate_samples(), st.sampled_from([None, {"delta": 0.0}, {"sigma": 1.0}]))
def test_convergence_certificate(x, fixed):
    # the fits bgev fit makes (BGEV and its delta = 0 submodel from
    # default_start) and the sigma-pinned fits of sim: a converged fit
    # refitted from its estimate stops at once, at the same estimate, with
    # a positive definite information matrix on the free parameters; an
    # unconverged one ends no lower in log-likelihood than its start
    try:
        start = default_start(x)
        res = fit_mle(x, start, fixed)
    except InfeasibleStartError:
        return
    if not res.converged:
        assert res.neg2loglik <= -2.0 * log_likelihood(replace(start, **(fixed or {})), x)
        return
    again = fit_mle(x, res.theta_hat, fixed)
    assert (again.converged, again.stop, again.iterations) == (True, "newton", 0)
    assert np.allclose(astuple(again.theta_hat), astuple(res.theta_hat), rtol=1e-14, atol=0.0)
    free = [i for i, name in enumerate(mle.PARAM_ORDER) if name not in (fixed or {})]
    assert np.linalg.eigvalsh(res.fim[np.ix_(free, free)])[0] > 0.0


def test_newton_finish_diagnostics():
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    x = sample(250, truth, seed=8)
    res = fit_mle(x, truth, SIGMA_FIXED)
    assert res.converged and res.stop == "newton"
    assert 0 < res.iterations < 50
    # the start's evaluation with derivatives, which is also its
    # feasibility test, and one evaluation of each trial step, which an
    # accepted trial carries into the next iterate
    assert res.n_eval == 1 + res.iterations


def test_fallback_when_likelihood_runs_off():
    # this replicate of the mc_study cell (0.25, 1, -0.5), n = 50 has no
    # interior maximum with sigma pinned: the likelihood keeps rising toward
    # xi ~ 6.9, so the trust-region run is still climbing at its step cap
    truth = BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=-0.5)
    x, start = study_replicate(truth, 50, seed=34009, r=2)
    res = fit_mle(x, start, SIGMA_FIXED)
    assert not res.converged and res.stop == "step_cap"
    assert res.iterations == mle._MAX_STEPS
    assert res.neg2loglik <= -2.0 * log_likelihood(start, x)
    # every count and the last iterate, pinned: the start and each trial
    # that stayed in the parameter space were evaluated once, and the last
    # iterate's evaluation is reported, not repeated
    assert (res.iterations, res.n_eval, res.neg2loglik) == (250, 251, 246.76662571480654)


def test_every_row_falls_back():
    # no row of the lockstep run finishes: each row still gets its own
    # counts, and a one-replicate sim cell of such a row fails its budget
    # rather than the run
    truth = BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=-0.5)
    x, start = study_replicate(truth, 50, seed=34009, r=2)
    for res in mle.fit_mle_rows(np.array([x, x]), [start, start], SIGMA_FIXED):
        assert (res.stop, res.iterations, res.n_eval, res.neg2loglik) == ("step_cap", 250, 251, 246.76662571480654)
    with pytest.raises(SimCellError, match="1/1 replicates failed"):
        run_cell(SimConfig(truth=truth, n=50, m=1, seed=10))


def test_trust_region_finds_the_maximum_nelder_mead_finds():
    # undamped Newton from this replicate's start runs off toward xi < -1;
    # the trust region holds the early steps near the start, and the run
    # stops on Newton's test at the local maximum Nelder-Mead reaches, no
    # lower in log-likelihood
    truth = BgevParams(xi=-0.25, mu=0.0, sigma=1.0, delta=2.0)
    x, start = study_replicate(truth, 50, seed=62006, r=4)
    res = fit_mle(x, start, SIGMA_FIXED)
    assert res.converged and res.stop == "newton"
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


@pytest.mark.parametrize("c", [30.0, 100.0])
def test_fit_far_from_the_data_scale(c):
    # the unstandardized bundled bimodal daily maxima times c, fitted from
    # default_start, whose sigma = 1 is far from the maximum's: the maximum
    # likelihood estimate is scale-equivariant, so its -2 log L is the
    # unit-scale maximum's plus 2n log c
    y = np.asarray(pipeline.block_maxima(pipeline.ingest(str(bundled_path("bimodal"))), 24).maxima)
    unit = fit_mle(y, default_start(y))
    res = fit_mle(c * y, default_start(c * y))
    assert unit.converged and res.converged and res.stop == "newton"
    assert res.neg2loglik - 2 * y.size * math.log(c) == pytest.approx(unit.neg2loglik, abs=1e-6)


@pytest.mark.parametrize("c", [1e3, 1e6])
def test_default_start_raises_where_no_shape_is_feasible(c):
    # the unstandardized bundled bimodal daily maxima times c: at sigma = 1
    # the lower tail underflows at every shape default_start tries, down to
    # xi = 1e-4, so it has no feasible start to return
    y = np.asarray(pipeline.block_maxima(pipeline.ingest(str(bundled_path("bimodal"))), 24).maxima)
    with pytest.raises(InfeasibleStartError):
        default_start(c * y)


def same_fit(a, b) -> bool:
    """Every field of two FitResults, bit for bit."""
    fields = [replace(f, fim=None) for f in (a, b)]
    arrays = [None if v is None else v.tobytes() for f in (a, b) for v in (f.fim, f.std_errors)]
    return fields[0] == fields[1] and arrays[:2] == arrays[2:]


def test_infeasible_starts_are_the_errors_of_their_rows(monkeypatch):
    # the run's own evaluation of the starts, at order 2, is the one
    # feasibility test: in one call mixing feasible and infeasible starts,
    # exactly the infeasible rows are InfeasibleStartError, every other row
    # is bitwise its fit alone, and the kernel is never called at order 0
    truth = BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=-0.5)
    reps = [study_replicate(truth, 50, seed=28, r=r) for r in range(6)]
    bad = BgevParams(xi=5.0, mu=2.0, sigma=1.0, delta=-0.5)
    starts = [bad if r in (1, 4) else s for r, (_, s) in enumerate(reps)]
    assert [r for r, ((x, _), s) in enumerate(zip(reps, starts)) if log_likelihood(s, x) == -np.inf] == [1, 4]
    orders = []
    real = mle.kernel

    def spy(theta, x, order=2, at=None):
        orders.append(order)
        return real(theta, x, order, at)

    monkeypatch.setattr(mle, "kernel", spy)
    fits = mle.fit_mle_rows(np.array([x for x, _ in reps]), starts, SIGMA_FIXED)
    assert set(orders) == {2}
    monkeypatch.undo()
    assert [r for r, f in enumerate(fits) if isinstance(f, InfeasibleStartError)] == [1, 4]
    for r in (0, 2, 3, 5):
        assert same_fit(fits[r], fit_mle(reps[r][0], starts[r], SIGMA_FIXED))
    with pytest.raises(InfeasibleStartError):
        fit_mle(reps[1][0], bad, SIGMA_FIXED)


def test_n_eval_counts_every_likelihood_evaluation(monkeypatch):
    # only xi free, from xi = 0.2 and from xi = -0.2 on a sample whose
    # estimate is near -0.53: the first row's first step is held to the
    # radius 0.2 and its trial lands at xi = 0, outside the parameter space.
    # The kernel sees that trial with the other row's, and n_eval counts the
    # start and the trials the space's mask keeps
    fixed = {"mu": 0.0, "sigma": 1.0, "delta": 0.5}
    x = sample(50, BgevParams(xi=-0.5, **fixed), seed=1)
    starts = [BgevParams(xi=xi0, **fixed) for xi0 in (0.2, -0.2)]
    calls = []
    real = mle.kernel

    def spy(theta, x, order=2, at=None):
        calls.append((theta.copy(), np.arange(len(theta)) if at is None else at.copy()))
        return real(theta, x, order, at)

    monkeypatch.setattr(mle, "kernel", spy)
    fits = mle.fit_mle_rows(np.array([x, x]), starts, fixed)
    monkeypatch.undo()
    inside, outside = np.zeros(2, dtype=int), np.zeros(2, dtype=int)
    for theta, rows in calls:
        _, ok = mle._Space(fixed).natural(theta[:, [3]])
        np.add.at(inside, rows, ok)
        np.add.at(outside, rows, ~ok)
    assert outside.tolist() == [1, 0] and calls[1][0][0, 3] == 0.0
    assert all(f.stop == "newton" for f in fits) and [f.n_eval for f in fits] == inside.tolist()
    # and each row is bitwise its fit alone
    assert all(same_fit(f, fit_mle(x, s, fixed)) for f, s in zip(fits, starts))


def test_fixed_parameters_respected():
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    x = sample(200, truth, seed=31)
    res = fit_mle(x, truth, {"sigma": 1.0, "delta": 2.0})
    assert res.theta_hat.sigma == 1.0
    assert res.theta_hat.delta == 2.0


def test_start_takes_the_pinned_values():
    # a start that holds every pinned value is reported as given; any other,
    # a zero of the other sign included, with the pinned values
    x = sample(60, BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=0.5), seed=3)
    held = BgevParams(xi=0.4, mu=0.0, sigma=1.0, delta=0.5)
    starts = [held, replace(held, mu=-0.0), replace(held, sigma=1.5)]
    a, b, c = mle.fit_mle_rows(np.array([x, x, x]), starts, {"mu": 0.0, "sigma": 1.0})
    assert a.start is held
    assert b.start == c.start == held and math.copysign(1.0, b.start.mu) == 1.0


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


def certify_trust_steps(neg_h, g, radius, steps):
    """Check the output (s, stop, pred, boundary) of ``mle._trust_steps``
    row by row against what characterizes it, computed apart from its
    eigenbasis: at a positive definite neg_h, the Newton step of
    ``np.linalg.solve`` and the stop on its decrement, and otherwise the
    step shortened to the radius; elsewhere a step on the sphere that
    solves (neg_h + lam I) s = g with lam >= 0 and neg_h + lam I positive
    semidefinite (Nocedal & Wright, *Numerical Optimization*, Theorem 4.1).
    Returns the number of rows of the second kind."""
    s, stop, pred, boundary = steps
    sphere = 0
    for a, b, r, step, halt, gain, held in zip(neg_h, g, radius, s, stop, pred, boundary):
        size = np.abs(a).max()
        assert gain == pytest.approx(b @ step - 0.5 * step @ a @ step, rel=1e-9, abs=1e-12 * size * r * r)
        if np.linalg.eigvalsh(a)[0] > 0.0:
            newton = np.linalg.solve(a, b)
            assert halt == (b @ newton < 2.0 * mle._FTOL)
            if not halt:
                length = np.linalg.norm(newton)
                assert held == (length > r)
                rtol = 1e-14 * np.linalg.cond(a) + 1e-10  # both are backward stable
                assert np.allclose(step, newton * min(1.0, r / length), rtol=rtol, atol=rtol * min(length, r))
            continue
        sphere += 1
        assert not halt and held
        norm = np.linalg.norm(step)
        assert r * (1.0 - 1e-12) <= norm <= r * (1.0 + mle._BOUNDARY_TOL)
        lam = (b - a @ step) @ step / norm**2
        assert np.linalg.norm(a @ step + lam * step - b) <= 1e-9 * (np.linalg.norm(b) + (size + abs(lam)) * norm)
        assert lam >= 0.0 and np.linalg.eigvalsh(a)[0] + lam >= -1e-9 * size
    return sphere


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


@pytest.mark.parametrize("kind", ["definite", "indefinite", "negative", "near_singular"])
def test_trust_steps_match_their_characterization(kind):
    # Newton steps where they are inside the radius, shortened ones where
    # not, and the sphere's maximizer elsewhere; in a stack, each row gets
    # bitwise what it gets alone
    rng = np.random.default_rng(["definite", "indefinite", "negative", "near_singular"].index(kind))
    for k in (2, 3, 4):
        neg_h = symmetric_stack(rng, 64, k, kind)
        g = rng.normal(size=(64, k)) * 10.0 ** rng.uniform(-6.0, 3.0, (64, 1))
        radius = 10.0 ** rng.uniform(-3.0, 2.0, 64)
        steps = mle._trust_steps(neg_h, g, radius)
        sphere = certify_trust_steps(neg_h, g, radius, steps)
        assert sphere == (0 if kind == "definite" else 64 if kind == "negative" else sphere)
        for i in range(len(g)):
            alone = mle._trust_steps(neg_h[i : i + 1], g[i : i + 1], radius[i : i + 1])
            assert all(a.tobytes() == b[i : i + 1].tobytes() for a, b in zip(alone, steps))


def test_trust_step_in_the_hard_case():
    # the gradient has no component along the lowest eigenvector, and the
    # other components fall short of the radius: the step is completed along
    # that eigenvector to the sphere, where the model is largest at
    # sin(angle) = 1/3 with gain 2/3
    neg_h = np.array([[[-1.0, 0.0], [0.0, 2.0]]])
    s, stop, pred, boundary = steps = mle._trust_steps(neg_h, np.array([[0.0, 1.0]]), np.array([1.0]))
    assert certify_trust_steps(neg_h, np.array([[0.0, 1.0]]), [1.0], steps) == 1
    assert np.allclose(np.abs(s[0]), [np.sqrt(8.0) / 3.0, 1.0 / 3.0]) and pred[0] == pytest.approx(2.0 / 3.0)
    # and at a saddle of the model itself, where g = 0, along the negative curvature
    s, stop, pred, boundary = mle._trust_steps(neg_h, np.zeros((1, 2)), np.array([0.5]))
    assert np.allclose(np.abs(s[0]), [0.5, 0.0]) and pred[0] == pytest.approx(0.125)


def test_trust_step_where_no_damping_sufficed():
    # max|diag| = 1 put the last rung of the old damping ladder at 1e15,
    # short of the eigenvalue -1e16: the sphere still has its maximizer
    neg_h = np.array([[[1.0, 1e16], [1e16, 1.0]], [[2.0, 0.5], [0.5, 1.0]], [[-1.0, 0.0], [0.0, 3.0]]])
    g, radius = np.ones((3, 2)), np.full(3, 0.5)
    steps = mle._trust_steps(neg_h, g, radius)
    assert certify_trust_steps(neg_h, g, radius, steps) == 2
    assert np.all(steps[2] > 0.0)


def test_exactly_singular_matrix_steps_and_information():
    # lowest eigenvalue a rounding error above 0, an exactly zero LU pivot:
    # the Newton step is long and shortened to the radius, the other rows
    # of the stack keep theirs
    neg_h = np.array([[[1.0, -3.0], [-3.0, 9.0]], [[2.0, 0.5], [0.5, 1.0]]])
    assert np.linalg.eigvalsh(neg_h[0])[0] > 0.0
    s, stop, pred, boundary = mle._trust_steps(neg_h, np.ones((2, 2)), np.array([0.1, 10.0]))
    assert np.linalg.norm(s[0]) == pytest.approx(0.1) and pred[0] > 0.0 and boundary.tolist() == [True, False]
    assert np.allclose(s[1], np.linalg.solve(neg_h[1], np.ones(2)), rtol=1e-12)
    # and such an information matrix gives no standard errors
    fim = np.zeros((2, 4, 4))
    fim[:, :2, :2], fim[:, 2:, 2:] = neg_h, np.eye(2)
    assert np.linalg.eigvalsh(fim[0])[0] > 0.0
    assert with_information(fim[0]).std_errors is None
    assert with_information(fim[1]).std_errors.tobytes() == np.sqrt(np.diag(np.linalg.inv(fim[1]))).tobytes()


def with_information(fim: np.ndarray) -> mle.FitResult:
    """A FitResult that carries the given information matrix."""
    p = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=0.0)
    return mle.FitResult(theta_hat=p, neg2loglik=0.0, iterations=0, fim=fim, fixed=(), start=p, n_eval=1, stop="newton")


def test_no_std_errors_where_the_inverse_loses_its_positive_diagonal():
    # the information at the step cap of a BGEV fit that ran off to
    # sigma ~ 1e6 (184 draws at xi = 1.41, delta = -0.92, one in the far
    # tail): its lowest eigenvalue is 2.8e-9 above 0, its condition number
    # 1e21, and its inverse has a negative variance for sigma
    fim = np.array([
        [20182507177.054867, 31.99590771714619, -744198827.1543946, 667754516.0073063],
        [31.99590771714619, 5.072046573178104e-08, -1.1793779407575729, 1.0586119218932628],
        [-744198827.1543946, -1.1793779407575729, 27713792.114289545, -24622510.051814012],
        [667754516.0073063, 1.0586119218932628, -24622510.051814012, 22093229.319021657],
    ])
    assert np.linalg.eigvalsh(fim)[0] > 0.0 and np.diag(np.linalg.inv(fim)).min() < 0.0
    assert with_information(fim).std_errors is None


def test_trust_steps_match_their_characterization_on_a_cell(monkeypatch):
    # the steps of one mc_study cell, about a tenth of them on the sphere
    # at an indefinite -H
    calls = []
    real = mle._trust_steps

    def spy(neg_h, g, radius):
        out = real(neg_h, g, radius)
        calls.append((neg_h.copy(), g.copy(), radius.copy(), out))
        return out

    truth = BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=-0.5)
    reps = [study_replicate(truth, 50, seed=1000, r=r) for r in range(20)]
    monkeypatch.setattr(mle, "_trust_steps", spy)
    mle.fit_mle_rows(np.array([x for x, _ in reps]), [s for _, s in reps], SIGMA_FIXED)
    monkeypatch.undo()
    assert sum(certify_trust_steps(*call) for call in calls) > 10


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


def test_std_errors_are_computed_when_read(tmp_path, monkeypatch):
    # neither a suite pass nor a `bgev fit` takes eigenvalues or inverses in
    # bgev.mle; the first read of a std_errors does
    calls, fits = [], []
    for name in ("eigvalsh", "inv"):

        def spy(a, real=getattr(np.linalg, name), name=name):
            if sys._getframe(1).f_globals["__name__"] == "bgev.mle":
                calls.append(name)
            return real(a)

        monkeypatch.setattr(np.linalg, name, spy)
    real_rows = sim.fit_mle_rows

    def kept(x, starts, fixed=None):
        out = real_rows(x, starts, fixed)
        fits.extend(out)
        return out

    monkeypatch.setattr(sim, "fit_mle_rows", kept)
    truth = BgevParams(xi=0.25, mu=1.0, sigma=1.0, delta=-0.5)
    reports, errors = sim.run_suite([SimConfig(truth=truth, n=n, m=10, seed=0) for n in (50, 250)])
    assert not errors and len(fits) == 20
    assert main(["fit", "--input", "bundled:bimodal", "--out-dir", str(tmp_path)]) == 0
    assert calls == []
    fit = next(f for f in fits if isinstance(f, mle.FitResult))
    assert fit.std_errors is not None and calls == ["eigvalsh", "inv"]
    assert fit.std_errors is fit.std_errors and len(calls) == 2  # computed once


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
