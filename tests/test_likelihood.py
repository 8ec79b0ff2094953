import numpy as np
import pytest

from bgev import (
    BgevParams,
    gev_pdf,
    hessian,
    log_likelihood,
    sample,
    score,
)
from bgev.likelihood import kernel
from tests.conftest import log_density_oracle, random_params

NAMES = ("mu", "sigma", "delta", "xi")


def perturbed(theta: BgevParams, name: str, eps: float) -> BgevParams:
    kw = {"mu": theta.mu, "sigma": theta.sigma, "delta": theta.delta, "xi": theta.xi}
    kw[name] += eps
    return BgevParams(**kw)


def fd_score(theta, x, h=1e-6):
    g = np.zeros(4)
    for i, name in enumerate(NAMES):
        hp = h * max(1.0, abs(getattr(theta, name)))
        g[i] = (
            log_likelihood(perturbed(theta, name, hp), x)
            - log_likelihood(perturbed(theta, name, -hp), x)
        ) / (2 * hp)
    return g


def fd_hessian(theta, x, h=1e-6):
    m = np.zeros((4, 4))
    for i, name in enumerate(NAMES):
        hp = h * max(1.0, abs(getattr(theta, name)))
        m[i] = (score(perturbed(theta, name, hp), x) - score(perturbed(theta, name, -hp), x)) / (
            2 * hp
        )
    return m


def test_single_observation_is_logpdf(rng):
    for _ in range(20):
        p = random_params(rng)
        x = sample(1, p, rng)
        assert log_likelihood(p, x) == pytest.approx(float(log_density_oracle(x, p)[0]), rel=1e-12)


def test_reduces_to_gev_loglik_at_unit_scale(rng):
    for _ in range(10):
        xi = float(rng.choice([-1, 1]) * rng.uniform(0.15, 1.0))
        mu = float(rng.uniform(-1, 1))
        p = BgevParams(xi=xi, mu=mu, sigma=1.0, delta=0.0)
        x = sample(60, p, rng)
        assert log_likelihood(p, x) == pytest.approx(float(np.sum(np.log(gev_pdf(x, xi, mu)))), rel=1e-12)


def test_matches_sum_of_log_pdf(rng):
    for _ in range(15):
        p = random_params(rng)
        x = sample(50, p, rng)
        assert log_likelihood(p, x) == pytest.approx(float(np.sum(log_density_oracle(x, p))), rel=1e-12)


def test_infeasible_sentinels():
    p = BgevParams(xi=1.0, mu=0.0, sigma=1.0, delta=0.0)
    below = np.array([-2.0, 0.5, 1.0])  # -2 is outside (psi <= 0)
    assert log_likelihood(p, below) == -np.inf
    assert np.all(np.isnan(score(p, below)))
    assert np.all(np.isnan(hessian(p, below)))

    at_origin = np.array([0.0, 0.5, 1.0])
    p_d = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=1.0)
    assert log_likelihood(p_d, at_origin) == -np.inf
    # delta = 0 tolerates an observation at the origin
    assert np.isfinite(log_likelihood(p, at_origin))


def test_kernel_feasibility(rng):
    p = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    x = sample(40, p, rng)
    ll, g, h = kernel(p, x, 2)
    assert np.isfinite(ll) and np.all(np.isfinite(g)) and np.all(np.isfinite(h))
    ll_bad, g_bad, h_bad = kernel(BgevParams(xi=5.0, mu=3.0, sigma=1.0, delta=2.0), x, 2)
    assert ll_bad == -np.inf and np.all(np.isnan(g_bad)) and np.all(np.isnan(h_bad))


def test_score_matches_finite_differences(rng):
    worst = 0.0
    for trial in range(15):
        p = random_params(rng)
        x = sample(100, p, seed=trial)
        g_a = score(p, x)
        g_fd = fd_score(p, x)
        rel = np.max(np.abs(g_a - g_fd) / np.maximum(np.abs(g_fd), 1.0))
        worst = max(worst, rel)
    assert worst < 1e-6


def test_score_small_at_optimum_of_large_sample():
    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    from bgev import fit_mle

    x = sample(20_000, truth, seed=123)
    res = fit_mle(x, truth)
    g = score(res.theta_hat, x)
    # per-observation gradient shrinks like 1/sqrt(n) at the MLE
    assert np.max(np.abs(g)) / x.size < 0.05


def test_score_gev_reduction_components(rng):
    # at delta = 0, sigma = 1 the (mu, xi) components equal the plain GEV
    # score obtained by finite differences of the GEV log-likelihood
    for _ in range(5):
        xi = float(rng.choice([-1, 1]) * rng.uniform(0.2, 0.8))
        mu = float(rng.uniform(-1, 1))
        p = BgevParams(xi=xi, mu=mu, sigma=1.0, delta=0.0)
        x = sample(80, p, rng)
        g = score(p, x)
        h = 1e-6
        gev_ll = lambda xi_, mu_: float(np.sum(np.log(gev_pdf(x, xi_, mu_))))
        g_mu = (gev_ll(xi, mu + h) - gev_ll(xi, mu - h)) / (2 * h)
        g_xi = (gev_ll(xi + h, mu) - gev_ll(xi - h, mu)) / (2 * h)
        assert g[0] == pytest.approx(g_mu, rel=1e-5, abs=1e-4)
        assert g[3] == pytest.approx(g_xi, rel=1e-5, abs=1e-4)


def test_hessian_symmetric_exactly(rng):
    for _ in range(10):
        p = random_params(rng)
        x = sample(60, p, rng)
        h = hessian(p, x)
        assert np.array_equal(h, h.T)


def test_hessian_matches_fd_of_score(rng):
    worst = 0.0
    for trial in range(12):
        p = random_params(rng)
        x = sample(100, p, seed=1000 + trial)
        h_a = hessian(p, x)
        h_fd = fd_hessian(p, x)
        rel = np.max(np.abs(h_a - h_fd) / np.maximum(np.abs(h_fd), 1.0))
        worst = max(worst, rel)
    assert worst < 1e-5


def test_hessian_negative_definite_at_clean_optimum():
    from bgev import fit_mle

    truth = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    x = sample(2000, truth, seed=9)
    res = fit_mle(x, truth)
    h = hessian(res.theta_hat, x)
    eig = np.linalg.eigvalsh(0.5 * (h + h.T))
    assert np.all(eig < 0)
