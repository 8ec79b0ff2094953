"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s or -rA to see them);
a failed assert means the criterion is red.  The Monte Carlo table cells are
shared between the reproduction and the monotone-consistency criteria.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from bgev import (
    BgevParams,
    Modality,
    SimConfig,
    ad_statistic,
    block_maxima,
    cdf,
    critical_points,
    fit_and_compare,
    gev_cdf,
    gev_quantile,
    hessian,
    ingest,
    ks_statistic,
    ljung_box,
    log_likelihood,
    moment,
    pdf,
    quantile,
    run_cell,
    sample,
    score,
    sf,
    standardize,
    tail_index,
)
from bgev.data import bundled_path
from tests.conftest import gev_pdf, integrate_pdf, random_params

NAMES = ("mu", "sigma", "delta", "xi")


def _report(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def _perturb(theta, name, eps):
    kw = {"mu": theta.mu, "sigma": theta.sigma, "delta": theta.delta, "xi": theta.xi}
    kw[name] += eps
    return BgevParams(**kw)


# --------------------------------------------------------------- criterion 1


def test_criterion_1_derivatives_vs_finite_differences():
    rng = np.random.default_rng(101)
    worst_score = worst_hess = 0.0
    for trial in range(50):
        p = random_params(rng)
        x = sample(100, p, seed=trial)

        g = score(p, x)
        g_fd = np.zeros(4)
        for i, name in enumerate(NAMES):
            h = 1e-6 * max(1.0, abs(getattr(p, name)))
            g_fd[i] = (
                log_likelihood(_perturb(p, name, h), x) - log_likelihood(_perturb(p, name, -h), x)
            ) / (2 * h)
        worst_score = max(worst_score, float(np.max(np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1.0))))

        hs = hessian(p, x)
        h_fd = np.zeros((4, 4))
        for i, name in enumerate(NAMES):
            h = 1e-6 * max(1.0, abs(getattr(p, name)))
            h_fd[i] = (score(_perturb(p, name, h), x) - score(_perturb(p, name, -h), x)) / (2 * h)
        worst_hess = max(worst_hess, float(np.max(np.abs(hs - h_fd) / np.maximum(np.abs(h_fd), 1.0))))

    assert worst_score < 1e-6, f"score vs FD worst relative error {worst_score:.3e}"
    assert worst_hess < 1e-5, f"hessian vs FD worst relative error {worst_hess:.3e}"
    _report(1, "analytic vs numeric derivatives")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_distribution_identities():
    rng = np.random.default_rng(202)
    qs = np.linspace(0.001, 0.999, 999)
    for _ in range(20):
        p = random_params(rng)
        back = np.asarray(cdf(quantile(qs, p), p))
        assert np.max(np.abs(back - qs)) < 1e-10

    for _ in range(6):
        p = random_params(rng)
        assert integrate_pdf(p) == pytest.approx(1.0, abs=1e-6)
    # singularity-bearing case
    p_sing = BgevParams(xi=0.4, mu=1.0, sigma=1.0, delta=-0.5)
    assert integrate_pdf(p_sing) == pytest.approx(1.0, abs=1e-6)

    for _ in range(10):
        xi = float(rng.choice([-1, 1]) * rng.uniform(0.15, 1.0))
        mu, sg = float(rng.uniform(-1, 1)), float(rng.uniform(0.4, 2.5))
        p = BgevParams(xi=xi, mu=mu, sigma=sg, delta=0.0)
        # identity checked over the central quantile range; at the support
        # edge the doubly exponential kernel amplifies one-ulp input
        # differences past any fixed relative tolerance
        xs = np.asarray(quantile(np.linspace(1e-3, 1.0 - 1e-3, 81), p))
        ref_pdf = gev_pdf(xs, xi, mu / sg, 1.0 / sg)
        ref_cdf = gev_cdf(xs, xi, mu / sg, 1.0 / sg)
        assert np.allclose(pdf(xs, p), ref_pdf, rtol=1e-12, atol=0)
        assert np.allclose(cdf(xs, p), ref_cdf, rtol=1e-12, atol=0)
        assert np.allclose(quantile(qs, p), gev_quantile(qs, xi, mu / sg, 1.0 / sg), rtol=1e-12)
        # outside the support both densities are identically zero
        edge = mu / sg - (1.0 / xi) / sg
        outside = edge - 1.0 if xi > 0 else edge + 1.0
        assert float(pdf(outside, p)) == float(gev_pdf(outside, xi, mu / sg, 1.0 / sg)) == 0.0
    _report(2, "quantile round trip, normalization, delta=0 reduction")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_moments_vs_quadrature():
    checked = 0
    for xi in (0.25, 0.4):
        for delta in (0.0, 1.0, 2.0):
            for k in (1, 2):
                if xi >= 1.0 / k:
                    continue
                for branch_positive in (True, False):
                    # mu - 1/xi > 0 needs mu > 1/xi; the other branch mu < 1/xi
                    mu = 1.0 / xi + 0.8 if branch_positive else 0.2
                    p = BgevParams(xi=xi, mu=mu, sigma=1.1, delta=delta)
                    m_exp = int(round(k * (delta + 1.0)))
                    num = integrate_pdf(p, lambda v: float(v) ** m_exp)
                    assert moment(k, p) == pytest.approx(num, rel=1e-6), (k, p)
                    checked += 1
    assert checked == 24  # 2 shapes x 3 deltas x 2 orders x 2 branches
    _report(3, "closed-form moments vs quadrature")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_tail_index():
    rng = np.random.default_rng(404)
    t = 1e6
    for _ in range(5):
        p = random_params(rng, xi_sign=1.0)
        ratio = sf(2.0 * t, p) / sf(t, p)
        target = 2.0 ** (-tail_index(p))
        assert abs(ratio - target) / target < 0.01, p
    _report(4, "Pareto-like survival ratio")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_bimodality_structure():
    for inv_xi in (2, 4):
        for delta in (2.0, 4.0):
            for mu in (-0.5, 0.0, 0.5):
                p = BgevParams(xi=1.0 / inv_xi, mu=mu, sigma=1.0, delta=delta)
                cp = critical_points(p)
                assert len(cp.points) <= 3
                assert cp.classification in (Modality.UNIMODAL, Modality.BIMODAL)
                lo, hi = quantile(1e-4, p), quantile(1.0 - 1e-4, p)
                grid = np.linspace(lo, hi, 10_001)
                vals = np.asarray(pdf(grid, p))
                n_max = int(np.count_nonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])))
                expected = Modality.UNIMODAL if n_max == 1 else Modality.BIMODAL
                assert cp.classification is expected, (p, n_max)

    uni = critical_points(BgevParams(xi=2.0, mu=0.5, sigma=1.0, delta=2.0))
    assert uni.classification is Modality.UNIMODAL
    bi = critical_points(BgevParams(xi=0.5, mu=0.5, sigma=1.0, delta=2.0))
    assert bi.classification is Modality.BIMODAL
    _report(5, "mode structure vs grid scan")


# --------------------------------------------------------- criteria 6 and 7

# reported study anchors for the two cells: |bias| and MSE per (xi, mu, delta);
# thresholds are 3*|bias| + 0.02 and 3*MSE
TABLE_ANCHORS = {
    ("A", 250): {"bias": (0.001, 0.003, 0.003), "mse": (0.013, 0.0048, 0.0038)},
    ("A", 1000): {"bias": (0.001, 0.006, 0.006), "mse": (0.0019, 9e-4, 6e-4)},
    ("B", 250): {"bias": (0.005, 0.008, 0.035), "mse": (0.0053, 0.0026, 0.0315)},
    ("B", 1000): {"bias": (0.001, 0.003, 0.006), "mse": (0.0013, 7e-4, 0.0061)},
}

TRUTHS = {
    "A": BgevParams(xi=1.0, mu=-1.0, sigma=1.0, delta=0.0),
    "B": BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0),
}


@pytest.fixture(scope="module")
def table_cells():
    seeds = {("A", 250): 1001, ("A", 1000): 1002, ("B", 250): 1003, ("B", 1000): 1004}
    out = {}
    for (cell, n), seed in seeds.items():
        out[(cell, n)] = run_cell(SimConfig(truth=TRUTHS[cell], n=n, m=100, seed=seed))
    return out


def test_criterion_6_monte_carlo_table_reproduction(table_cells):
    for key, rep in table_cells.items():
        anchor = TABLE_ANCHORS[key]
        for i, param in enumerate(("xi", "mu", "delta")):
            bias_cap = 3.0 * anchor["bias"][i] + 0.02
            mse_cap = 3.0 * anchor["mse"][i]
            assert abs(rep.bias[param]) <= bias_cap, (key, param, rep.bias[param], bias_cap)
            assert rep.mse[param] <= mse_cap, (key, param, rep.mse[param], mse_cap)
        assert rep.failures <= 20
    _report(6, "Monte Carlo bias/MSE envelopes")


def test_criterion_7_mse_decreases_with_sample_size(table_cells):
    for cell in ("A", "B"):
        for param in ("xi", "mu", "delta"):
            assert table_cells[(cell, 1000)].mse[param] < table_cells[(cell, 250)].mse[param], (
                cell,
                param,
            )
    _report(7, "MSE monotone in sample size")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_gof_oracles():
    uniform = lambda v: np.clip(np.asarray(v, dtype=float), 0.0, 1.0)
    # KS: exact brute-force enumeration over order statistics, n <= 5
    assert ks_statistic(np.array([0.1, 0.2, 0.9]), uniform) == pytest.approx(7 / 15, rel=1e-12)
    x5 = np.array([0.05, 0.3, 0.45, 0.7, 0.95])
    brute = max(
        max(i / 5 - x5[i - 1], x5[i - 1] - (i - 1) / 5) for i in range(1, 6)
    )
    assert ks_statistic(x5, uniform) == pytest.approx(brute, rel=1e-12)

    # AD: single observation and n=4 brute-force sum
    assert ad_statistic(np.array([0.5]), uniform) == pytest.approx(2 * math.log(2) - 1, rel=1e-12)
    x4 = np.sort(np.array([0.1, 0.35, 0.6, 0.8]))
    s = sum(
        (2 * i - 1) * (math.log(x4[i - 1]) + math.log(1 - x4[4 - i])) for i in range(1, 5)
    )
    assert ad_statistic(x4, uniform) == pytest.approx(-4 - s / 4, rel=1e-12)

    # Ljung-Box power and level
    assert ljung_box(np.tile([1.0, -1.0], 500), lags=10).p_value < 1e-6
    accepted = sum(
        ljung_box(np.random.default_rng(s).normal(size=1000), lags=10).p_value > 0.01
        for s in range(100)
    )
    assert accepted >= 95, accepted
    _report(8, "KS/AD brute force and Ljung-Box level/power")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_pipeline_nesting_on_bundled_data():
    series = ingest(bundled_path("bimodal"))
    b = standardize(block_maxima(series, 24))
    rep = fit_and_compare(b)
    assert rep.bgev.converged
    assert rep.bgev.neg2loglik <= rep.gev.neg2loglik + 1e-6
    assert rep.bgev.ks < rep.gev.ks
    _report(9, "bimodal pipeline nesting and fit quality")


# -------------------------------------------------------------- criterion 10


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "suite.ini"
    cfg.write_text(
        "[cell a]\nxi = 0.5\nmu = 0\ndelta = 2\nn = 100\nm = 10\nseed = 12\n", encoding="utf-8"
    )

    def run(args):
        res = subprocess.run(
            [sys.executable, "-m", "bgev.cli", *args], capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr
        return res.stdout

    outs = []
    for tag in ("r1", "r2"):
        d = tmp_path / f"sim_{tag}"
        outs.append(run(["sim", "--config", str(cfg), "--out-dir", str(d)]))
    assert outs[0] == outs[1]
    assert (tmp_path / "sim_r1" / "results.csv").read_bytes() == (
        tmp_path / "sim_r2" / "results.csv"
    ).read_bytes()

    fit_outs = []
    for tag in ("f1", "f2"):
        d = tmp_path / f"fit_{tag}"
        fit_outs.append(run(["fit", "--input", "bundled:bimodal", "--out-dir", str(d)]))
    assert fit_outs[0] == fit_outs[1]
    for name in ("report.txt", "comparison.csv", "histogram.csv", "density.csv", "qq_bgev.csv"):
        assert (tmp_path / "fit_f1" / name).read_bytes() == (
            tmp_path / "fit_f2" / name
        ).read_bytes()
    _report(10, "byte-identical sim and fit outputs")
