import math
import warnings

import numpy as np
import pytest
from scipy import stats

from bgev import (
    BgevParams,
    ad_statistic,
    cdf,
    gof_report,
    ks_statistic,
    ljung_box,
    qq_pairs,
    quantile,
    sample,
    sf,
)

UNIFORM_CDF = lambda v: np.clip(np.asarray(v, dtype=float), 0.0, 1.0)


# ----------------------------------------------------------------------- KS


def test_ks_plugin_quantiles():
    for n in (4, 10, 37):
        x = np.array([(i - 0.5) / n for i in range(1, n + 1)])
        assert ks_statistic(x, UNIFORM_CDF) == pytest.approx(0.5 / n, rel=1e-12)


def test_ks_brute_force_tiny_case():
    # all six order-statistic terms enumerated by hand give D = 7/15
    x = np.array([0.1, 0.2, 0.9])
    assert ks_statistic(x, UNIFORM_CDF) == pytest.approx(7.0 / 15.0, rel=1e-12)


def test_ks_self_consistency_large_sample():
    p = BgevParams(xi=0.4, mu=0.2, sigma=1.1, delta=1.0)
    n = 100_000
    d = ks_statistic(sample(n, p, seed=13), lambda v: cdf(v, p))
    assert d < 1.63 / math.sqrt(n)


def test_ks_rejects_nonfinite():
    with pytest.raises(ValueError):
        ks_statistic(np.array([0.1, np.nan]), UNIFORM_CDF)
    with pytest.raises(ValueError):
        ks_statistic(np.array([0.1, np.inf]), UNIFORM_CDF)


# ----------------------------------------------------------------------- AD


def test_ad_single_observation():
    assert ad_statistic(np.array([0.5]), UNIFORM_CDF) == pytest.approx(2 * math.log(2) - 1, rel=1e-12)


def test_ad_brute_force_toy_case():
    # direct summation over the sorted sample, frozen
    x = np.array([0.1, 0.35, 0.6, 0.8])
    assert ad_statistic(x, UNIFORM_CDF) == pytest.approx(0.20448318566078072, rel=1e-12)


def test_ad_well_fitted_versus_misfit():
    p = BgevParams(xi=0.4, mu=0.2, sigma=1.1, delta=1.0)
    x = sample(5000, p, seed=8)
    good = ad_statistic(x, lambda v: cdf(v, p))
    assert good < 4.0  # O(1) under the true model
    wrong = BgevParams(xi=0.4, mu=1.2, sigma=1.1, delta=1.0)
    xs = np.sort(x)
    inside = cdf(xs, wrong)
    keep = (np.asarray(inside) > 0) & (np.asarray(inside) < 1)
    bad = ad_statistic(xs[keep], lambda v: cdf(v, wrong))
    assert bad > 10 * good


def test_ad_boundary_error_reports_observation():
    x = np.array([-0.5, 0.2, 0.7])
    with pytest.raises(ValueError, match="-0.5"):
        ad_statistic(x, UNIFORM_CDF)


def test_ad_takes_log_sf_where_f_rounds_to_one():
    # a far reading of a heavy right tail: F rounds to exactly 1 there, but
    # sf does not round to 0, so AD stays finite with log sf in that term
    # alone; where no F rounds to 1, sf changes no bit of AD
    p = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=0.0)
    law_cdf, law_sf = (lambda v: cdf(v, p)), (lambda v: sf(v, p))
    x = sample(200, p, seed=4)
    assert ad_statistic(x, law_cdf, law_sf) == ad_statistic(x, law_cdf)
    far = np.append(x, 1e10)
    assert cdf(1e10, p) == 1.0 and 0.0 < sf(1e10, p) < 1e-16
    with pytest.raises(ValueError, match="rank 201, F=1.0"):
        ad_statistic(far, law_cdf)
    # the textbook sum with log sf in every term
    xs = np.sort(far)
    i = np.arange(1, xs.size + 1)
    expected = -xs.size - np.sum((2 * i - 1) * (np.log(cdf(xs, p)) + np.log(sf(xs, p))[::-1])) / xs.size
    assert ad_statistic(far, law_cdf, law_sf) == pytest.approx(expected, rel=1e-12)
    assert gof_report(far, law_cdf, lambda q: quantile(q, p), law_sf).ad == ad_statistic(far, law_cdf, law_sf)
    # an sf of 0 there is still the boundary
    with pytest.raises(ValueError, match="rank 201, F=1.0"):
        ad_statistic(far, law_cdf, lambda v: np.zeros_like(v))


# ----------------------------------------------------------------------- Ljung-Box


def test_ljung_box_accepts_iid_noise():
    accept = 0
    for s in range(100):
        x = np.random.default_rng(s).normal(size=1000)
        if ljung_box(x, lags=10).p_value > 0.01:
            accept += 1
    assert accept >= 95


def test_ljung_box_rejects_periodic_series():
    x = np.tile([1.0, -1.0], 500)
    rep = ljung_box(x, lags=10)
    assert rep.p_value < 1e-6
    assert rep.statistic > 100


def test_ljung_box_hand_autocorrelation():
    # n = 4 series with hand-computed lag-1 autocorrelation 0.15
    x = np.array([1.0, 2.0, 4.0, 3.0])
    rep = ljung_box(x, lags=1)
    assert rep.statistic == pytest.approx(4 * 6 * 0.15**2 / 3, rel=1e-12)
    assert rep.lags == 1
    assert 0.0 <= rep.p_value <= 1.0


def test_ljung_box_p_value_matches_chi2_tail():
    x = np.random.default_rng(11).normal(size=400)
    for lags in (1, 2, 5, 10, 40, 150):
        rep = ljung_box(x, lags=lags)
        assert rep.p_value == pytest.approx(stats.chi2.sf(rep.statistic, lags), rel=1e-12)


def test_ljung_box_many_lags_stays_finite():
    # Gamma(lags/2) = Gamma(200) overflows a double; the regularized form must not
    x = np.random.default_rng(12).normal(size=1000)
    rep = ljung_box(x, lags=400)
    assert math.isfinite(rep.p_value) and 0.0 < rep.p_value < 1.0
    assert rep.p_value == pytest.approx(stats.chi2.sf(rep.statistic, 400), rel=1e-10)


def test_ljung_box_input_validation():
    with pytest.raises(ValueError):
        ljung_box(np.ones(50), lags=5)  # constant series
    with pytest.raises(ValueError):
        ljung_box(np.arange(10.0), lags=5)  # lags >= n/2


@pytest.mark.parametrize("big", [[1e300], [1e308, 1e308]])
def test_ljung_box_overflowing_spread_raises_without_warnings(big):
    # the sum of squared deviations (or the mean itself) is not a finite float
    x = 1.0 + np.arange(100.0) % 7
    x[10 : 10 + len(big)] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="spread of the series overflows"):
            ljung_box(x, lags=5)


# ----------------------------------------------------------------------- QQ


def test_qq_self_quantiles_on_diagonal():
    p = BgevParams(xi=0.5, mu=0.1, sigma=1.0, delta=1.0)
    n = 50
    x = np.asarray(quantile((np.arange(1, n + 1) - 0.5) / n, p))
    pairs = qq_pairs(x, lambda q: quantile(q, p))
    assert np.allclose(pairs[:, 0], pairs[:, 1], rtol=1e-12)


def test_qq_two_point_case():
    pairs = qq_pairs(np.array([3.0, 1.0]), lambda q: np.asarray(q, dtype=float))
    assert pairs == pytest.approx(np.array([[0.25, 1.0], [0.75, 3.0]]))


def test_qq_monotone_both_coordinates(rng):
    x = rng.normal(size=200)
    pairs = qq_pairs(x, lambda q: np.asarray(q, dtype=float))
    assert np.all(np.diff(pairs[:, 0]) > 0)
    assert np.all(np.diff(pairs[:, 1]) >= 0)


def test_statistics_permutation_invariant(rng):
    p = BgevParams(xi=0.3, mu=0.0, sigma=1.0, delta=1.0)
    x = sample(500, p, seed=44)
    shuffled = x.copy()
    rng.shuffle(shuffled)
    c = lambda v: cdf(v, p)
    q = lambda v: quantile(v, p)
    assert ks_statistic(x, c) == ks_statistic(shuffled, c)
    assert ad_statistic(x, c) == ad_statistic(shuffled, c)
    assert np.array_equal(qq_pairs(x, q), qq_pairs(shuffled, q))


def test_gof_report_shape():
    p = BgevParams(xi=0.3, mu=0.0, sigma=1.0, delta=1.0)
    x = sample(100, p, seed=4)
    rep = gof_report(x, lambda v: cdf(v, p), lambda v: quantile(v, p))
    assert rep.n == 100
    assert 0.0 <= rep.ks <= 1.0
    assert rep.qq.shape == (100, 2)
    assert np.all(np.diff(rep.qq[:, 1]) >= 0)
