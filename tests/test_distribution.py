import math
import warnings

import numpy as np
import pytest

from bgev import (
    BgevParams,
    Modality,
    cdf,
    critical_points,
    gev_cdf,
    gev_mode,
    gev_quantile,
    ks_statistic,
    logpdf,
    moment,
    pdf,
    quantile,
    sample,
    sf,
    support,
    tail_index,
    transform_forward,
    transform_inverse,
)
from bgev.params import SupportKind
from tests.conftest import central_diff, gev_pdf, integrate_pdf, random_params

P_GEV1 = BgevParams(xi=1.0, mu=0.0, sigma=1.0, delta=0.0)


# ----------------------------------------------------------------------- support


def test_support_sides():
    sp = support(BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=1.0))
    assert sp.kind is SupportKind.LEFT_BOUNDED
    assert sp.lower == pytest.approx(transform_inverse(-2.0, 1.0, 1.0))
    assert sp.upper == math.inf

    sn = support(BgevParams(xi=-0.5, mu=0.0, sigma=1.0, delta=1.0))
    assert sn.kind is SupportKind.RIGHT_BOUNDED
    assert sn.lower == -math.inf
    assert sn.upper == pytest.approx(transform_inverse(2.0, 1.0, 1.0))


# ----------------------------------------------------------------------- pdf


def test_pdf_unit_kernel_value():
    assert pdf(0.0, P_GEV1) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_pdf_hand_value_delta2():
    p = BgevParams(xi=1.0, mu=0.0, sigma=1.0, delta=2.0)
    assert pdf(1.0, p) == pytest.approx(3.0 * 2.0**-2 * math.exp(-0.5), rel=1e-15)


def test_pdf_reduces_to_gev_at_delta0(rng):
    for _ in range(10):
        xi = float(rng.choice([-1, 1]) * rng.uniform(0.15, 1.0))
        mu = float(rng.uniform(-1, 1))
        p = BgevParams(xi=xi, mu=mu, sigma=1.0, delta=0.0)
        xs = np.linspace(mu - 3, mu + 3, 101)
        assert np.allclose(pdf(xs, p), gev_pdf(xs, xi, mu), rtol=1e-12)


def test_pdf_zero_outside_support():
    p = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=1.0)
    assert pdf(support(p).lower - 0.1, p) == 0.0
    pn = BgevParams(xi=-0.5, mu=0.0, sigma=1.0, delta=1.0)
    assert pdf(support(pn).upper + 0.1, pn) == 0.0
    # the endpoint itself, psi = 0 exactly, where the GEV power is unbounded
    pe = BgevParams(xi=-2.0, mu=0.0, sigma=1.0, delta=0.0)
    assert pdf(0.5, pe) == 0.0


@pytest.mark.parametrize("xi", [-0.25, 0.25])
@pytest.mark.parametrize("x", [1e300, -1e300])
def test_pdf_zero_far_in_the_tails(xi, x):
    # the power map overflows to +-inf there and the density is 0
    p = BgevParams(xi=xi, mu=-0.36, sigma=1.0, delta=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pdf(x, p) == 0.0
        assert pdf(np.array([x, 0.5]), p)[0] == 0.0
        assert cdf(x, p) == (0.0 if x < 0 else 1.0)


def test_pdf_unbounded_at_origin_for_negative_delta():
    p = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=-0.4)
    assert support(p).contains(0.0)
    assert pdf(0.0, p) == math.inf
    # outside the support the origin spike disappears
    p_out = BgevParams(xi=0.5, mu=3.0, sigma=1.0, delta=-0.4)
    assert not support(p_out).contains(0.0)
    assert pdf(0.0, p_out) == 0.0


def test_pdf_vanishes_at_origin_for_positive_delta():
    p = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    assert pdf(0.0, p) == 0.0


def test_pdf_nonnegative(rng):
    for _ in range(10):
        p = random_params(rng)
        xs = rng.uniform(-6, 6, size=200)
        assert np.all(np.asarray(pdf(xs, p)) >= 0.0)


def test_pdf_normalizes_to_one(rng):
    for _ in range(8):
        p = random_params(rng)
        assert integrate_pdf(p) == pytest.approx(1.0, abs=1e-6)


def test_pdf_normalizes_with_origin_singularity():
    p = BgevParams(xi=0.4, mu=1.0, sigma=1.2, delta=-0.6)
    assert support(p).contains(0.0)
    assert integrate_pdf(p) == pytest.approx(1.0, abs=1e-6)


# ----------------------------------------------------------------------- cdf


def test_cdf_at_kernel_one():
    for p in (P_GEV1, BgevParams(xi=-0.4, mu=1.2, sigma=0.7, delta=2.0)):
        x = transform_inverse(p.mu, p.sigma, p.delta)
        assert cdf(x, p) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_cdf_boundary_clamps():
    p = BgevParams(xi=-0.5, mu=0.0, sigma=1.0, delta=1.0)
    up = support(p).upper
    assert cdf(up, p) == 1.0
    assert cdf(up + 1.0, p) == 1.0
    q = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=1.0)
    assert cdf(support(q).lower - 1.0, q) == 0.0


def test_cdf_matches_quadrature_frozen_case():
    # oracle: adaptive quadrature of the density from the lower endpoint to 0.7
    p = BgevParams(xi=0.5, mu=0.2, sigma=1.3, delta=2.0)
    assert cdf(0.7, p) == pytest.approx(0.45248036556524185, abs=1e-8)


def test_cdf_monotone(rng):
    for _ in range(10):
        p = random_params(rng)
        xs = np.linspace(-8, 8, 400)
        vals = np.asarray(cdf(xs, p))
        assert np.all(np.diff(vals) >= -1e-15)


def test_cdf_derivative_matches_pdf(rng):
    # 200-point interior grid, central differences, away from the origin
    for _ in range(6):
        p = random_params(rng, delta_lo=0.0)
        qs = np.linspace(0.02, 0.98, 200)
        xs = np.asarray(quantile(qs, p))
        xs = xs[np.abs(xs) > 0.05]
        h = 2e-6 * np.maximum(1.0, np.abs(xs))
        fd = (np.asarray(cdf(xs + h, p)) - np.asarray(cdf(xs - h, p))) / (2 * h)
        dens = np.asarray(pdf(xs, p))
        rel = np.abs(fd - dens) / np.maximum(np.abs(dens), 1e-12)
        assert np.max(rel) < 1e-5


def test_sf_complements_cdf_and_is_tail_accurate():
    p = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=1.0)
    for x in (0.5, 2.0, 10.0):
        assert sf(x, p) == pytest.approx(1.0 - cdf(x, p), rel=1e-12)
    big = 1e6
    tail = sf(big, p)
    assert 0.0 < tail < 1e-5
    # relative accuracy where 1 - cdf would lose every digit
    psi = 1.0 + p.xi * (transform_forward(big, p.sigma, p.delta) - p.mu)
    assert tail == pytest.approx(psi ** (-1.0 / p.xi), rel=1e-6)


@pytest.mark.parametrize("xi", [-0.5, 0.25])
@pytest.mark.parametrize("delta", [-0.5, 0.0, 1.5])
def test_nan_points_give_nan_and_leave_the_rest(xi, delta):
    p = BgevParams(xi=xi, mu=0.3, sigma=1.7, delta=delta)
    x = np.array([np.nan, -np.inf, -2.0, np.nan, 0.0, 0.7, np.inf, np.nan])
    nan = np.isnan(x)
    ends = np.isinf(x)
    assert np.array_equal(transform_forward(x[ends], p.sigma, p.delta), x[ends])
    limits = {logpdf: [-np.inf, -np.inf], pdf: [0.0, 0.0], cdf: [0.0, 1.0], sf: [1.0, 0.0]}
    for f, at_ends in limits.items():
        got = np.asarray(f(x, p))
        assert np.isnan(got[nan]).all() and math.isnan(f(math.nan, p)), f.__name__
        assert np.array_equal(got[~nan], f(x[~nan], p)), f.__name__
        assert np.array_equal(got[ends], at_ends), f.__name__
    got = np.asarray(gev_cdf(x, xi, 0.3, 1.7))
    assert np.isnan(got[nan]).all() and math.isnan(gev_cdf(math.nan, xi, 0.3))
    assert np.array_equal(got[~nan], gev_cdf(x[~nan], xi, 0.3, 1.7))


# ----------------------------------------------------------------------- quantile


def test_quantile_kernel_one_level():
    for p in (P_GEV1, BgevParams(xi=0.7, mu=-0.5, sigma=2.0, delta=3.0)):
        assert quantile(math.exp(-1.0), p) == pytest.approx(
            transform_inverse(p.mu, p.sigma, p.delta), rel=1e-12
        )


def test_quantile_median_hand_value():
    assert quantile(0.5, P_GEV1) == pytest.approx(1.0 / math.log(2.0) - 1.0, rel=1e-14)


def test_quantile_round_trip_grid(rng):
    qs = np.arange(0.001, 0.9995, 0.001)
    for _ in range(20):
        p = random_params(rng)
        back = np.asarray(cdf(quantile(qs, p), p))
        assert np.max(np.abs(back - qs)) < 1e-10


def test_quantile_strictly_increasing(rng):
    p = random_params(rng)
    qs = np.linspace(0.01, 0.99, 200)
    xs = np.asarray(quantile(qs, p))
    assert np.all(np.diff(xs) > 0)


def test_quantile_domain_error():
    for q in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            quantile(q, P_GEV1)


def test_delta0_reduction_to_scaled_gev(rng):
    # (xi, mu, sigma, 0) is the GEV with location mu/sigma and scale 1/sigma;
    # compared over the central quantile range, where a 1e-12 relative match
    # is meaningful despite the doubly exponential kernel
    for _ in range(10):
        xi = float(rng.choice([-1, 1]) * rng.uniform(0.15, 1.0))
        mu = float(rng.uniform(-1.5, 1.5))
        sg = float(rng.uniform(0.3, 3.0))
        p = BgevParams(xi=xi, mu=mu, sigma=sg, delta=0.0)
        xs = np.asarray(quantile(np.linspace(1e-3, 1 - 1e-3, 101), p))
        assert np.allclose(pdf(xs, p), gev_pdf(xs, xi, mu / sg, 1.0 / sg), rtol=1e-12)
        assert np.allclose(cdf(xs, p), gev_cdf(xs, xi, mu / sg, 1.0 / sg), rtol=1e-12)
        qs = np.linspace(0.01, 0.99, 99)
        assert np.allclose(quantile(qs, p), gev_quantile(qs, xi, mu / sg, 1.0 / sg), rtol=1e-12)


# ----------------------------------------------------------------------- sampling


def test_sample_deterministic():
    p = BgevParams(xi=0.5, mu=0.3, sigma=1.0, delta=2.0)
    a = sample(5, p, seed=42)
    b = sample(5, p, seed=42)
    assert np.array_equal(a, b)
    c = sample(5, p, seed=43)
    assert not np.array_equal(a, c)


def test_sample_support_confinement():
    p = BgevParams(xi=0.6, mu=0.2, sigma=1.0, delta=1.0)
    draws = sample(10_000, p, seed=11)
    assert np.all(draws > support(p).lower)


def test_sample_rejects_bad_n():
    with pytest.raises(ValueError):
        sample(0, P_GEV1, seed=1)


def test_transformed_draws_are_unit_gev():
    # pushing draws through the forward map must recover the baseline GEV
    p = BgevParams(xi=0.4, mu=0.5, sigma=1.6, delta=2.0)
    n = 100_000
    y = transform_forward(sample(n, p, seed=7), p.sigma, p.delta)
    d = ks_statistic(y, lambda v: gev_cdf(v, p.xi, p.mu))
    assert d < 1.63 / math.sqrt(n)


def test_empirical_cdf_converges():
    p = BgevParams(xi=-0.3, mu=0.1, sigma=0.8, delta=1.5)
    n = 100_000
    d = ks_statistic(sample(n, p, seed=3), lambda v: cdf(v, p))
    assert d < 1.63 / math.sqrt(n)


def test_scale_law_of_transformed_gev_draws(rng):
    # T^{-1}(c*Y) with Y unit-scale GEV(xi, mu) follows the law with the
    # transform scale divided by c; checked as quantile-function equality
    qs = np.linspace(0.001, 0.999, 999)
    for _ in range(10):
        p = random_params(rng)
        c = float(rng.uniform(0.2, 5.0))
        lhs = transform_inverse(c * np.asarray(gev_quantile(qs, p.xi, p.mu)), p.sigma, p.delta)
        scaled = BgevParams(xi=p.xi, mu=p.mu, sigma=p.sigma / c, delta=p.delta)
        rhs = np.asarray(quantile(qs, scaled))
        assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)) < 1e-10


# ----------------------------------------------------------------------- shape


def test_monotone_increasing_left_region_case1():
    # xi > 0, delta < 0: increasing left of min(0, preimage of the GEV mode)
    p = BgevParams(xi=0.5, mu=-1.0, sigma=1.0, delta=-0.3)
    m = gev_mode(p.xi, p.mu)
    x_min = min(0.0, transform_inverse(m, p.sigma, p.delta))
    lo = support(p).lower
    assert lo < x_min
    grid = np.linspace(lo + 1e-6, x_min - 1e-9, 300)
    vals = np.asarray(pdf(grid, p))
    assert np.all(np.diff(vals) >= -1e-12)


def test_monotone_decreasing_right_region_case3():
    # xi < 0, delta < 0: decreasing right of max(0, preimage of the GEV mode)
    p = BgevParams(xi=-0.5, mu=1.0, sigma=1.0, delta=-0.3)
    m = gev_mode(p.xi, p.mu)
    x_max = max(0.0, transform_inverse(m, p.sigma, p.delta))
    up = support(p).upper
    assert x_max < up
    grid = np.linspace(x_max + 1e-9, up - 1e-6, 300)
    vals = np.asarray(pdf(grid, p))
    assert np.all(np.diff(vals) <= 1e-12)


@pytest.mark.parametrize(
    "xi,delta",
    [(0.5, -0.3), (0.5, 1.5), (-0.5, -0.3), (-0.5, 1.5)],
)
def test_monotone_factors_all_sign_cases(xi, delta):
    # the two factors of the density: the GEV factor is monotone on the
    # mode's side, the Jacobian factor is monotone by the sign of delta
    mu = -1.0 if xi > 0 else 1.0
    p = BgevParams(xi=xi, mu=mu, sigma=1.0, delta=delta)
    m = gev_mode(xi, mu)
    x_star = transform_inverse(m, p.sigma, p.delta)
    if xi > 0:
        lo = support(p).lower
        side = np.linspace(lo + 1e-6, min(0.0, x_star) - 1e-9, 200)
        gev_factor = gev_pdf(transform_forward(side, p.sigma, p.delta), xi, mu)
        assert np.all(np.diff(gev_factor) >= -1e-12)
    else:
        up = support(p).upper
        side = np.linspace(max(0.0, x_star) + 1e-9, up - 1e-6, 200)
        gev_factor = gev_pdf(transform_forward(side, p.sigma, p.delta), xi, mu)
        assert np.all(np.diff(gev_factor) <= 1e-12)
    jac = p.sigma * (p.delta + 1.0) * np.abs(side) ** p.delta
    diffs = np.diff(jac)
    if (side < 0).all():
        assert np.all(diffs >= -1e-12) if delta < 0 else np.all(diffs <= 1e-12)
    else:
        assert np.all(diffs <= 1e-12) if delta < 0 else np.all(diffs >= -1e-12)


# ----------------------------------------------------------------------- critical points


def test_reference_pair_classification():
    uni = critical_points(BgevParams(xi=2.0, mu=0.5, sigma=1.0, delta=2.0))
    assert uni.classification is Modality.UNIMODAL
    bi = critical_points(BgevParams(xi=0.5, mu=0.5, sigma=1.0, delta=2.0))
    assert bi.classification is Modality.BIMODAL
    assert len(bi.points) == 3 and 0.0 in bi.points


def test_point_budget_natural_inverse_shape():
    for inv_xi in (2, 4):
        for delta in (2.0, 3.0, 4.0):
            for mu in (-0.5, 0.0, 0.5):
                cp = critical_points(BgevParams(xi=1.0 / inv_xi, mu=mu, sigma=1.0, delta=delta))
                assert len(cp.points) <= 3
                assert cp.classification in (Modality.UNIMODAL, Modality.BIMODAL)


def test_returned_points_zero_the_density_slope(rng):
    cases = [
        BgevParams(xi=0.5, mu=0.5, sigma=1.0, delta=2.0),
        BgevParams(xi=0.25, mu=0.0, sigma=1.0, delta=4.0),
        BgevParams(xi=0.5, mu=-0.3, sigma=1.4, delta=3.0),
        BgevParams(xi=-0.4, mu=0.2, sigma=1.0, delta=2.0),
        BgevParams(xi=0.3, mu=1.0, sigma=1.0, delta=0.0),
        BgevParams(xi=-0.3, mu=2.0, sigma=1.0, delta=-0.5),
        BgevParams(xi=0.5, mu=-2.0, sigma=0.7, delta=-0.5),
        BgevParams(xi=-0.3, mu=0.2, sigma=0.8, delta=0.5),
        BgevParams(xi=0.4, mu=-0.5, sigma=1.5, delta=1.5),
    ]
    for p in cases:
        cp = critical_points(p)
        sup = support(p)
        # for delta != 0 the origin is a critical point whenever the support holds it
        assert (0.0 in cp.points) is (p.delta != 0.0 and sup.contains(0.0)), p
        grid = np.asarray(quantile(np.linspace(0.01, 0.99, 200), p))
        grid = grid[np.abs(grid) > 1e-3]
        h = 1e-5 * np.maximum(1.0, np.abs(grid))
        slope_scale = np.max(np.abs(pdf(grid + h, p) - pdf(grid - h, p)) / (2 * h))
        for x in cp.points:
            if x == 0.0:  # the Jacobian's zero or pole, not a zero of the slope
                assert pdf(x, p) == (0.0 if p.delta > 0.0 else math.inf), p
                continue
            hx = 1e-5 * max(1.0, abs(x))
            slope = central_diff(lambda t: float(pdf(t, p)), x, hx)
            assert abs(slope) <= 1e-6 * max(1.0, slope_scale), (p, x, slope)


def test_classification_matches_grid_scan():
    for p in (
        BgevParams(xi=0.5, mu=0.5, sigma=1.0, delta=2.0),
        BgevParams(xi=0.25, mu=0.0, sigma=1.0, delta=4.0),
        BgevParams(xi=2.0, mu=0.5, sigma=1.0, delta=2.0),
        BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=0.0),
    ):
        cp = critical_points(p)
        lo, hi = quantile(1e-4, p), quantile(1.0 - 1e-4, p)
        grid = np.linspace(lo, hi, 10_001)
        vals = np.asarray(pdf(grid, p))
        interior_max = np.count_nonzero(
            (vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])
        )
        expected = Modality.UNIMODAL if interior_max == 1 else Modality.BIMODAL
        assert cp.classification is expected


def _local_maxima(x: np.ndarray, p: BgevParams) -> np.ndarray:
    """The interior points of the ascending grid x where the density peaks."""
    v = np.asarray(pdf(x, p))
    return x[1:-1][(v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])]


def _scan_maxima(p: BgevParams, n: int = 20_001) -> np.ndarray:
    """Local maxima of the density on n quantile levels in [1e-9, 1 - 1e-9],
    plus points at 1e-12, 1e-9 and 1e-6 either side of an interior origin."""
    x = np.asarray(quantile(np.linspace(1e-9, 1.0 - 1e-9, n), p))
    if support(p).contains(0.0):
        x = np.sort(np.r_[x, [-1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6]])
    return _local_maxima(x, p)


def test_verdict_matches_a_density_scan_across_delta(rng):
    # both signs of xi, sigma != 1, -1 < delta < 0 and 0 < delta < 2
    for _ in range(120):
        p = random_params(rng, delta_lo=-0.9, delta_hi=2.0)
        cp = critical_points(p)
        found = _scan_maxima(p)
        if cp.classification is {1: Modality.UNIMODAL, 2: Modality.BIMODAL}.get(found.size, Modality.DEGENERATE):
            continue
        # the scan steps over humps too small or too far out for its levels
        # (a maximum of pdf 2.2e-11 at xi=0.6918, mu=1.2963, sigma=0.5594,
        # delta=1.2915): a local check at each returned maximum decides
        assert len(cp.maxima) > found.size, (p, cp, found)
        for x in cp.maxima:
            h = 1e-6 * max(1.0, abs(x))
            assert pdf(x, p) >= max(pdf(x - h, p), pdf(x + h, p)), (p, x)


@pytest.mark.parametrize(
    "xi, mu, delta, verdict, maxima",
    [
        # the density's pole at the origin is its only maximum
        pytest.param(-0.5, 0.0, -0.5, Modality.UNIMODAL, (0.0,), id="pole"),
        # the origin, where the density is 0, separates two maxima; the
        # midpoint between them is higher than the left one
        pytest.param(
            -0.75, 0.0, 0.5, Modality.BIMODAL, (-0.5192988131357815, 0.9936794762142618), id="zero-between-maxima"
        ),
    ],
)
def test_origin_is_a_critical_point_inside_the_support(xi, mu, delta, verdict, maxima):
    p = BgevParams(xi=xi, mu=mu, sigma=1.0, delta=delta)
    cp = critical_points(p)
    assert cp.classification is verdict
    assert 0.0 in cp.points
    assert cp.maxima == pytest.approx(maxima, rel=1e-9)


def test_mode_below_the_scan_levels_where_the_support_ends_at_the_origin():
    # 1 - xi*mu = 0 puts the support's edge at the origin; the one mode lies
    # at x ~ 3.5e-30, at a level (7.6e-10) below those of the quantile scan,
    # which sees the density only falling.  A geometric scan in x finds it.
    p = BgevParams(xi=2.0, mu=0.5, sigma=1.0, delta=-0.9)
    assert support(p).lower == 0.0
    cp = critical_points(p)
    assert cp.classification is Modality.UNIMODAL
    assert _scan_maxima(p).size == 0
    found = _local_maxima(np.geomspace(1e-40, 1e-20, 20_001), p)
    assert found.size == 1
    assert cp.maxima[0] == pytest.approx(found[0], rel=2e-3)
    assert float(cdf(cp.maxima[0], p)) < 1e-9


# ----------------------------------------------------------------------- moments


def test_moment_positive_branch_frozen():
    # mu - 1/xi > 0: support entirely nonnegative; oracle = quadrature
    p = BgevParams(xi=0.5, mu=2.5, sigma=1.0, delta=0.0)
    assert moment(1, p) == pytest.approx(4.044907701811032, rel=1e-12)
    assert moment(1, p) == pytest.approx(integrate_pdf(p, lambda x: x), rel=1e-6)


def test_moment_negative_branch_frozen():
    # mu - 1/xi < 0: support on both sides of zero; oracle = quadrature
    p = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=0.0)
    assert moment(1, p) == pytest.approx(1.5449077018110318, rel=1e-12)
    assert moment(1, p) == pytest.approx(integrate_pdf(p, lambda x: x), rel=1e-6)


def test_moment_matches_quadrature_both_branches(rng):
    cases = [
        (1, BgevParams(xi=0.4, mu=3.0, sigma=0.8, delta=1.0)),  # positive branch
        (1, BgevParams(xi=0.4, mu=0.5, sigma=1.2, delta=2.0)),  # negative branch
        (2, BgevParams(xi=0.25, mu=0.3, sigma=1.3, delta=1.0)),
        (2, BgevParams(xi=0.25, mu=5.0, sigma=1.0, delta=0.0)),
        # xi < 0: the same incomplete-gamma sum, support reaching both sides of zero
        (1, BgevParams(xi=-0.25, mu=0.7, sigma=1.0, delta=1.0)),
        (2, BgevParams(xi=-0.5, mu=-0.5, sigma=0.8, delta=2.0)),
        (3, BgevParams(xi=-0.1, mu=2.0, sigma=1.2, delta=0.0)),
        (2, BgevParams(xi=-1.5, mu=0.0, sigma=1.0, delta=-0.5)),
        # xi < 0 with mu <= 1/xi: the support lies entirely below zero
        (1, BgevParams(xi=-0.5, mu=-3.0, sigma=1.0, delta=1.0)),
        (2, BgevParams(xi=-0.9, mu=-1.2, sigma=1.5, delta=2.0)),
        (1, BgevParams(xi=-0.5, mu=-2.0, sigma=1.0, delta=0.0)),  # mu == 1/xi
    ]
    for k, p in cases:
        m_exp = k * (p.delta + 1.0)
        num = integrate_pdf(p, lambda x: x ** int(round(m_exp)))
        assert moment(k, p) == pytest.approx(num, rel=1e-8), (k, p)


def test_moment_mean_via_fractional_delta():
    # delta = 1/k - 1 makes the exponent exactly 1, so the value is E[X]
    k = 2
    p = BgevParams(xi=0.3, mu=0.4, sigma=1.1, delta=1.0 / k - 1.0)
    assert k * (p.delta + 1.0) == pytest.approx(1.0)
    assert moment(k, p) == pytest.approx(integrate_pdf(p, lambda x: x), rel=1e-6)


def test_moment_negative_shape_matches_sample_mean():
    p = BgevParams(xi=-0.5, mu=0.0, sigma=1.0, delta=2.0)
    val = moment(1, p)
    draws = sample(400_000, p, seed=5)
    assert val == pytest.approx(float(np.mean(draws**3)), abs=0.02)


def test_moment_existence_domain():
    with pytest.raises(ValueError):
        moment(1, BgevParams(xi=1.0, mu=0.0, sigma=1.0, delta=0.0))
    with pytest.raises(ValueError):
        moment(2, BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=0.0))
    # non-integer exponent over a support reaching below zero is not real-valued
    with pytest.raises(ValueError):
        moment(1, BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=0.3))
    # for xi < 0 the support always reaches below zero
    with pytest.raises(ValueError):
        moment(1, BgevParams(xi=-0.5, mu=5.0, sigma=1.0, delta=0.3))
    # an entirely nonnegative support (mu >= 1/xi > 0) admits any delta
    p = BgevParams(xi=0.25, mu=5.0, sigma=1.0, delta=0.3)
    assert moment(1, p) == pytest.approx(integrate_pdf(p, lambda x: x**1.3), rel=1e-8)


# ----------------------------------------------------------------------- tail


def test_tail_index_values():
    assert tail_index(BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=0.0)) == pytest.approx(2.0)
    assert tail_index(BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=1.0)) == pytest.approx(4.0)


def test_tail_index_domain_error():
    with pytest.raises(ValueError):
        tail_index(BgevParams(xi=-0.5, mu=0.0, sigma=1.0, delta=0.0))


def test_survival_ratio_matches_tail_exponent(rng):
    t = 1e6
    for _ in range(5):
        p = random_params(rng, xi_sign=1.0, delta_lo=-0.5, delta_hi=3.0)
        ratio = sf(2.0 * t, p) / sf(t, p)
        assert ratio == pytest.approx(2.0 ** (-tail_index(p)), rel=0.01)
