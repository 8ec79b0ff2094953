import math

import numpy as np
import pytest
from scipy import stats

from bgev import gev_cdf, gev_mode, gev_pdf, gev_quantile


def golden_section_argmax(f, a, b, tol=1e-6):
    invphi = (math.sqrt(5) - 1) / 2
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    while abs(b - a) > tol:
        if f(c) > f(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return 0.5 * (a + b)


def numeric_argmax(f, a, b):
    """Golden section to a rough bracket, then bisection on the finite
    difference slope; localizes a smooth interior maximum to ~1e-10."""
    m = golden_section_argmax(f, a, b)
    h = 1e-6 * max(1.0, abs(m))
    slope = lambda x: f(x + h) - f(x - h)
    lo, hi = m - 1e-4, m + 1e-4
    s_lo, s_hi = slope(lo), slope(hi)
    if not (s_lo > 0 > s_hi):
        return m
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        s = slope(mid)
        if s > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_pdf_cdf_against_scipy(rng):
    # scipy's genextreme uses c = -xi
    for _ in range(30):
        xi = rng.choice([-1, 1]) * rng.uniform(0.1, 1.5)
        mu = rng.uniform(-2, 2)
        sg = rng.uniform(0.3, 3)
        x = rng.uniform(mu - 2 * sg, mu + 4 * sg)
        ref_pdf = stats.genextreme.pdf(x, c=-xi, loc=mu, scale=sg)
        ref_cdf = stats.genextreme.cdf(x, c=-xi, loc=mu, scale=sg)
        assert gev_pdf(x, xi, mu, sg) == pytest.approx(ref_pdf, rel=1e-12, abs=1e-300)
        assert gev_cdf(x, xi, mu, sg) == pytest.approx(ref_cdf, rel=1e-12, abs=1e-300)


def test_quantile_inverts_cdf(rng):
    for _ in range(20):
        xi = rng.choice([-1, 1]) * rng.uniform(0.1, 1.5)
        mu = rng.uniform(-2, 2)
        q = rng.uniform(0.01, 0.99)
        assert gev_cdf(gev_quantile(q, xi, mu), xi, mu) == pytest.approx(q, abs=1e-12)


def test_quantile_rejects_bad_levels():
    for q in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            gev_quantile(q, 0.5, 0.0)


def test_mode_location_shift_equivariance(rng):
    for _ in range(20):
        xi = rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)
        mu = rng.uniform(-5, 5)
        assert gev_mode(xi, mu) - gev_mode(xi, 0.0) == pytest.approx(mu, rel=1e-12, abs=1e-12)


def test_mode_golden_section_oracle():
    # interior-mode regime xi > -1; the bracket spans the density's bulk
    for xi in (1.0, 0.5, 0.25, -0.25, -0.5, -0.9, 2.0):
        lo = gev_quantile(1e-6, xi, 0.0)
        hi = gev_quantile(1 - 1e-6, xi, 0.0)
        m_num = numeric_argmax(lambda y: gev_pdf(y, xi, 0.0), lo, hi)
        assert gev_mode(xi, 0.0) == pytest.approx(m_num, abs=1e-8)
    assert gev_mode(1.0, 0.0) == pytest.approx(-0.5, abs=1e-15)


def test_mode_boundary_for_strongly_negative_shape():
    # density increases all the way to the right endpoint mu - 1/xi
    assert gev_mode(-1.0, 0.0) == pytest.approx(1.0)
    assert gev_mode(-2.0, 0.5) == pytest.approx(1.0)


def test_pdf_nonincreasing_right_of_mode_negative_shape(rng):
    for xi in (-0.2, -0.5, -0.8):
        mu = float(rng.uniform(-1, 1))
        m = gev_mode(xi, mu)
        upper = mu - 1 / xi
        grid = np.linspace(m, upper - 1e-9, 300)
        vals = gev_pdf(grid, xi, mu)
        assert np.all(np.diff(vals) <= 1e-12)
