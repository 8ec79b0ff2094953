import math

import numpy as np
import pytest

from bgev import BgevParams, logpdf, transform_forward, transform_inverse
from tests.conftest import central_diff


def test_forward_direct_values():
    assert transform_forward(3.0, 2.0, 1.0) == pytest.approx(18.0, abs=0)
    assert transform_forward(-3.0, 2.0, 1.0) == pytest.approx(-18.0, abs=0)


def test_forward_identity_case():
    for x0 in (-5.0, -0.3, 0.0, 0.7, 12.0):
        assert transform_forward(x0, 1.0, 0.0) == x0


def test_forward_odd_symmetry(rng):
    for _ in range(50):
        x = rng.uniform(-10, 10)
        s = rng.uniform(0.1, 5)
        d = rng.uniform(-0.9, 4)
        assert transform_forward(-x, s, d) == pytest.approx(-transform_forward(x, s, d), rel=1e-15)


def test_forward_strictly_increasing(rng):
    for _ in range(20):
        s = rng.uniform(0.1, 5)
        d = rng.uniform(-0.9, 4)
        xs = np.sort(rng.uniform(-5, 5, size=100))
        ys = transform_forward(xs, s, d)
        assert np.all(np.diff(ys) > 0)


def test_inverse_direct_values():
    assert transform_inverse(18.0, 2.0, 1.0) == pytest.approx(3.0, rel=1e-15)
    assert transform_inverse(0.0, 1.7, 2.3) == 0.0


def test_inverse_round_trip_frozen_case():
    y = -0.5
    x = transform_inverse(y, 1.7, 2.3)
    assert transform_forward(x, 1.7, 2.3) == pytest.approx(y, rel=1e-12)


def test_round_trip_property(rng):
    for _ in range(200):
        s = rng.uniform(0.05, 10)
        d = rng.uniform(-0.95, 5)
        y = rng.uniform(-50, 50)
        assert transform_forward(transform_inverse(y, s, d), s, d) == pytest.approx(y, rel=1e-12, abs=1e-300)


def test_logpdf_jacobian_matches_finite_difference(rng):
    # at mu = T(x) the GEV factor is exp(-1), so logpdf(x) - log(gev_pdf(T(x)))
    # is the log of the transform's first derivative there
    for _ in range(60):
        s = rng.uniform(0.2, 4)
        d = rng.uniform(-0.8, 4)
        x = rng.uniform(0.3, 5) * rng.choice([-1, 1])
        p = BgevParams(xi=rng.choice([-1, 1]) * rng.uniform(0.1, 2), mu=transform_forward(x, s, d), sigma=s, delta=d)
        h = 1e-6 * max(1.0, abs(x))
        fd = central_diff(lambda t: transform_forward(t, s, d), x, h)
        assert math.exp(logpdf(x, p) + 1.0) == pytest.approx(fd, rel=1e-6)


def test_logpdf_x_derivative_matches_finite_difference(rng):
    # d/dx logpdf = T''/T' + T' * d/dT log gev_pdf(T), with T' and T'' the
    # transform's first and second derivatives, T''/T' = delta/x
    for _ in range(60):
        s = rng.uniform(0.2, 4)
        d = rng.uniform(-0.8, 4)
        x = rng.uniform(0.3, 5) * rng.choice([-1, 1])
        xi = rng.choice([-1, 1]) * rng.uniform(0.1, 2)
        offset = rng.uniform(-0.5, 0.5) / abs(xi)
        t = transform_forward(x, s, d)
        p = BgevParams(xi=xi, mu=t - offset, sigma=s, delta=d)
        psi = 1.0 + xi * (t - p.mu)
        d1 = s * (d + 1.0) * abs(x) ** d
        exact = d / x + d1 * (psi ** (-1.0 / xi) - 1.0 - xi) / psi
        h = 1e-5 * min(abs(x), psi / abs(xi * d1))  # psi moves by 1e-5 of itself at most
        fd = central_diff(lambda v: logpdf(v, p), x, h)
        assert exact == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_parameter_validation():
    with pytest.raises(ValueError):
        transform_forward(1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        transform_forward(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        transform_inverse(1.0, 0.0, 0.0)
