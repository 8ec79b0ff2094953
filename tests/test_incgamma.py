import math

import pytest
from scipy import integrate, special

from bgev import incomplete_gamma_lower, incomplete_gamma_upper
from bgev.incgamma import regularized_gamma_upper


def test_exponential_case():
    for x in (0.1, 0.5, 1.0, 3.0, 10.0):
        assert incomplete_gamma_lower(1.0, x) == pytest.approx(1.0 - math.exp(-x), rel=1e-13)


def test_upper_at_zero_is_complete_gamma():
    for a in (0.3, 1.0, 2.5, 7.0):
        assert incomplete_gamma_upper(a, 0.0) == pytest.approx(math.gamma(a), rel=1e-15)
        assert incomplete_gamma_lower(a, 0.0) == 0.0


def test_lower_plus_upper_is_complete_gamma():
    for a in (0.1, 0.37, 0.75, 1.0, 1.6, 2.5, 5.0, 9.5):
        for x in (0.01, 0.3, a, a + 1.0, 2 * a + 3.0, 40.0):
            total = incomplete_gamma_lower(a, x) + incomplete_gamma_upper(a, x)
            assert total == pytest.approx(math.gamma(a), rel=1e-12)


def test_lower_against_quadrature():
    # direct adaptive integration of the defining integrand
    val, err = integrate.quad(lambda t: t**1.5 * math.exp(-t), 0.0, 1.3, epsabs=1e-14, epsrel=1e-13)
    assert incomplete_gamma_lower(2.5, 1.3) == pytest.approx(val, rel=1e-10)


def test_against_scipy_regularized(rng):
    for _ in range(200):
        a = float(rng.uniform(0.05, 8.0))
        x = float(rng.uniform(0.0, 25.0))
        assert incomplete_gamma_lower(a, x) == pytest.approx(
            special.gammainc(a, x) * math.gamma(a), rel=1e-12, abs=1e-280
        )
        assert incomplete_gamma_upper(a, x) == pytest.approx(
            special.gammaincc(a, x) * math.gamma(a), rel=1e-12, abs=1e-280
        )


def test_regularized_upper_against_scipy(rng):
    # large shapes included: Gamma(a) overflows past a ~ 171, Q(a, x) does not
    for a in (0.5, 1.0, 3.5, 20.0, 200.0, 1000.0):
        for x in (1e-6, 0.3 * a, a, a + 1.0, 1.3 * a + 5.0):
            assert regularized_gamma_upper(a, x) == pytest.approx(special.gammaincc(a, x), rel=1e-12)
    assert regularized_gamma_upper(2.0, 0.0) == 1.0
    assert regularized_gamma_upper(2.0, math.inf) == 0.0


def test_infinite_x():
    assert incomplete_gamma_lower(2.0, math.inf) == pytest.approx(math.gamma(2.0))
    assert incomplete_gamma_upper(2.0, math.inf) == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        incomplete_gamma_lower(0.0, 1.0)
    with pytest.raises(ValueError):
        incomplete_gamma_lower(-1.0, 1.0)
    with pytest.raises(ValueError):
        incomplete_gamma_upper(1.0, -0.5)
    with pytest.raises(ValueError):
        incomplete_gamma_lower(math.nan, 1.0)
