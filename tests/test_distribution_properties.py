"""Property tests of the distribution functions over the admissible space.

Parameters range over both signs of xi with 1e-3 <= |xi| <= 3,
-1 < delta <= 5, 1e-2 <= sigma <= 1e2 and -5 <= mu <= 5.  Each case
evaluates three points: one inside the support at a cdf level in
[1e-12, 1 - 1e-12], one on either side of the finite support endpoint at a
distance between 1e-12 and 1e3, and one anywhere in [-1e6, 1e6].  The log
density is checked against an oracle written apart from the likelihood
kernel, at points from the far left to the far right tail, at the origin
and at +-1e300.
"""

import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bgev import BgevParams, cdf, logpdf, quantile, sf, support, transform_forward, transform_inverse
from bgev.likelihood import kernel
from tests.conftest import log_gev_factor, log_jacobian

EPS = np.finfo(float).eps
LOG_TINY = math.log(np.finfo(float).tiny)  # of the smallest normal float

PROPERTY = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


params = st.builds(
    BgevParams,
    xi=st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(1e-3, 3.0)).map(lambda sv: sv[0] * sv[1]),
    mu=st.floats(-5.0, 5.0),
    sigma=log_uniform(1e-2, 1e2),
    delta=st.floats(-0.99, 5.0, exclude_min=True),
)
cases = st.tuples(
    params,
    st.floats(1e-12, 1.0 - 1e-12),
    st.sampled_from([-1.0, 1.0]),
    log_uniform(1e-12, 1e3),
    st.floats(-1e6, 1e6),
)


@PROPERTY
@given(cases)
def test_cdf_plus_sf_is_one(case):
    p, level, side, offset, anywhere = case
    sup = support(p)
    edge = sup.lower if math.isfinite(sup.lower) else sup.upper
    x = np.array([quantile(level, p), edge + side * offset, anywhere])
    total = np.asarray(cdf(x, p)) + np.asarray(sf(x, p))
    assert np.all(np.abs(total - 1.0) <= 4e-16), (x, total - 1.0)


# delta = 0 exactly, -1 < delta < 0 and delta > 0 in equal shares
deltas = st.one_of(st.just(0.0), st.floats(-0.9, 0.0, exclude_max=True), st.floats(0.0, 5.0, exclude_min=True))
density_cases = st.tuples(
    st.builds(
        BgevParams,
        xi=st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform(1e-3, 3.0)).map(lambda sv: sv[0] * sv[1]),
        mu=st.floats(-5.0, 5.0),
        sigma=log_uniform(0.1, 10.0),
        delta=deltas,
    ),
    st.lists(log_uniform(1e-8, 600.0), min_size=1, max_size=8),
    log_uniform(1e-12, 1e3),
)


def oracle_tolerance(x: np.ndarray, p: BgevParams) -> np.ndarray:
    """Bound on the rounding gap between logpdf and the oracle at each x:
    their terms' magnitudes, the terms of the GEV factor's power and
    exponential, and psi's rounding (the two compute sigma*x*|x|**delta in
    different orders) carried through log(psi) and psi**(-1/xi)."""
    t = np.asarray(transform_forward(x, p.sigma, p.delta))
    psi = 1.0 + p.xi * (t - p.mu)
    u = np.log(psi)
    a = psi ** (-1.0 / p.xi)
    terms = (
        1.0
        + abs(math.log(p.sigma))
        + abs(math.log1p(p.delta))
        + (np.abs(p.delta * np.log(np.abs(x))) if p.delta else 0.0)
        + np.abs((1.0 + 1.0 / p.xi) * u)
        + a * (1.0 + np.abs(u / p.xi))
    )
    carried = (abs(1.0 + 1.0 / p.xi) + a / abs(p.xi)) * (1.0 + np.abs(p.xi * t) + psi) / psi
    return 64.0 * EPS * (terms + carried)


def inside_points(p: BgevParams, levels: list[float]) -> np.ndarray:
    """Points inside the support from the far right (A = 1e-8) to the far
    left (A = 600) tail, A = psi**(-1/xi) being the GEV variable; not 0."""
    x = np.asarray(transform_inverse(p.mu + (np.array(levels) ** (-p.xi) - 1.0) / p.xi, p.sigma, p.delta))
    return x[x != 0.0]


@PROPERTY
@given(density_cases)
def test_logpdf_matches_independent_oracle(case):
    p, levels, offset = case
    inside = inside_points(p, levels)
    sup = support(p)
    edge, side = (sup.lower, -1.0) if math.isfinite(sup.lower) else (sup.upper, 1.0)
    edge += side * offset * max(1.0, abs(edge))  # beyond the finite endpoint
    assert logpdf(edge, p) == -np.inf
    x = np.array([*inside, 1e300, -1e300, *([0.0] if p.delta == 0.0 else [])])
    got = np.asarray(logpdf(x, p))
    log_gev, log_jac = log_gev_factor(x, p), log_jacobian(x, p)
    # a subnormal GEV density has too few digits to serve as the oracle:
    # there the density's GEV factor must be as small
    normal = log_gev >= LOG_TINY
    want = log_gev[normal] + log_jac[normal]
    assert np.all(np.abs(got[normal] - want) <= oracle_tolerance(x[normal], p)), (x, got, want)
    assert np.all(got[~normal] - log_jac[~normal] < LOG_TINY + 1e-6), (x, got, log_gev)
    # at the origin the Jacobian factor is 0 for delta > 0 and singular for
    # delta < 0; a scalar in gives a float out
    origin = logpdf(0.0, p)
    assert isinstance(origin, float)
    if p.delta != 0.0:
        assert origin == (np.inf if p.delta < 0.0 and sup.contains(0.0) else -np.inf)


@PROPERTY
@given(density_cases)
# a level so far out that its point rounds onto the support's edge
@example((BgevParams(xi=-2.985, mu=0.0, sigma=1.0, delta=0.0), [1e-8], 1.0))
# terms of size 1 that cancel to -0.0256 at each point
@example((BgevParams(xi=-1.0, mu=2.5, sigma=math.exp(-1.0), delta=1.375), [1.0, 1.0, 1.0], 1.0))
def test_logpdf_sums_to_the_kernel(case):
    p, levels, _ = case
    x = inside_points(p, levels)
    got = np.asarray(logpdf(x, p))
    want, total = kernel(p, x, 0), float(np.sum(got))
    if want == total:  # at the support's edge both are -inf
        return
    # Both sides take L = log|x|, u = log(psi) and a = psi**(-1/xi) bit for
    # bit from log_density_terms; only the order of the additions differs.
    # The kernel sums each of L, u and a over the sample and then combines
    # five sums (n log sigma, n log1p(delta), delta*sum L, (1 + 1/xi)*sum u,
    # sum a); logpdf combines the five terms at each point, and np.sum then
    # adds the points.  Each of the about n + 6 roundings on either side is
    # at most eps/2 of a partial sum no larger than the sum S of the terms'
    # magnitudes, which the result can cancel, so the gap is a few n*eps*S
    # at worst.  Over this test's cases the largest gap is 0.49 n*eps*S; the
    # bound is twice that, rounded up to a power of two.
    psi = 1.0 + p.xi * (np.asarray(transform_forward(x, p.sigma, p.delta)) - p.mu)
    terms = (
        abs(math.log(p.sigma))
        + abs(math.log1p(p.delta))
        + np.abs(p.delta * np.log(np.abs(x)))
        + np.abs((1.0 + 1.0 / p.xi) * np.log(psi))
        + psi ** (-1.0 / p.xi)
    )
    assert abs(want - total) <= x.size * EPS * float(np.sum(terms))


@PROPERTY
@given(density_cases)
# a level so far out that its point rounds onto the support's edge
@example((BgevParams(xi=-2.985, mu=0.0, sigma=1.0, delta=0.0), [1e-8], 1.0))
# terms that cancel: log(3) - 1 from log1p(2) and the GEV term -1
@example((BgevParams(xi=-1.0, mu=1.0, sigma=1.0, delta=2.0), [1.0], 1.0))
def test_logpdf_at_one_point_is_the_kernel_bit_for_bit(case):
    p, levels, _ = case
    x = inside_points(p, levels)
    got = np.asarray(logpdf(x, p))
    want = np.array([kernel(p, x[i : i + 1], 0) for i in range(x.size)])
    assert np.array_equal(got, want), (x, got, want)
