"""Property tests of the fused likelihood kernel over the admissible space.

Parameters range over both signs of xi up to |xi| = 5, -1 < delta <= 5 and
a wide band of scales and locations.  Data are placed inside the support
through the GEV variable A = psi**(-1/xi), drawn over [0.02, 5] (cdf values
between 0.007 and 0.98), so every observation is feasible while psi itself
ranges from about 1e-8 to 1e8 across the parameter space.  Finite-difference
steps are cut so that no observation's psi moves by more than a small
fraction, and the tolerances carry the rounding noise of the order-0 sums.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bgev import BgevParams, sample, transform_inverse
from bgev import likelihood
from bgev.likelihood import kernel
from tests.conftest import kernel_derivatives_oracle, log_density_oracle

EPS = np.finfo(float).eps
PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

xis = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(math.log(0.05), math.log(5.0))).map(
    lambda sv: sv[0] * math.exp(sv[1])
)
params = st.builds(
    BgevParams,
    xi=xis,
    mu=st.floats(-3.0, 3.0),
    sigma=st.floats(math.log(0.2), math.log(5.0)).map(math.exp),
    delta=st.floats(-0.95, 5.0),
)
cases = st.tuples(params, st.integers(8, 60), st.integers(0, 2**32 - 1))


def interior_sample(p: BgevParams, n: int, seed: int) -> np.ndarray:
    a = np.exp(np.random.default_rng(seed).uniform(math.log(0.02), math.log(5.0), n))
    t = p.mu + (a ** (-p.xi) - 1.0) / p.xi
    return np.asarray(transform_inverse(t, p.sigma, p.delta))


def as_vector(p: BgevParams) -> np.ndarray:
    return np.array([p.mu, p.sigma, p.delta, p.xi])


def shifted(p: BgevParams, steps: dict[int, float]) -> BgevParams:
    v = as_vector(p)
    for i, h in steps.items():
        v[i] += h
    return BgevParams(mu=v[0], sigma=v[1], delta=v[2], xi=v[3])


def psi_and_sensitivity(p: BgevParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi per observation and d psi / d theta, shape (4, n)."""
    ax = np.abs(x)
    logx = np.log(ax)
    t = p.sigma * x * ax**p.delta
    psi = 1.0 + p.xi * (t - p.mu)
    dpsi = np.stack([np.full_like(t, -p.xi), p.xi * t / p.sigma, p.xi * t * logx, t - p.mu])
    return psi, dpsi


def fd_steps(p: BgevParams, x: np.ndarray, frac: float) -> np.ndarray:
    """Per-parameter steps that move no observation's psi by more than frac
    of itself, and no parameter by more than frac of max(1, |theta|); delta
    also stays clear of -1."""
    psi, dpsi = psi_and_sensitivity(p, x)
    reach = np.min(psi / np.maximum(np.abs(dpsi), 1e-300), axis=1)
    h = frac * np.minimum(np.maximum(1.0, np.abs(as_vector(p))), reach)
    h[2] = min(h[2], frac * (1.0 + p.delta))
    return h


def rounding_scale(p: BgevParams, x: np.ndarray) -> float:
    """Size of the rounding noise of an order-0 evaluation: the magnitudes of
    its terms, plus the error of psi = 1 + xi*(t - mu) (about eps*(1 + |psi - 1|)
    absolute) carried through log(psi) and psi**(-1/xi)."""
    psi, _ = psi_and_sensitivity(p, x)
    u = np.log(psi)
    a = psi ** (-1.0 / p.xi)
    terms = (
        abs(math.log(p.sigma))
        + abs(math.log1p(p.delta))
        + np.abs(p.delta * np.log(np.abs(x)))
        + np.abs((1.0 + 1.0 / p.xi) * u)
        + a
    )
    carried = (abs(1.0 + 1.0 / p.xi) + a / abs(p.xi)) * (1.0 + np.abs(psi - 1.0)) / psi
    return float(np.sum(terms + carried))


@PROPERTY
@given(cases)
def test_order_zero_is_sum_of_log_pdf(case):
    p, n, seed = case
    x = interior_sample(p, n, seed)
    ref = log_density_oracle(x, p)
    assert np.all(np.isfinite(ref))
    ll = kernel(p, x, 0)
    assert abs(ll - float(np.sum(ref))) <= 1e3 * EPS * rounding_scale(p, x)


@PROPERTY
@given(cases)
def test_orders_agree_and_hessian_is_symmetric(case):
    p, n, seed = case
    x = interior_sample(p, n, seed)
    ll0 = kernel(p, x, 0)
    ll1, g1 = kernel(p, x, 1)
    ll2, g2, h = kernel(p, x, 2)
    assert ll0 == ll1 == ll2
    assert np.array_equal(g1, g2)
    assert np.all(np.isfinite(h)) and np.array_equal(h, h.T)


@PROPERTY
@given(cases)
def test_score_matches_central_differences(case):
    p, n, seed = case
    x = interior_sample(p, n, seed)
    _, g, h = kernel(p, x, 2)
    steps = fd_steps(p, x, 1e-6)
    noise = 1e3 * EPS * rounding_scale(p, x)
    for i, hi in enumerate(steps):
        fd = (kernel(shifted(p, {i: hi}), x, 0) - kernel(shifted(p, {i: -hi}), x, 0)) / (2 * hi)
        scale = abs(fd) + math.sqrt(abs(h[i, i])) + 1.0
        assert abs(g[i] - fd) <= 1e-5 * scale + noise / hi, (i, g[i], fd)


@PROPERTY
@given(cases)
def test_hessian_matches_central_differences(case):
    p, n, seed = case
    x = interior_sample(p, n, seed)
    ll, _, h = kernel(p, x, 2)
    steps = fd_steps(p, x, 1e-4)
    noise = 1e3 * EPS * rounding_scale(p, x)
    f = lambda shift: kernel(shifted(p, shift), x, 0)  # noqa: E731
    for i, hi in enumerate(steps):
        for j, hj in enumerate(steps):
            if i == j:
                fd = (f({i: hi}) - 2.0 * ll + f({i: -hi})) / hi**2
            elif j < i:
                continue
            else:
                fd = (
                    f({i: hi, j: hj}) - f({i: hi, j: -hj}) - f({i: -hi, j: hj}) + f({i: -hi, j: -hj})
                ) / (4.0 * hi * hj)
            scale = abs(fd) + math.sqrt(abs(h[i, i] * h[j, j])) + 1.0
            assert abs(h[i, j] - fd) <= 1e-5 * scale + noise / (hi * hj), (i, j, h[i, j], fd)


@PROPERTY
@given(cases, st.floats(1e-6, 2.0), st.booleans())
def test_infeasible_theta_gives_sentinels(case, overshoot, at_origin):
    p, n, seed = case
    x = interior_sample(p, n, seed)
    if at_origin and p.delta != 0.0:
        x[0] = 0.0  # the origin is infeasible whenever delta != 0
        bad = p
    else:
        # move mu so the observation nearest the support edge lands past it
        t = p.sigma * x * np.abs(x) ** p.delta
        k = int(np.argmin(p.xi * t))
        bad = BgevParams(mu=float(t[k]) + (1.0 + overshoot) / p.xi, sigma=p.sigma, delta=p.delta, xi=p.xi)
    assert kernel(bad, x, 0) == -np.inf
    ll, g, h = kernel(bad, x, 2)
    assert ll == -np.inf and np.all(np.isnan(g)) and np.all(np.isnan(h))


@PROPERTY
@given(params, st.integers(8, 60), st.integers(0, 2**32 - 1), st.floats(-50.0, 50.0))
def test_no_runtime_warnings(p, n, seed, mu_shift):
    # feasible and infeasible evaluations alike, at data spanning the whole
    # support and at shifted locations (the trial steps a fit makes)
    x = sample(n, p, seed)
    probe = BgevParams(mu=p.mu + mu_shift, sigma=p.sigma, delta=p.delta, xi=p.xi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (p, probe):
            for order in (0, 1, 2):
                kernel(theta, x, order)


def as_row(p: BgevParams) -> list[float]:
    return [p.mu, p.sigma, p.delta, p.xi]


def same(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


def feasible_or_broken(p: BgevParams, x: np.ndarray, kind: str, overshoot: float):
    """The row (parameters, data) of one sample: as drawn, or made
    infeasible by kind -- an observation past the support edge, one at the
    origin with delta != 0, or one whose psi overflows to inf."""
    x = x.copy()
    if kind == "outside":
        t = p.sigma * x * np.abs(x) ** p.delta
        k = int(np.argmin(p.xi * t))
        p = BgevParams(mu=float(t[k]) + (1.0 + overshoot) / p.xi, sigma=p.sigma, delta=p.delta, xi=p.xi)
    elif kind == "origin":
        p = BgevParams(mu=p.mu, sigma=p.sigma, delta=p.delta if p.delta != 0.0 else 0.5, xi=p.xi)
        x[0] = 0.0
    elif kind == "psi_inf":
        # sigma * x * |x|**delta overflows on the side where psi grows
        p = BgevParams(mu=p.mu, sigma=p.sigma, delta=abs(p.delta) + 0.5, xi=p.xi)
        x[0] = math.copysign(1e300, p.xi)
    return p, x


# delta also takes the exponents numpy's ``**`` special-cases
cell_params = st.builds(
    BgevParams,
    xi=xis,
    mu=st.floats(-3.0, 3.0),
    sigma=st.floats(math.log(0.2), math.log(5.0)).map(math.exp),
    delta=st.one_of(st.floats(-0.95, 5.0), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
)
rows_of_a_cell = st.lists(
    st.tuples(cell_params, st.integers(0, 2**32 - 1), st.sampled_from(["feasible"] * 3 + ["outside", "origin", "psi_inf"])),
    min_size=2,
    max_size=7,
)


@PROPERTY
@given(rows_of_a_cell, st.integers(8, 60), st.floats(1e-6, 2.0))
def test_batched_rows_equal_rows_alone(cells, n, overshoot):
    # one (m, n) call over mixed rows: each row is bitwise the 1-D call on
    # that row, infeasible rows carry the sentinels in their own row only,
    # and nothing warns; and the first row, repeated to fill batches of 1
    # to 17, gives the same bits at every position
    rows = [feasible_or_broken(p, interior_sample(p, n, seed), kind, overshoot) for p, seed, kind in cells]
    theta = np.array([as_row(p) for p, _ in rows])
    xs = np.array([x for _, x in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = [kernel(theta, xs, order) for order in (0, 1, 2)]
        alone = [[kernel(p, x, order) for p, x in rows] for order in (0, 1, 2)]
        swept = [[kernel(np.tile(theta[0], (m, 1)), np.tile(xs[0], (m, 1)), order) for m in range(1, 18)] for order in (0, 1, 2)]
    for order in (0, 1, 2):
        one = alone[order][0]
        for m, out in enumerate(swept[order], start=1):
            for i in range(m):
                assert same(out[i], one) if order == 0 else all(same(b[i], o) for b, o in zip(out, one))
    for order in (0, 1, 2):
        for i, ((p, x), (_, _, kind)) in enumerate(zip(rows, cells)):
            one = alone[order][i]
            if order == 0:
                assert same(batched[0][i], one)
            else:
                assert all(same(b[i], o) for b, o in zip(batched[order], one))
            ll = one if order == 0 else one[0]
            if kind != "feasible":
                assert ll == -np.inf
                assert order == 0 or all(np.all(np.isnan(v)) for v in one[1:])
            else:
                assert math.isfinite(ll)


@PROPERTY
@given(rows_of_a_cell, st.integers(8, 60), st.floats(1e-6, 2.0), st.booleans())
def test_log_likelihood_is_the_same_bits_at_every_order(cells, n, overshoot, tails):
    # a fit accepts a start on its order-0 ll and reports the start's
    # order-2 evaluation where it stops at once, so the two must agree bit
    # for bit: in one call over mixed rows, row by
    # row alone, and on data drawn by sample, whose uniforms reach 1e-300
    # and 1 - 1e-16 (the far tails), as well as on interior data
    draw = (lambda p, seed: sample(n, p, seed)) if tails else (lambda p, seed: interior_sample(p, n, seed))
    rows = [feasible_or_broken(p, draw(p, seed), kind, overshoot) for p, seed, kind in cells]
    theta = np.array([as_row(p) for p, _ in rows])
    xs = np.array([x for _, x in rows])
    assert kernel(theta, xs, 0).tobytes() == kernel(theta, xs, 2)[0].tobytes()
    for p, x in rows:
        assert np.float64(kernel(p, x, 0)).tobytes() == np.float64(kernel(p, x, 2)[0]).tobytes()


@PROPERTY
@given(
    st.lists(st.tuples(cell_params, st.integers(0, 2**32 - 1), st.booleans()), min_size=1, max_size=3),
    st.sampled_from([8, 50, 1000, 7300]),
)
def test_derivatives_match_the_chain_rule_oracle(rows, n):
    # g and H of every row of a call one row longer than a chunk, so that
    # it spans two, against the matrix form of the chain rule; the rows
    # cycle through the drawn ones, on interior data or on data drawn by
    # sample, whose uniforms reach the far tails
    drawn = [(p, sample(n, p, seed) if tails else interior_sample(p, n, seed)) for p, seed, tails in rows]
    m = max(max(1, likelihood._CHUNK // n) + 1, len(drawn))
    cycle = [drawn[i % len(drawn)] for i in range(m)]
    ll, g, h = kernel(np.array([as_row(p) for p, _ in cycle]), np.array([x for _, x in cycle]), 2)
    for i, (p, x) in enumerate(drawn):
        # an observation of the far tails may round onto the support's edge
        assume(math.isfinite(ll[i]))
        want_g, want_h, g_size, h_size = kernel_derivatives_oracle(p, x)
        # Both sides add the same terms from the same L, w, t, d, psi, u
        # and a, each factor after them a few roundings from the other
        # side's; they differ in the order of the additions: the kernel
        # sums products of weights by basis terms and scales them by
        # powers of xi, the oracle sums each product of the chain rule on
        # its own.  Each of the about n roundings on either side is at
        # most eps/2 of a partial sum no larger than the size of the
        # entry, the sum of the magnitudes of everything added on the way,
        # so the gap is a few n*eps*size at worst.  Over this test's cases
        # the largest gap is 0.18 n*eps*size; the bound is twice that,
        # rounded up to a power of two.
        for j in range(i, m, len(drawn)):
            assert np.all(np.abs(g[j] - want_g) <= 0.5 * n * EPS * g_size), (p, n, g[j], want_g)
            assert np.all(np.abs(h[j] - want_h) <= 0.5 * n * EPS * h_size), (p, n, h[j], want_h)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_batched_rows_split_into_chunks(order):
    # five rows of this size run through the kernel as chunks of 3 and 2
    n = likelihood._CHUNK // 3
    p = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    rows = [BgevParams(xi=0.5 + 0.05 * i, mu=0.1 * i, sigma=1.0, delta=2.0 - 0.2 * i) for i in range(5)]
    xs = np.array([sample(n, p, seed) for seed in range(5)])
    batched = kernel(np.array([as_row(q) for q in rows]), xs, order)
    for i, (q, x) in enumerate(zip(rows, xs)):
        one = kernel(q, x, order)
        if order == 0:
            assert same(batched[i], one)
        else:
            assert all(same(b[i], o) for b, o in zip(batched, one))


# admissible but extreme rows, at which a float power or division of the
# per-row assembly overflows or divides by an underflowed square, and what
# the entries fed by it read: -n/sigma**2 overflows to -inf; |x|**1e160
# leaves the float range, so the row is infeasible; at xi = 1e80 the
# overflowing xi**3 and xi**4 only divide terms that vanish, and every entry
# is finite as its true value is; xi = -1e80 puts the data outside the support
EXTREME_ROWS = [
    pytest.param(BgevParams(xi=0.5, mu=0.0, sigma=1e-170, delta=0.0), "sigma_sigma_inf", id="sigma-squared-underflows"),
    pytest.param(BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=1e160), "sentinels", id="delta-squared-overflows"),
    pytest.param(BgevParams(xi=1e80, mu=0.0, sigma=1.0, delta=0.0), "finite", id="xi-cubed-overflows"),
    pytest.param(BgevParams(xi=-1e80, mu=0.0, sigma=1.0, delta=0.0), "sentinels", id="negative-xi-cubed-overflows"),
]


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("p, expect", EXTREME_ROWS)
def test_extreme_rows_give_values_not_exceptions(p, expect, order):
    x = np.linspace(0.5, 3.0, 20)
    normal = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = kernel(p, x, order)
        ref = kernel(normal, x, order)
        batched = kernel(np.array([as_row(normal), as_row(p), as_row(normal)]), np.tile(x, (3, 1)), order)
    for i, one in enumerate([ref, alone, ref]):
        assert all(same(b[i], o) for b, o in zip(batched, one))
    ll, g, h = (*alone, None)[:3]
    if expect == "sentinels":
        assert ll == -np.inf and np.all(np.isnan(g)) and (h is None or np.all(np.isnan(h)))
        return
    assert math.isfinite(ll) and np.all(np.isfinite(g))
    if h is not None:
        finite = np.isfinite(h)
        if expect == "sigma_sigma_inf":
            assert h[1, 1] == -np.inf
            finite[1, 1] = True
        assert finite.all()
