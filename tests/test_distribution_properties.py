"""Property tests of the distribution functions over the admissible space.

Parameters range over both signs of xi with 1e-3 <= |xi| <= 3,
-1 < delta <= 5, 1e-2 <= sigma <= 1e2 and -5 <= mu <= 5.  Each case
evaluates three points: one inside the support at a cdf level in
[1e-12, 1 - 1e-12], one on either side of the finite support endpoint at a
distance between 1e-12 and 1e3, and one anywhere in [-1e6, 1e6].
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bgev import BgevParams, cdf, quantile, sf, support

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
