"""Fuzz of ``ingest`` on arbitrary file contents.

Every file, whatever its bytes, either reads into a well-formed
``SeriesFile`` or raises ``InputDataError``; so does the block-maxima step
after it.  Contents are raw bytes, or text over an alphabet of digits,
delimiters, quotes, line breaks and the letters of nan/inf/e, so that
both garbage and near-valid series are drawn.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bgev import InputDataError, SeriesFile, block_maxima, ingest

FUZZ = settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

contents = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet="0123456789.,-+ \t\n\r\"vtnaifeE", max_size=300).map(lambda t: t.encode("utf-8")),
    st.tuples(st.text(alphabet="0123456789.,\n", max_size=100), st.binary(min_size=1, max_size=4)).map(
        lambda tb: tb[0].encode("utf-8") + tb[1]
    ),
)
selectors = st.sampled_from([None, 0, 1, -1, 3, "v", "t"])


@FUZZ
@given(
    data=contents,
    missing=st.sampled_from(["skip", "fail"]),
    value_column=selectors,
    time_column=selectors,
    block_size=st.integers(1, 4),
)
def test_ingest_yields_series_or_input_error(tmp_path, data, missing, value_column, time_column, block_size):
    f = tmp_path / "fuzz.csv"
    f.write_bytes(data)
    try:
        s = ingest(f, value_column=value_column, time_column=time_column, missing=missing)
    except InputDataError:
        return
    assert isinstance(s, SeriesFile)
    assert s.values.size >= 1 and np.all(np.isfinite(s.values))
    assert s.rows.size == s.values.size
    assert np.all(np.diff(s.rows) > 0) and 0 <= s.rows[0] and s.rows[-1] < s.values.size + s.skipped
    if missing == "fail":
        assert s.skipped == 0
    try:
        b = block_maxima(s, block_size)
    except InputDataError:
        return
    assert b.maxima.size == (s.values.size + s.skipped) // block_size
    assert np.all(np.isfinite(b.maxima))
