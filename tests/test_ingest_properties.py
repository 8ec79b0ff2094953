"""Fuzz of ``ingest`` on arbitrary file contents.

Every file, whatever its bytes, either reads into a well-formed
``SeriesFile`` or raises ``InputDataError``; so does the block-maxima step
after it.  Contents are raw bytes, or text over an alphabet of digits,
delimiters, quotes, line breaks and the letters of nan/inf/e, so that
both garbage and near-valid series are drawn.

``ingest`` reads most files by one ``np.loadtxt`` call and hands the rest
to the row parser ``_ingest_rows``; on any file the two agree exactly.
That call reads a regular file itself, and any other input from the text
already read; the two routes agree exactly as well.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bgev import InputDataError, SeriesFile, block_maxima, ingest, pipeline
from bgev.pipeline import _ingest_rows, _read

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


def outcome(parse):
    """Everything a caller can see of a parse: the SeriesFile, with the
    values as bytes, or the InputDataError message."""
    try:
        s = parse()
    except InputDataError as exc:
        return ("error", str(exc))
    return (s.rows.dtype, s.rows.tolist(), s.values.tobytes(), s.skipped, s.path, s.time_column, s.value_column)


# Python-only float spellings (underscores, unicode digits), spaces that
# float() and str.strip() take (no-break, separators), quotes, NUL and the
# missing-value markers the fast path reads as nan
odd_tokens = st.sampled_from(
    ["", " ", " 1", "2 ", "\xa03", "1_000", "\u0663", '"4"', "'5'", "nan", "-inf", "1e400", "x", "0x1", "1.", ".5",
     "+1", "-0", "1e-400", "5\x1c", "6\u2028", "\x00", "1,5", "1\t5", "NA", "#N/A", " NA", "NaN", "N"]
)
number_tokens = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: f"{v:.6g}"),
)


@st.composite
def tables(draw):
    """Near-valid series files: a time column stepping by 1 (or, rarely,
    not increasing), value columns of numbers with odd tokens mixed in,
    an optional header, blank lines and short rows."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    ncol = draw(st.integers(1, 3))
    step = draw(st.sampled_from([1, 1, 1, 0, -1]))
    cell = st.one_of(number_tokens, number_tokens, number_tokens, odd_tokens)
    lines = []
    if draw(st.booleans()):
        lines.append(delimiter.join(draw(st.sampled_from(["t", "v", "x", "1", " v "])) for _ in range(ncol)))
    for i in range(draw(st.integers(1, 12))):
        row = [str(i * step)] + [draw(cell) for _ in range(ncol - 1)] if ncol > 1 else [draw(cell)]
        if draw(st.integers(0, 9)) == 0:
            row = row[: draw(st.integers(0, len(row)))]
        lines.append(delimiter.join(row))
        lines.extend([""] * draw(st.integers(0, 1)))
    return ("\n" * draw(st.integers(0, 2)) + "\n".join(lines) + draw(st.sampled_from(["", "\n"]))).encode("utf-8")


text_contents = st.text(alphabet="0123456789.,-+ \t\n\r\"'_\xa0\x00vtnaifeE", max_size=300).map(
    lambda t: t.encode("utf-8")
)


@FUZZ
@given(
    data=st.one_of(text_contents, tables()),
    missing=st.sampled_from(["skip", "fail"]),
    # default columns more often, so that more files reach np.loadtxt
    value_column=st.one_of(st.none(), selectors),
    time_column=st.one_of(st.none(), selectors),
)
def test_fast_path_equals_row_parser(tmp_path, data, missing, value_column, time_column):
    f = tmp_path / "diff.csv"
    f.write_bytes(data)
    kw = dict(value_column=value_column, time_column=time_column, missing=missing)
    assert outcome(lambda: ingest(f, **kw)) == outcome(lambda: _ingest_rows(f, *_read(f)[:2], **kw))


@FUZZ
@given(
    data=st.one_of(contents, text_contents, tables()),
    missing=st.sampled_from(["skip", "fail"]),
    value_column=st.one_of(st.none(), selectors),
    time_column=st.one_of(st.none(), selectors),
)
def test_file_route_equals_text_route(tmp_path, monkeypatch, data, missing, value_column, time_column):
    # the same outcome, and the row parser called on the same files
    f = tmp_path / "route.csv"
    f.write_bytes(data)
    kw = dict(value_column=value_column, time_column=time_column, missing=missing)
    parsed = []
    monkeypatch.setattr(pipeline, "_ingest_rows", lambda *a, **k: parsed.append(1) or _ingest_rows(*a, **k))
    by_file = outcome(lambda: ingest(f, **kw)), len(parsed)
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_stamp", lambda st: None)  # no file counts as a regular one
        by_text = outcome(lambda: ingest(f, **kw)), len(parsed) - by_file[1]
    assert by_file == by_text


def fill_line_by_line(body: str, delimiter: str) -> str:
    """The missing-field rule read plainly: each whole ``NA`` or ``#N/A``
    field, and in every line that holds the delimiter each empty field,
    becomes "nan"."""
    def fill(field: str, line: str) -> str:
        return "nan" if field in ("NA", "#N/A") or not field and delimiter in line else field

    return "\n".join(delimiter.join(fill(f, ln) for f in ln.split(delimiter)) for ln in body.split("\n"))


@FUZZ
@given(
    # markers, their parts and near misses among empty fields and text
    body=st.lists(st.sampled_from([",", "\t", "\n", "x", "\xe9", "N", "A", "#", "/", "NA", "#N/A"]), max_size=40).map(
        "".join
    ),
    header=st.sampled_from(["", "t,v\n", "\n\n", "NA,#N/A\n"]),
    block=st.sampled_from([1, 2, 3, 5, pipeline._SCAN_CHARS]),
    delimiter=st.sampled_from([",", "\t"]),
)
def test_missing_field_scan_in_blocks_equals_line_by_line(monkeypatch, body, header, block, delimiter):
    monkeypatch.setattr(pipeline, "_SCAN_CHARS", block)
    filled = pipeline._fill_missing(header + body, len(header), delimiter)
    expected = fill_line_by_line(body, delimiter)
    if filled is None:
        assert body == expected
    else:
        assert filled == expected != body
