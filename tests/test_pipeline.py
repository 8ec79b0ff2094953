import io
import math
import os
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bgev import (
    BgevParams,
    BlockMaxima,
    InfeasibleStartError,
    InputDataError,
    block_maxima,
    cdf,
    default_start,
    emit_plot_data,
    fit_and_compare,
    fit_mle,
    ingest,
    SeriesFile,
    sample,
    standardize,
)
from bgev import pipeline
from bgev.data import bundled_path
from bgev.pipeline import START_PRESETS, comparison_to_csv, comparison_to_text


# ----------------------------------------------------------------------- ingest


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_ingest_two_column_csv(tmp_path):
    rows = "\n".join(f"{i},{i * 1.5}" for i in range(10))
    f = write(tmp_path, "a.csv", "time,value\n" + rows + "\n")
    s = ingest(f)
    assert len(s.values) == 10
    assert s.value_column == "value" and s.time_column == "time"
    assert s.values[3] == pytest.approx(4.5)


def test_ingest_skip_policy_counts_blanks(tmp_path):
    body = "t,v\n" + "\n".join(
        f"{i},{v}" for i, v in enumerate(["1", "2", "", "4", "x", "6", "7", "8", "9", "10"])
    )
    s = ingest(write(tmp_path, "b.csv", body + "\n"))
    assert len(s.values) == 8
    assert s.skipped == 2


def test_ingest_fail_policy_raises(tmp_path):
    f = write(tmp_path, "c.csv", "t,v\n1,1\n2,\n")
    with pytest.raises(InputDataError):
        ingest(f, missing="fail")


def test_ingest_non_finite_values_are_missing(tmp_path):
    body = "t,v\n1,1\n\n2,nan\n3,inf\n4,-Infinity\n5,5\n"
    s = ingest(write(tmp_path, "nf.csv", body))
    assert s.values.tolist() == [1.0, 5.0]
    assert s.skipped == 3
    # the blank line 3 still counts toward the reported line number
    with pytest.raises(InputDataError, match=r"nf\.csv:4: value 'nan'"):
        ingest(tmp_path / "nf.csv", missing="fail")


def test_ingest_headerless_first_row_with_nan(tmp_path):
    # nan parses as a number, so a first row "1,nan" is data, not a header
    s = ingest(write(tmp_path, "hn.csv", "1,nan\n2,2.5\n3,3.5\n"))
    assert s.time_column == "0" and s.value_column == "1"
    assert s.values.tolist() == [2.5, 3.5]
    assert s.skipped == 1


def test_ingest_single_column_headerless(tmp_path):
    f = write(tmp_path, "d.csv", "1.5\n2.5\n3.5\n")
    s = ingest(f)
    assert np.allclose(s.values, [1.5, 2.5, 3.5])
    assert s.time_column is None
    assert s.rows.tolist() == [0, 1, 2]


def test_ingest_tab_delimited(tmp_path):
    f = write(tmp_path, "e.tsv", "time\tvalue\n1\t10\n2\t20\n")
    s = ingest(f)
    assert np.allclose(s.values, [10.0, 20.0])


def test_ingest_tab_delimited_after_blank_line(tmp_path):
    f = write(tmp_path, "eb.tsv", "\ntime\tvalue\n1\t10\n2\t20\n")
    s = ingest(f)
    assert s.value_column == "value" and s.values.tolist() == [10.0, 20.0]


def test_ingest_non_utf8_names_the_file(tmp_path):
    f = tmp_path / "latin1.csv"
    f.write_bytes("t,v\n1,2\n2,3 \u00b0C\n".encode("latin-1"))
    with pytest.raises(InputDataError, match=r"latin1\.csv: not UTF-8"):
        ingest(f)


def test_ingest_column_selectors(tmp_path):
    f = write(tmp_path, "f.csv", "a,b,c\n1,10,100\n2,20,200\n")
    assert np.allclose(ingest(f, value_column="b").values, [10, 20])
    assert np.allclose(ingest(f, value_column=0).values, [1, 2])
    with pytest.raises(InputDataError):
        ingest(f, value_column="nope")


def test_ingest_rejects_decreasing_numeric_timestamps(tmp_path):
    f = write(tmp_path, "g.csv", "t,v\n2,1\n1,2\n")
    with pytest.raises(InputDataError):
        ingest(f)


@pytest.mark.parametrize("times", ["inf,inf", "-inf,-inf", "inf,1"])
def test_ingest_rejects_repeated_infinite_timestamps(tmp_path, times):
    t0, t1 = times.split(",")
    f = write(tmp_path, "g.csv", f"t,v\n{t0},1\n{t1},2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputDataError, match="not strictly increasing"):
            ingest(f)


def test_ingest_missing_file():
    with pytest.raises(InputDataError):
        ingest("/no/such/file.csv")


def test_ingest_empty_file(tmp_path):
    f = write(tmp_path, "empty.csv", "")
    with pytest.raises(InputDataError, match="empty"):
        ingest(f)


def test_ingest_all_missing(tmp_path):
    f = write(tmp_path, "h.csv", "t,v\n1,\n2,\n")
    with pytest.raises(InputDataError):
        ingest(f)


def spy_row_parser(monkeypatch) -> list:
    """Record every call ``ingest`` makes to the row parser."""
    calls = []
    real = pipeline._ingest_rows

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "_ingest_rows", spy)
    return calls


def test_ingest_reads_plain_files_column_wise(tmp_path, monkeypatch):
    cases = [
        (bundled_path("bimodal"), {}),
        (write(tmp_path, "tab.tsv", "\n\ntime\tvalue\n1\t10\n\n2\t-2.5e3\n\n"), {}),
        (write(tmp_path, "one.csv", "1.5\n2.5\n 3.5\xa0"), {}),
        # the time column right of the value column, and a third column
        (write(tmp_path, "three.csv", "v,t,x\n1,10,a\n2,20,b\n"), {"value_column": "v", "time_column": "t"}),
    ]
    calls = spy_row_parser(monkeypatch)
    series = [ingest(f, **kw) for f, kw in cases]
    assert calls == []
    assert series[1].rows.tolist() == [0, 1] and series[1].values.tolist() == [10.0, -2500.0]
    assert series[2].values.tolist() == [1.5, 2.5, 3.5]
    assert series[3].values.tolist() == [1.0, 2.0] and series[3].time_column == "t"


def spy_loadtxt(monkeypatch, paths=True) -> list:
    """Record whether each ``np.loadtxt`` call reads a file by its path or
    a text already read; with paths=False a path fails the test at once."""
    calls = []
    real = np.loadtxt

    def spy(fname, *args, **kwargs):
        assert paths or isinstance(fname, io.StringIO), "loadtxt was handed a path"
        calls.append("text" if isinstance(fname, io.StringIO) else "path")
        return real(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


def test_ingest_reads_a_regular_file_by_its_path(tmp_path, monkeypatch):
    loads = spy_loadtxt(monkeypatch)
    plain = write(tmp_path, "plain.csv", "\n\nt,v\n1,1.5\n\n2,2.5\n")
    filled = write(tmp_path, "filled.csv", "t,v\n1,1.5\n2,NA\n3,2.5\n")
    series = [ingest(f) for f in (bundled_path("bimodal"), plain, filled)]
    assert loads == ["path", "path", "text"]  # a body with a filled-in field is parsed from its text
    assert series[1].values.tolist() == [1.5, 2.5] and series[1].rows.tolist() == [0, 1]
    assert series[2].values.tolist() == [1.5, 2.5] and series[2].rows.tolist() == [0, 2]


@pytest.mark.parametrize("block", [1, pipeline._SCAN_CHARS], ids=["block-per-line", "one-block"])
@pytest.mark.parametrize("end", ["", "\n"], ids=["no-newline", "newline"])
@pytest.mark.parametrize("marker", ["NA", "#N/A"])
def test_ingest_reads_a_marker_ending_a_block_column_wise(tmp_path, monkeypatch, marker, end, block):
    # the last field of the text, and with a block per line the last field of every block
    monkeypatch.setattr(pipeline, "_SCAN_CHARS", block)
    f = write(tmp_path, "end.csv", f"t,v\n1,1.5\n2,{marker}\n3,2.5\n4,{marker}{end}")
    calls, loads = spy_row_parser(monkeypatch), spy_loadtxt(monkeypatch)
    s = ingest(f)
    assert calls == [] and loads == ["text"]
    assert s.values.tolist() == [1.5, 2.5] and s.rows.tolist() == [0, 2] and s.skipped == 2


def test_ingest_reads_a_text_column_full_of_n_column_wise(tmp_path, monkeypatch):
    # an "N" on every row and no marker: nothing is filled in
    f = write(tmp_path, "station.csv", "hour,value,station\n" + "".join(f"{i},{i % 7}.5,NORTH\n" for i in range(60)))
    calls, loads = spy_row_parser(monkeypatch), spy_loadtxt(monkeypatch)
    s = ingest(f, value_column="value")
    assert calls == [] and loads == ["path"]
    ref = pipeline._ingest_rows(f, *pipeline._read(f)[:2], "value", None, "skip")
    assert (s.rows.tolist(), s.values.tobytes(), s.time_column) == (ref.rows.tolist(), ref.values.tobytes(), "hour")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_ingest_reads_a_fifo_from_its_text(tmp_path, monkeypatch):
    fifo = tmp_path / "series.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_text, args=("t,v\n1,1.5\n2,2.5\n3,-1\n",), kwargs={"encoding": "utf-8"}, daemon=True
    )
    writer.start()
    loads = spy_loadtxt(monkeypatch, paths=False)  # a second open of the pipe would wait forever
    s = ingest(fifo)
    writer.join(timeout=10)
    assert loads == ["text"]
    assert s.values.tolist() == [1.5, 2.5, -1.0] and s.time_column == "t"


def test_ingest_parses_the_text_read_when_the_file_changes(tmp_path, monkeypatch):
    f = write(tmp_path, "moving.csv", "t,v\n1,1\n2,2\n3,3\n")
    real = pipeline._read

    def read_then_rewrite(path):
        out = real(path)
        write(tmp_path, "moving.csv", "t,v\n1,10\n2,20\n3,30\n4,40\n")
        return out

    monkeypatch.setattr(pipeline, "_read", read_then_rewrite)
    loads = spy_loadtxt(monkeypatch)
    s = ingest(f)
    assert loads == ["path", "text"]  # the file was read, then found changed
    assert s.values.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "body, value_column",
    [
        pytest.param("t,v\n1,1\n2,\n3,3\n", None, id="blank-value"),
        pytest.param("t,v\n1,1\n\n2,nan\n3,-inf\n4,1e400\n5,5", None, id="non-finite-values"),
        pytest.param(",\n1,,2\n\n,,\n3,4,5,\n", None, id="empty-fields-everywhere"),
        pytest.param("t\tv\n1\t\n\t\n3\t3\n", None, id="tab-blank-time-in-skipped-row"),
        pytest.param("t,x,v\n1,,1\n2,,2\n", None, id="blank-unused-column"),
        pytest.param("t,a,v,b\n1,,,1\n2,2,2,2\n", "v", id="run-of-empty-fields"),
        pytest.param("t,v\n1,1\n,nan\n3,3\n", None, id="only-empty-field-first-on-its-line"),
        pytest.param("t,v\n1,1\n2,NA\n3,3\n", None, id="NA-value"),
        pytest.param("NA,#N/A\n1,NA\n#N/A,#N/A\n3,#N/A\n4,4\n", None, id="NA-and-#N/A-fields"),
        pytest.param("v\nNA\nNA\n1\nNA\n#N/A\nNAN\n", None, id="single-column-markers"),
        pytest.param("t\tv\n1\tNA\n2\t2\n3\t#N/A\n", None, id="tab-markers"),
    ],
)
def test_ingest_skips_missing_values_column_wise(tmp_path, monkeypatch, body, value_column):
    f = write(tmp_path, "gaps.csv", body)
    calls = spy_row_parser(monkeypatch)
    s = ingest(f, value_column=value_column)
    assert calls == []
    ref = pipeline._ingest_rows(f, *pipeline._read(f)[:2], value_column, None, "skip")
    assert (s.rows.tolist(), s.values.tobytes(), s.skipped) == (ref.rows.tolist(), ref.values.tobytes(), ref.skipped)


@pytest.mark.parametrize(
    "body, missing",
    [
        pytest.param('t,v\n1,"2"\n2,3\n', "skip", id="quoted-value"),
        pytest.param('t,note,v\n1,"x,2\n3,y",4\n', "skip", id="quoted-note-spanning-lines"),  # one row for csv
        pytest.param("t,v\n2024-01-01T00,1\n2024-01-01T01,2\n", "skip", id="iso-timestamps"),
        pytest.param("t,v\n1,1\n2,NAN?\n3,3\n", "skip", id="non-numeric-value"),
        pytest.param("t,v\n1,1\n2,NA\n3,3\n", "fail", id="NA-value-under-fail"),
        pytest.param("t,v\n1,1\n,2\n3,3\n", "skip", id="blank-time-of-a-kept-value"),  # no order check
        pytest.param("t,v\n1,1\n2,\n3,3\n", "fail", id="blank-value-under-fail"),
        pytest.param("t,v\n1,1\n2,nan\n3,3\n", "fail", id="non-finite-value-under-fail"),
        pytest.param("t,v\n1,1_000\n2,2\n", "skip", id="python-only-spelling"),  # float() takes it, loadtxt does not
        pytest.param("t,v\n1,1\n \n2,2\n", "skip", id="whitespace-only-line"),
        pytest.param("t,v\n1,1\n2\n3,3\n", "skip", id="short-row"),
        pytest.param("t,note,v\n1,x,1\n2," + "y" * 131_073 + ",2\n", "skip", id="over-csv-field-limit"),
    ],
)
def test_ingest_falls_back_to_row_parser(tmp_path, monkeypatch, body, missing):
    f = write(tmp_path, "fb.csv", body)
    calls = spy_row_parser(monkeypatch)
    try:
        s = ingest(f, missing=missing)
    except InputDataError as exc:
        assert "field larger than field limit" in str(exc) or str(exc).startswith(f"{f}:3: value ")
        s = None
    assert len(calls) == 1
    if s is not None:
        ref = pipeline._ingest_rows(f, *pipeline._read(f)[:2], None, None, missing)
        assert (s.rows.tolist(), s.values.tolist(), s.skipped) == (ref.rows.tolist(), ref.values.tolist(), ref.skipped)


# ----------------------------------------------------------------------- blocks


def test_block_maxima_basic():
    b = block_maxima(np.arange(1.0, 49.0), 24)
    assert np.allclose(b.maxima, [24.0, 48.0])
    assert b.dropped == 0


def test_block_maxima_block_one_is_identity():
    x = np.array([3.0, 1.0, 2.0])
    b = block_maxima(x, 1)
    assert np.array_equal(b.maxima, x)


def test_block_maxima_drops_partial_tail():
    b = block_maxima(np.arange(50.0), 24)
    assert len(b.maxima) == 2
    assert b.dropped == 2


def test_block_maxima_skipped_row_keeps_blocks_aligned(tmp_path):
    # 48 hourly rows valued 0..47, hour 24 = 100, hour 5 blank: day one's
    # peak is hour 23, day two's is hour 24
    vals = [str(float(h)) for h in range(48)]
    vals[24], vals[5] = "100", ""
    s = ingest(write(tmp_path, "gap.csv", "t,v\n" + "".join(f"{h},{v}\n" for h, v in enumerate(vals))))
    assert s.skipped == 1 and s.rows[4:6].tolist() == [4, 6]
    b = block_maxima(s, 24)
    assert b.maxima.tolist() == [23.0, 100.0]
    assert b.dropped == 0


def test_block_maxima_block_without_values(tmp_path):
    body = "t,v\n" + "".join(f"{h},{'' if 3 <= h < 6 else h}\n" for h in range(9))
    s = ingest(write(tmp_path, "hole.csv", body))
    with pytest.raises(InputDataError, match=r"block 1 \(data rows 3-5\) holds no value"):
        block_maxima(s, 3)
    b = block_maxima(s, 4)
    assert b.maxima.tolist() == [2.0, 7.0] and b.dropped == 1


@pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
def test_block_maxima_rejects_non_finite_values(bad):
    # -inf once read as an empty row, so a block of it "held no value", and
    # nan gave a nan maximum
    x = np.arange(12.0)
    x[[3, 4, 5, 9]] = bad
    with pytest.raises(InputDataError, match=r"^4 of the series' 12 values are not finite \(nan or inf\)$"):
        block_maxima(x, 3)
    s = SeriesFile(rows=np.arange(12), values=x, path="x", time_column=None, value_column="v", skipped=0)
    with pytest.raises(InputDataError, match="4 of the series' 12 values are not finite"):
        block_maxima(s, 3)


def test_block_maxima_too_short():
    with pytest.raises(InputDataError):
        block_maxima(np.arange(5.0), 24)


# ----------------------------------------------------------------------- standardize


def test_standardize_hand_case():
    b = block_maxima(np.array([0.0, 2.0]), 1)
    z = standardize(b)
    assert z.maxima == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert z.mean == pytest.approx(1.0) and z.sd == pytest.approx(math.sqrt(2))
    assert z.standardized


def test_standardize_exactness_and_idempotence(rng):
    b = block_maxima(rng.normal(3.0, 2.0, size=240), 24)
    z = standardize(b)
    assert abs(float(np.mean(z.maxima))) < 1e-12
    assert abs(float(np.std(z.maxima, ddof=1)) - 1.0) < 1e-12
    z2 = standardize(z)
    assert np.allclose(z2.maxima, z.maxima, atol=1e-12)
    # metadata lets callers map fitted quantiles back to the raw scale
    back = z.maxima * z.sd + z.mean
    assert np.allclose(back, b.maxima, rtol=1e-12)


def test_standardize_constant_rejected():
    with pytest.raises(InputDataError):
        standardize(block_maxima(np.ones(48), 24))


@pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
def test_standardize_names_non_finite_maxima(bad):
    # not "the spread of the block maxima overflows a float"
    b = BlockMaxima(block_size=1, maxima=np.array([0.0, bad, 1.0, bad]))
    with pytest.raises(InputDataError, match=r"^cannot standardize: 2 of the 4 block maxima are not finite$"):
        standardize(b)


# ----------------------------------------------------------------------- comparison


@pytest.fixture(scope="module")
def bimodal_fit():
    gen = BgevParams(xi=-0.25, mu=-0.36, sigma=1.0, delta=2.0)
    maxima = sample(365, gen, seed=88)
    b = standardize(block_maxima(maxima, 1))
    return fit_and_compare(b), b


def test_bimodal_data_prefers_bgev(bimodal_fit):
    rep, _ = bimodal_fit
    assert rep.bgev.converged and rep.gev.converged
    assert rep.bgev.neg2loglik <= rep.gev.neg2loglik + 1e-6
    assert rep.bgev.ks < rep.gev.ks
    assert rep.winner["neg2loglik"] == "BGEV"


def test_gev_data_yields_small_delta():
    gen = BgevParams(xi=0.3, mu=0.5, sigma=1.0, delta=0.0)
    b = block_maxima(sample(400, gen, seed=91), 1)
    rep = fit_and_compare(b)
    assert abs(rep.bgev.delta) < 0.35
    assert rep.bgev.neg2loglik <= rep.gev.neg2loglik + 1e-6
    assert rep.gev.neg2loglik - rep.bgev.neg2loglik < 6.0  # nested, no real gain


def test_report_shape(bimodal_fit):
    rep, _ = bimodal_fit
    assert rep.gev.delta == 0.0
    for row in (rep.bgev, rep.gev):
        for stat in ("ks", "ad", "neg2loglik"):
            assert np.isfinite(getattr(row, stat))
    assert set(rep.winner) == {"ks", "ad", "neg2loglik"}
    text = comparison_to_text(rep)
    assert "BGEV" in text and "GEV" in text
    csv_text = comparison_to_csv(rep)
    assert csv_text.splitlines()[0] == "model,mu,sigma,xi,delta,ks,ad,neg2loglik,converged"
    assert len(csv_text.splitlines()) == 3


def test_nesting_on_bundled_data():
    s = ingest(bundled_path("bimodal"))
    b = standardize(block_maxima(s, 24))
    rep = fit_and_compare(b, bgev_start=START_PRESETS["wind"])
    assert rep.bgev.neg2loglik <= rep.gev.neg2loglik + 1e-6
    assert rep.bgev.ks < rep.gev.ks


@pytest.mark.parametrize("scale", [None, 1e3], ids=["standardized", "times_1e3"])
def test_bgev_row_is_the_better_of_two_separate_fits(monkeypatch, scale):
    # the BGEV fit is one fit_mle_rows call from default_start and the GEV
    # optimum, and its row is bitwise the better of the two fits made
    # alone.  On the unstandardized maxima times 1e3 default_start finds
    # no feasible start, and the GEV optimum is fitted alone
    b = block_maxima(ingest(bundled_path("bimodal")), 24)
    b = standardize(b) if scale is None else replace(b, maxima=scale * b.maxima)
    x = b.maxima
    gev = fit_mle(x, pipeline._gev_moment_start(x), {"delta": 0.0})
    alone = [fit_mle(x, gev.theta_hat)]
    if scale is None:
        alone.insert(0, fit_mle(x, default_start(x)))
    else:
        with pytest.raises(InfeasibleStartError):
            default_start(x)
    best = min(alone, key=lambda r: r.neg2loglik)
    calls = []
    real = pipeline.fit_mle_rows

    def spy(x, starts, fixed=None):
        calls.append(len(starts))
        return real(x, starts, fixed)

    monkeypatch.setattr(pipeline, "fit_mle_rows", spy)
    rep = fit_and_compare(b)
    assert calls == [len(alone)]
    assert rep.bgev.params_internal == best.theta_hat and rep.bgev.neg2loglik == best.neg2loglik
    assert rep.bgev.converged == best.converged and rep.gev.params_internal == gev.theta_hat


# ----------------------------------------------------------------------- plot data


def test_emit_plot_data_files(tmp_path, bimodal_fit):
    rep, b = bimodal_fit
    paths = emit_plot_data(rep, b, tmp_path)
    names = {p.name for p in paths}
    assert names == {"histogram.csv", "density.csv", "qq_bgev.csv", "qq_gev.csv"}

    dens = np.genfromtxt(tmp_path / "density.csv", delimiter=",", names=True)
    grid, pdf_b = dens["x"], dens["pdf_bgev"]
    mass_curve = np.trapezoid(pdf_b, grid)
    mass_model = float(cdf(grid[-1], rep.bgev.params_internal)) - float(
        cdf(grid[0], rep.bgev.params_internal)
    )
    assert abs(mass_curve - mass_model) < 0.01

    qq = np.genfromtxt(tmp_path / "qq_bgev.csv", delimiter=",", names=True)
    assert qq.shape[0] == b.maxima.size

    hist = np.genfromtxt(tmp_path / "histogram.csv", delimiter=",", names=True)
    assert int(hist["count"].sum()) == b.maxima.size


def test_emit_plot_data_deterministic(tmp_path, bimodal_fit):
    rep, b = bimodal_fit
    d1, d2 = tmp_path / "one", tmp_path / "two"
    emit_plot_data(rep, b, d1, bins=20)
    emit_plot_data(rep, b, d2, bins=20)
    for name in ("histogram.csv", "density.csv", "qq_bgev.csv", "qq_gev.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
