import io
import math
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgev.cli import main
from bgev.data import bundled_path
from bgev.pipeline import START_PRESETS
from tests.conftest import child_env


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


PARAMS = ["--xi", "1", "--mu", "0", "--sigma", "1", "--delta", "0"]


def test_eval_values(capsys):
    rc, out, _ = run_cli(["eval", *PARAMS, "--x", "0", "--q", "0.5"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,pdf,cdf"
    x, p, c = (float(v) for v in lines[1].split(","))
    assert p == pytest.approx(math.exp(-1)) and c == pytest.approx(math.exp(-1))
    assert lines[2] == "q,quantile"
    assert float(lines[3].split(",")[1]) == pytest.approx(1 / math.log(2) - 1)


def test_eval_requires_something(capsys):
    rc, _, err = run_cli(["eval", *PARAMS], capsys)
    assert rc == 2 and "nothing to evaluate" in err


def test_eval_rejects_bad_params(capsys):
    rc, _, err = run_cli(
        ["eval", "--xi", "0", "--mu", "0", "--sigma", "1", "--delta", "0", "--x", "1"], capsys
    )
    assert rc == 2 and "xi" in err


def test_eval_far_tail_stderr_is_empty():
    # a real child process, so numpy's RuntimeWarnings would reach stderr
    argv = ["eval", "--xi", "-0.25", "--mu", "-0.36", "--sigma", "1", "--delta", "2", "--x", "1e300"]
    res = subprocess.run([sys.executable, "-m", "bgev.cli", *argv], capture_output=True, text=True, env=child_env())
    assert res.returncode == 0 and res.stderr == ""
    assert res.stdout == "x,pdf,cdf\n1.0000000000000001e+300,0,1\n"


def test_sample_deterministic_bytes(capsys):
    argv = ["sample", "--xi", "0.5", "--mu", "0", "--sigma", "1", "--delta", "2", "-n", "5", "--seed", "9"]
    rc1, out1, _ = run_cli(argv, capsys)
    rc2, out2, _ = run_cli(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 5


def test_sample_to_file(tmp_path, capsys):
    out_file = tmp_path / "draws.txt"
    rc, _, _ = run_cli(
        ["sample", "--xi", "0.5", "--mu", "0", "--sigma", "1", "--delta", "2", "-n", "4", "--seed", "1", "--out", str(out_file)],
        capsys,
    )
    assert rc == 0
    assert len(out_file.read_text().splitlines()) == 4


def test_gof_on_generated_sample(tmp_path, capsys):
    from bgev import BgevParams, sample

    p = BgevParams(xi=0.5, mu=0.0, sigma=1.0, delta=2.0)
    f = tmp_path / "sample.csv"
    f.write_text("value\n" + "\n".join(f"{v:.17g}" for v in sample(500, p, seed=3)) + "\n")
    rc, out, _ = run_cli(
        ["gof", "--input", str(f), "--xi", "0.5", "--mu", "0", "--sigma", "1", "--delta", "2"],
        capsys,
    )
    assert rc == 0
    fields = dict(line.split(",") for line in out.splitlines())
    assert float(fields["ks"]) < 0.08
    assert float(fields["ljung_box_p_value"]) > 0.001
    assert fields["n"] == "500"


def test_fit_bundled_bimodal(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc, out, _ = run_cli(
        ["fit", "--input", "bundled:bimodal", "--out-dir", str(out_dir)], capsys
    )
    assert rc == 0
    assert "BGEV" in out and "GEV" in out
    for name in ("report.txt", "comparison.csv", "histogram.csv", "density.csv", "qq_bgev.csv", "qq_gev.csv"):
        assert (out_dir / name).exists(), name


def test_fit_deterministic_outputs(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        rc, _, _ = run_cli(["fit", "--input", "bundled:bimodal", "--out-dir", str(d)], capsys)
        assert rc == 0
    for name in ("report.txt", "comparison.csv", "histogram.csv", "density.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_fit_no_standardize_flag(tmp_path, capsys):
    out_dir = tmp_path / "raw"
    rc, out, _ = run_cli(
        ["fit", "--input", "bundled:bimodal", "--no-standardize", "--out-dir", str(out_dir)],
        capsys,
    )
    assert rc == 0
    assert "standardized,False" in out


@pytest.mark.parametrize("days, lags", [(14, "6"), (21, "10")])
def test_ljung_box_lags_lowered_on_a_short_series(tmp_path, capsys, days, lags):
    # 10 lags need n >= 21; a shorter series of 8 or more blocks is still
    # fitted, with the lags lowered to the most below n/2 and a note
    hourly = bundled_path("bimodal").read_text(encoding="utf-8").splitlines(keepends=True)
    series = tmp_path / "days.csv"
    series.write_text("".join(hourly[: 1 + 24 * days]), encoding="utf-8")
    values = tmp_path / "values.csv"
    values.write_text("".join(line.split(",")[1] for line in hourly[1 : 1 + days]), encoding="utf-8")
    note = f"note: Ljung-Box lags lowered from 10 to {lags}, the most below n/2 for n = {days}\n"
    expect_note = note if lags != "10" else ""
    rc, out, err = run_cli(["fit", "--input", str(series), "--out-dir", str(tmp_path / "out")], capsys)
    assert rc == 0 and err == expect_note and out.startswith(f"blocks,{days}\n")
    rc, out, err = run_cli(["gof", "--input", str(values), "--xi", "-0.25", "--mu", "-0.36", "--sigma", "1", "--delta", "2"], capsys)
    assert rc == 0 and err == expect_note and f"ljung_box_lags,{lags}\n" in out


def test_fit_missing_file(capsys):
    rc, _, err = run_cli(["fit", "--input", "/does/not/exist.csv"], capsys)
    assert rc == 2 and "error" in err


@pytest.mark.parametrize("command", [["fit", "--out-dir", "out"], ["gof", *PARAMS]])
def test_empty_input_exits_2_without_traceback(tmp_path, command):
    # a real child process, so an escaping exception would show as a traceback
    (tmp_path / "empty.csv").write_text("")
    res = subprocess.run(
        [sys.executable, "-m", "bgev.cli", *command, "--input", "empty.csv"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert res.returncode == 2
    assert "empty" in res.stderr and "Traceback" not in res.stderr


def test_fit_missing_fail_on_non_finite_value(tmp_path):
    rows = "".join(f"{i},{'nan' if i == 30 else 1.0 + (i * 7) % 11}\n" for i in range(48))
    (tmp_path / "nf.csv").write_text("t,v\n" + rows)
    res = subprocess.run(
        [sys.executable, "-m", "bgev.cli", "fit", "--input", "nf.csv", "--missing", "fail"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert res.returncode == 2
    assert "nf.csv:32" in res.stderr and "Traceback" not in res.stderr


def test_fit_overflowing_spread_exits_2_without_warnings(tmp_path):
    # one 1e300 among 2,400 readings: the sd of the daily maxima overflows
    rows = "".join(f"{i},{1e300 if i == 1000 else 1.0 + (i * 7) % 11}\n" for i in range(2400))
    (tmp_path / "big.csv").write_text("t,v\n" + rows)
    res = subprocess.run(
        [sys.executable, "-m", "bgev.cli", "fit", "--input", "big.csv"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert res.returncode == 2
    assert res.stderr == "error: cannot standardize: the spread of the block maxima overflows a float\n"


def test_fit_no_standardize_overflowing_series_exits_2_without_warnings(tmp_path):
    # unstandardized, the 1e300 maximum reaches the Ljung-Box test, whose
    # sum of squared deviations overflows
    rows = "".join(f"{i},{1e300 if i == 1000 else 1.0 + (i * 7) % 11}\n" for i in range(2400))
    (tmp_path / "big.csv").write_text("t,v\n" + rows)
    res = subprocess.run(
        [sys.executable, "-m", "bgev.cli", "fit", "--input", "big.csv", "--no-standardize"],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(),
    )
    assert res.returncode == 2
    assert res.stderr == "error: ljung_box: the spread of the series overflows a float\n"


def test_fit_unconverged_fit_without_gof_exits_3(tmp_path, capsys):
    # 300 readings in two tight clusters, fitted block by block: the BGEV
    # fit ends where no step gains (no_ascent), at an end point whose cdf
    # is 1 at the highest reading, so its KS/AD cannot be computed.  That
    # is the fit's non-convergence (exit 3), not an input error (exit 2)
    data = tmp_path / "clusters.csv"
    data.write_text("".join(f"{v!r}\n" for v in series_values("clusters", 300, 1.0, 15)), encoding="utf-8")
    argv = ["fit", "--input", str(data), "--block-size", "1", "--out-dir", str(tmp_path / "out")]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 3
    assert err == (
        "error: the BGEV fit did not converge (no_ascent) and its KS/AD cannot be computed: "
        "F(x) hit the boundary for observation x=0.9739388500449563 (rank 300, F=1.0)\n"
    )


def test_fit_far_reading_keeps_ad_finite(tmp_path, capsys):
    # 400 Cauchy readings, fitted block by block: the GEV fit converges,
    # but its cdf rounds to exactly 1 at the largest reading (sf ~ 1e-17),
    # so AD takes log sf there rather than exiting 2 as if the input were bad
    data = tmp_path / "heavy.csv"
    data.write_text("".join(f"{v!r}\n" for v in series_values("heavy", 400, 1.0, 1)), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = ["fit", "--input", str(data), "--block-size", "1", "--no-standardize", "--out-dir", str(out_dir)]
    rc, _, err = run_cli(argv, capsys)
    assert rc == 0, err
    rows = [line.split(",") for line in (out_dir / "comparison.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[-1]) for r in rows] == [("BGEV", "True"), ("GEV", "True")]
    assert all(math.isfinite(float(r[6])) for r in rows)


def test_fit_value_col_selectors(tmp_path, capsys):
    outputs = []
    for sel in ("1", "value"):
        d = tmp_path / sel
        rc, _, _ = run_cli(["fit", "--input", "bundled:bimodal", "--value-col", sel, "--out-dir", str(d)], capsys)
        assert rc == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    assert outputs[0] == outputs[1]
    for sel in ("-1", "nope"):
        rc, _, err = run_cli(["fit", "--input", "bundled:bimodal", "--value-col", sel, "--out-dir", str(tmp_path / "x")], capsys)
        assert rc == 2 and "error" in err


def test_fit_unknown_bundle(capsys):
    rc, _, err = run_cli(["fit", "--input", "bundled:mystery"], capsys)
    assert rc == 2
    assert err == "error: unknown bundled series 'mystery'; choose from ('bimodal', 'unimodal')\n"


@pytest.mark.parametrize("bins", ["0", "-3"])
def test_fit_rejects_bins_below_one_before_any_work(tmp_path, capsys, bins):
    out_dir = tmp_path / "out"
    rc, out, err = run_cli(["fit", "--input", "bundled:bimodal", "--bins", bins, "--out-dir", str(out_dir)], capsys)
    assert rc == 2 and out == ""
    assert err == f"error: --bins must be >= 1, got {bins}\n"
    assert not out_dir.exists()


def test_sim_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "suite.ini"
    cfg.write_text(
        "[cell a]\nxi = 0.5\nmu = 0\ndelta = 2\nn = 100\nm = 8\nseed = 4\n", encoding="utf-8"
    )
    out_dir = tmp_path / "simout"
    rc, out, _ = run_cli(["sim", "--config", str(cfg), "--out-dir", str(out_dir)], capsys)
    assert rc == 0
    assert (out_dir / "results.csv").exists() and (out_dir / "table.txt").exists()
    header = (out_dir / "results.csv").read_text().splitlines()[0]
    assert header.startswith("xi,mu,sigma,delta,n,m,seed,mean_xi")


def test_sim_deterministic_outputs(tmp_path, capsys):
    cfg = tmp_path / "suite.ini"
    cfg.write_text(
        "[cell a]\nxi = 0.5\nmu = 0\ndelta = 2\nn = 100\nm = 8\nseed = 4\n", encoding="utf-8"
    )
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    for d in (d1, d2):
        rc, _, _ = run_cli(["sim", "--config", str(cfg), "--out-dir", str(d)], capsys)
        assert rc == 0
    assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()
    assert (d1 / "table.txt").read_bytes() == (d2 / "table.txt").read_bytes()


def test_sim_missing_config(capsys):
    rc, _, err = run_cli(["sim", "--config", "/does/not/exist.ini"], capsys)
    assert rc == 2


@pytest.mark.parametrize(
    "body, says, names_file",
    [
        pytest.param("[cell a]\nxi = 1\n[cell a]\nxi = 2\n", "section 'cell a' already exists", True, id="duplicate-section"),
        pytest.param("[cell a]\nxi = 1\nxi = 2\n", "option 'xi' in section 'cell a' already exists", True, id="duplicate-key"),
        pytest.param("xi = 1\nmu = 0\ndelta = 0\nn = 50\n", "no section headers", True, id="no-section-header"),
        pytest.param("[cell a]\nxi = 1%\nmu = 0\ndelta = 0\nn = 50\n", "'1%'", False, id="percent-in-value"),
        pytest.param("[ ]\nxi = 1\n", "unknown section kind", False, id="blank-section-name"),
        pytest.param("[cell a]\nxi = 0.5\nmu = 0\ndelta = 2\nn = 50\nm = 2\nseed = -1\n", "seed must be >= 0", False, id="negative-seed"),
    ],
)
def test_sim_malformed_config_exits_2(tmp_path, capsys, body, says, names_file):
    cfg = tmp_path / "suite.ini"
    cfg.write_text(body, encoding="utf-8")
    rc, _, err = run_cli(["sim", "--config", str(cfg), "--out-dir", str(tmp_path / "out")], capsys)
    assert rc == 2
    assert err.startswith(f"error: {cfg}: " if names_file else "error: ")
    assert says in err and "Traceback" not in err


CELL_KEYS = {"xi": "0.5", "mu": "0", "delta": "2", "n": "50", "m": "2", "seed": "1"}


def section(header, **changes):
    keys = {**CELL_KEYS, **changes}
    return f"[{header}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)


@pytest.mark.parametrize(
    "body, says",
    [
        pytest.param(section("cell a", xi="abc"), "[cell a] xi: 'abc' is not a finite number", id="word-for-xi"),
        pytest.param(section("cell a", mu="1e999"), "[cell a] mu: '1e999' is not a finite number", id="overflow"),
        pytest.param(section("cell a", n="nan"), "[cell a] n: 'nan' is not an integer", id="nan-for-n"),
        pytest.param(section("grid g", seed="2.5"), "[grid g] seed: '2.5' is not an integer", id="float-seed"),
        pytest.param(
            section("cell a", xi="0.5, 1"), "[cell a] xi: a [cell] takes one value per key, got '0.5, 1'", id="two-in-cell"
        ),
        pytest.param(section("grid g", m="8 9"), "[grid g] m: takes one value, got '8 9'", id="two-m-in-grid"),
        pytest.param(section("grid g", delta=""), "[grid g] delta: no value", id="empty"),
        pytest.param(
            section("cell a") + section("other s1"),
            "[other s1] unknown section kind 'other' (expected 'cell ...' or 'grid ...')",
            id="unknown-kind",
        ),
        pytest.param(section("cell a", sigma="0"), "[cell a] sigma must be > 0, got 0.0", id="zero-sigma"),
        pytest.param(section("grid g", xi="1, 0"), "[grid g] xi must be nonzero", id="zero-xi"),
        pytest.param(section("cell a", n="4"), "[cell a] n must be >= 8", id="small-n"),
    ],
)
def test_sim_bad_value_names_file_section_and_key(tmp_path, capsys, body, says):
    cfg = tmp_path / "suite.ini"
    cfg.write_text(body, encoding="utf-8")
    rc, out, err = run_cli(["sim", "--config", str(cfg), "--out-dir", str(tmp_path / "out")], capsys)
    assert (rc, out, err) == (2, "", f"error: {cfg}: {says}\n")
    assert not (tmp_path / "out").exists()


# a suite file: one to three sections of small cells (m <= 3, 8 <= n <= 60),
# any of which may lose its header, repeat a name, take an unknown kind, or
# have a key dropped, repeated or given a non-numeric, zero or negative value
SUITE_VALUES = {
    "xi": st.sampled_from(["0.5", "-0.25", "1"]),
    "mu": st.sampled_from(["-1", "0", "1"]),
    "sigma": st.just("1"),
    "delta": st.sampled_from(["0", "0.5", "2", "-0.5"]),
    "n": st.integers(8, 60).map(str),
    "m": st.integers(1, 3).map(str),
    "seed": st.integers(0, 99).map(str),
}
BAD_VALUES = st.sampled_from(["abc", "", "0", "-1", "-2.5", "nan", "1e999", "8 9"])


@st.composite
def suite_texts(draw) -> str:
    lines = []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["cell"] * 4 + ["grid", "", "other"]))
        if not (k == 0 and draw(st.integers(0, 5)) == 0):  # sometimes no header at all
            lines.append(f"[{kind} {draw(st.sampled_from([f's{k}'] * 3 + ['s0', '']))}]")
        entries = {key: draw(values) for key, values in SUITE_VALUES.items()}
        if kind == "grid":
            entries["n"] += f", {draw(SUITE_VALUES['n'])}"
        if draw(st.integers(0, 2)) == 0:  # break one key
            key, how = draw(st.sampled_from(list(entries))), draw(st.sampled_from(["bad", "drop", "repeat"]))
            if how == "drop":
                del entries[key]
            elif how == "bad":
                entries[key] = draw(BAD_VALUES)
            else:
                lines.append(f"{key} = {entries[key]}")
        lines += [f"{key} = {value}" for key, value in entries.items()]
    return "\n".join(lines) + "\n"


def assert_exits_cleanly(argv):
    """main(argv), run in-process, returns an exit code of the contract,
    with no traceback on stderr and no RuntimeWarning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(suite_texts())
def test_sim_fuzz_exits_with_a_code_never_a_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "suite.ini"
        cfg.write_text(text, encoding="utf-8")
        assert_exits_cleanly(["sim", "--config", str(cfg), "--out-dir", str(Path(tmp) / "out")])


def series_values(kind: str, n: int, scale: float, seed: int) -> list[float]:
    """n readings of one kind: a constant, Cauchy draws (heavy-tailed), two
    tight clusters far apart, or plain normal draws, at the given scale."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        v = np.full(n, scale)
    elif kind == "heavy":
        v = rng.standard_cauchy(n) * scale
    elif kind == "clusters":
        v = np.where(rng.random(n) < 0.5, -scale, scale) + rng.normal(0.0, 0.01 * abs(scale), n)
    else:
        v = rng.normal(0.0, abs(scale), n)
    return v.tolist()


@st.composite
def series_files(draw) -> str:
    kind = draw(st.sampled_from(["constant", "heavy", "clusters", "plain"]))
    n = draw(st.one_of(st.integers(1, 12), st.integers(13, 600)))  # short series too
    scale = draw(st.sampled_from([1.0, -2.5, 1e-6, 1e6]))
    values = series_values(kind, n, scale, draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        return "t,value\n" + "".join(f"{t},{v!r}\n" for t, v in enumerate(values))
    return "".join(f"{v!r}\n" for v in values)


LAGS = st.sampled_from(["1", "3", "10"])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    series_files(),
    st.sampled_from(["1", "1", "2", "24"]),
    st.sampled_from(["--standardize", "--no-standardize"]),
    st.sampled_from(["auto", *START_PRESETS]),
    LAGS,
)
def test_fit_fuzz_exits_with_a_code_never_a_traceback(text, block, standardize, preset, lags):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "series.csv"
        data.write_text(text, encoding="utf-8")
        argv = ["fit", "--input", str(data), "--block-size", block, standardize, "--start-preset", preset]
        assert_exits_cleanly([*argv, "--ljung-box-lags", lags, "--out-dir", str(Path(tmp) / "out")])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(series_files(), st.sampled_from([["0.5", "0", "2"], ["-0.25", "-0.36", "2"], ["1", "-1", "0"], ["0.25", "1", "-0.5"]]), LAGS)
def test_gof_fuzz_exits_with_a_code_never_a_traceback(text, law, lags):
    xi, mu, delta = law
    argv = ["gof", "--xi", xi, "--mu", mu, "--sigma", "1", "--delta", delta, "--ljung-box-lags", lags]
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "series.csv"
        data.write_text(text, encoding="utf-8")
        assert_exits_cleanly([*argv, "--input", str(data)])


def test_sample_overflow_near_delta_minus_one_exits_4():
    # the power map raises the GEV quantile to the power 1e6 and overflows
    # for 2 of these 5 draws: one line on stderr and no draws, not inf (a
    # real child process, so numpy's RuntimeWarnings would reach stderr)
    argv = ["sample", "--xi", "0.5", "--mu", "0", "--sigma", "1", "--delta", "-0.999999", "-n", "5", "--seed", "1"]
    res = subprocess.run([sys.executable, "-m", "bgev.cli", *argv], capture_output=True, text=True, env=child_env())
    assert res.returncode == 4 and res.stdout == ""
    assert res.stderr == "numerical failure: 2 of 5 draws overflow a float (delta = -0.999999)\n"


# parameter values across and beyond the admissible space, as the CLI takes
# them: xi of either sign down to 1e-300 and 0, scales far from 1, delta up
# to -1, and points and levels in the far tails, at the edges and outside
LAW_VALUES = {
    "xi": st.one_of(st.sampled_from(["0", "1e-300", "-1e-8", "1e-8", "5", "-5"]), st.floats(-3.0, 3.0).map(repr)),
    "mu": st.one_of(st.sampled_from(["1e300", "-1e300"]), st.floats(-10.0, 10.0).map(repr)),
    "sigma": st.sampled_from(["1", "0.5", "1e-300", "1e300", "0", "-1"]),
    "delta": st.one_of(
        st.sampled_from(["-1", "-0.999999", "-0.9999999999", "0", "50", "1e3"]), st.floats(-0.99, 4.0).map(repr)
    ),
}
POINTS = st.one_of(st.sampled_from(["0", "1e300", "-1e300", "5e-324", "inf", "-inf", "nan"]), st.floats(-50.0, 50.0).map(repr))
LEVELS = st.one_of(
    st.sampled_from(["0", "1", "5e-324", "1e-300", "0.9999999999999999", "-0.5", "2", "nan"]), st.floats(0.0, 1.0).map(repr)
)


def law_flags(draw) -> list[str]:
    return [f"--{key}={draw(values)}" for key, values in LAW_VALUES.items()]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_eval_fuzz_exits_with_a_code_never_a_traceback(data):
    argv = ["eval", *law_flags(data.draw)]
    if data.draw(st.booleans()):
        argv.append(f"--x={data.draw(POINTS)}")
    if data.draw(st.booleans()):
        argv.append(f"--q={data.draw(LEVELS)}")
    assert_exits_cleanly(argv)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sample_fuzz_exits_with_a_code_never_a_traceback(data):
    argv = ["sample", *law_flags(data.draw), f"-n={data.draw(st.integers(1, 40))}"]
    assert_exits_cleanly([*argv, f"--seed={data.draw(st.integers(0, 2**16))}"])
