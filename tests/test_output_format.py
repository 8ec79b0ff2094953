"""The one text format of every output file: ``csv_text`` and ``write_text``."""

import hashlib
import io
from contextlib import redirect_stdout

import numpy as np

from bgev import params
from bgev.cli import main
from bgev.params import csv_text, write_text


def test_csv_text_floats_round_trip():
    floats = [0.1, 1 / 3, -2.5e-300, 1.7976931348623157e308, 5e-324, -0.0, float("inf")]
    text = csv_text([floats, [2.0 / 7.0]])
    lines = text.split("\n")
    assert lines[-1] == "" and len(lines) == 3
    assert [float(c) for c in lines[0].split(",")] == floats
    assert float(lines[1]) == 2.0 / 7.0
    assert lines[0].split(",")[5] == "-0"


def test_csv_text_other_cells_as_str():
    assert csv_text([("n", 12, True, False, -3)]) == "n,12,True,False,-3\n"
    assert csv_text([]) == ""


def test_csv_text_blocks_equal_the_cell_rule():
    # columns longer than one block, with special floats on both sides of a
    # block boundary, against the rule applied cell by cell to numpy scalars
    n = 2 * params._BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    edge = params._BLOCK_ROWS
    floats[:6] = floats[edge - 3 : edge + 3] = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1]
    ints = rng.integers(-(10**15), 10**15, n)
    flags = rng.random(n) < 0.5
    rows = [("name", np.float64(-0.0), np.int64(7), True, 2.5), ("x", "y")]
    reference = "".join(
        ",".join(f"{c:.17g}" if isinstance(c, float) else str(c) for c in row) + "\n"
        for row in [*rows, *zip(floats, ints, flags)]
    )
    assert csv_text(rows, [floats, ints, flags]) == reference
    assert csv_text(columns=[floats[:0]]) == ""


def test_write_text_is_utf8_with_lf(tmp_path):
    path = tmp_path / "out.csv"
    write_text(path, csv_text([("µ", 1.5), ("x", 2)]))
    assert path.read_bytes() == "µ,1.5\nx,2\n".encode("utf-8")


# sha256 of the files of ``bgev fit --input bundled:bimodal``: report.txt
# and histogram.csv as the code before the block writer and the file route
# of ingest wrote them, the files with fitted values as the trust-region
# optimizer first wrote them.  A change that claims to keep every output
# byte must keep these
GOLDEN_FIT_SHA256 = {
    "report.txt": "a6b6c0d7731535c6b7e8efbf3cee9763fc6bdb15f7105a6731d1900a58899c1f",
    "comparison.csv": "358cc1af79874be3d3429aeb43d1dfec32dca28a45c3c752741e914a3d3595e2",
    "histogram.csv": "e9bdee8d6838bd222d67d8cf3caafb2452736e3496b1d1212244c1b90ce6c6a7",
    "density.csv": "00a9a2d6f07289f6cab860d1f7e05175af677fe355752bfbe5471086e0f1b8d0",
    "qq_bgev.csv": "3d4781a37d69f206c83d8642f389e8f7df5d6d54fa468e8edc554476f75c8868",
    "qq_gev.csv": "bd43cb4492f0bf9e86b7f2de3836bd52ac2a887aa4ad0561fb38c1eaa65a10a6",
}
GOLDEN_SAMPLE_SHA256 = "40154234dfc33283067c0bf03a7b95407b12abb8c3147ff22e96452008f7e34b"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_fit_bytes(tmp_path):
    with redirect_stdout(io.StringIO()):
        assert main(["fit", "--input", "bundled:bimodal", "--out-dir", str(tmp_path)]) == 0
    assert {name: _sha256(tmp_path / name) for name in GOLDEN_FIT_SHA256} == GOLDEN_FIT_SHA256


def test_golden_sample_bytes(tmp_path):
    out = tmp_path / "draws.csv"
    argv = ["sample", "--xi", "0.5", "--mu", "0", "--sigma", "1", "--delta", "1", "-n", "20", "--seed", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    assert _sha256(out) == GOLDEN_SAMPLE_SHA256
