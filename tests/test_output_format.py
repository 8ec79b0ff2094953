"""The one text format of every output file: ``csv_text`` and ``write_text``."""

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


def test_write_text_is_utf8_with_lf(tmp_path):
    path = tmp_path / "out.csv"
    write_text(path, csv_text([("µ", 1.5), ("x", 2)]))
    assert path.read_bytes() == "µ,1.5\nx,2\n".encode("utf-8")
