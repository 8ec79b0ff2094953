"""Tests of the benchmark itself: its output checks, tracer and statistics.

    python3 perfbench/selftest.py        # about two minutes

Kept out of the package's test suite on purpose (the file name does not
match ``test_*.py``): the repeat-count test runs the benchmark six times.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _bgev(argv: list[str]) -> int:
    import bgev.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return bgev.cli.main(argv)


def _edit(path: Path, old: str, new: str, count: int = 1) -> None:
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise AssertionError(f"{old!r} not in {path.name}")
    path.write_text(text.replace(old, new, count), encoding="utf-8")


class FitChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp())
        cls.good = cls.tmp / "good"
        assert _bgev(["fit", "--input", "bundled:bimodal", "--out-dir", str(cls.good)]) == 0

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def corrupted(self) -> Path:
        bad = self.tmp / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(self.good, bad)
        return bad

    def problems(self, out: Path) -> list[str]:
        return checks.check_fit(out, run.CLI_BLOCKS, checks.REFERENCE_NEG2LL_BUNDLED)

    def test_program_output_passes(self):
        self.assertEqual(self.problems(self.good), [])

    def test_not_converged_is_rejected(self):
        bad = self.corrupted()
        _edit(bad / "comparison.csv", ",True\nGEV", ",False\nGEV")
        self.assertTrue(self.problems(bad))

    def test_bgev_worse_than_gev_is_rejected(self):
        bad = self.corrupted()
        lines = (bad / "comparison.csv").read_text().splitlines()
        b, g = lines[1].split(","), lines[2].split(",")
        b[7], g[7] = g[7], b[7]
        (bad / "comparison.csv").write_text("\n".join([lines[0], ",".join(b), ",".join(g)]) + "\n")
        self.assertTrue(any("exceeds the nested GEV" in p for p in self.problems(bad)))

    def test_worse_than_reference_is_rejected(self):
        out = checks.check_fit(self.good, run.CLI_BLOCKS, checks.REFERENCE_NEG2LL_BUNDLED - 1e-3)
        self.assertTrue(any("reference" in p for p in out))

    def test_truncated_qq_and_missing_file_are_rejected(self):
        bad = self.corrupted()
        qq = (bad / "qq_bgev.csv").read_text().splitlines()
        (bad / "qq_bgev.csv").write_text("\n".join(qq[:-1]) + "\n")
        self.assertTrue(self.problems(bad))
        (bad / "density.csv").unlink()
        self.assertTrue(self.problems(bad))

    def test_non_finite_estimate_is_rejected(self):
        bad = self.corrupted()
        _edit(bad / "comparison.csv", "BGEV,", "BGEV,nan,")
        self.assertTrue(self.problems(bad))


class SimChecks(unittest.TestCase):
    CELLS, M = 2, 4

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp())
        ini = cls.tmp / "suite.ini"
        ini.write_text(
            "[cell a]\nxi = 0.5\nmu = 0\ndelta = 2\nn = 50\nm = 4\nseed = 1\n\n"
            "[cell b]\nxi = -0.25\nmu = 0\ndelta = 2\nn = 50\nm = 4\nseed = 2\n"
        )
        cls.good = cls.tmp / "good"
        assert _bgev(["sim", "--config", str(ini), "--out-dir", str(cls.good)]) == 0

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def corrupted(self) -> Path:
        bad = self.tmp / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(self.good, bad)
        return bad

    def test_program_output_passes(self):
        self.assertEqual(checks.check_sim(self.good, self.CELLS, self.M), ([], 0))

    def test_dropped_replicates_are_counted(self):
        bad = self.corrupted()
        lines = (bad / "results.csv").read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",3"
        (bad / "results.csv").write_text("\n".join(lines) + "\n")
        # reported by the program, so counted as failed but not as wrong output
        self.assertEqual(checks.check_sim(bad, self.CELLS, self.M), ([], 3))

    def test_missing_cell_is_rejected_and_counted(self):
        bad = self.corrupted()
        lines = (bad / "results.csv").read_text().splitlines()
        (bad / "results.csv").write_text("\n".join(lines[:-1]) + "\n")
        problems, dropped = checks.check_sim(bad, self.CELLS, self.M)
        self.assertTrue(problems)
        self.assertEqual(dropped, self.M)

    def test_non_finite_and_header_are_rejected(self):
        bad = self.corrupted()
        lines = (bad / "results.csv").read_text().splitlines()
        tok = lines[1].split(",")
        tok[8] = "inf"
        lines[1] = ",".join(tok)
        (bad / "results.csv").write_text("\n".join(lines) + "\n")
        self.assertTrue(checks.check_sim(bad, self.CELLS, self.M)[0])
        _edit(bad / "results.csv", "mse_xi", "mse_x")
        self.assertTrue(checks.check_sim(bad, self.CELLS, self.M)[0])


class Tracer(unittest.TestCase):
    def test_patches_every_binding_and_restores_them(self):
        import bgev.likelihood
        import bgev.mle
        import bgev.sim

        orig = bgev.likelihood.log_likelihood
        tr = tracing.Tracer()
        tr.install()
        try:
            for mod in (bgev.likelihood, bgev.mle, bgev.sim):
                self.assertIsNot(mod.log_likelihood, orig)
                self.assertIs(mod.log_likelihood.__wrapped__, orig)
        finally:
            tr.uninstall()
        for mod in (bgev.likelihood, bgev.mle, bgev.sim):
            self.assertIs(mod.log_likelihood, orig)

    def test_self_time_excludes_children(self):
        spans = [
            [0, "op", -1, 0, 0.0, 10.0, None, None],
            [1, "mle.fit_mle", 0, 0, 1.0, 9.0, None, {"iterations": 4, "converged": True}],
            [2, "likelihood.log_likelihood", 1, 0, 2.0, 3.0, 50, None],
            [3, "likelihood.log_likelihood", 1, 0, 4.0, 6.0, 50, None],
        ]
        m, repeat = tracing.summarize(spans)
        self.assertTrue(repeat)
        self.assertAlmostEqual(m["mle.fit_mle.self_s"], 5.0)
        self.assertAlmostEqual(m["likelihood.log_likelihood.self_s"], 3.0)
        self.assertAlmostEqual(m["likelihood.log_likelihood.us_per_call.n50"], 1.5e6)
        self.assertEqual(m["mle.fit_mle.ll_evals_per_fit"], 2)
        self.assertEqual(m["mle.fit_mle.iterations_per_fit"], 4)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = [m["name"] for m in spec["per_layer"]]
        layer_map = json.loads((HERE / "layers.json").read_text())["per_layer"]
        emitted = set(tracing.summarize([[0, "op", -1, 0, 0.0, 1.0, None, None]])[0])
        emitted |= {"import.bgev_s", "import.scipy_s", "import.modules", "trace.overhead_frac"}
        self.assertEqual(set(declared), set(layer_map))
        self.assertEqual(set(declared), emitted)


class Statistics(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        vals = [float(i) for i in range(40)]
        value, pct = run.tail(vals)
        self.assertEqual(pct, 75.0)
        self.assertEqual(sum(v > value for v in vals), 10)

    def test_tail_is_the_median_below_twenty_samples(self):
        vals = [3.0, 1.0, 2.0, 10.0]
        self.assertEqual(run.tail(vals), (2.5, 50.0))


class RepeatedCounts(unittest.TestCase):
    """Two traced runs at one seed give identical exact counts."""

    def traced(self, workload: str) -> dict[str, float]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, cwd=ROOT, check=True, timeout=300,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], proc.stdout)
        names = (*tracing.COUNTS, "import.modules")
        return {k: result["metrics"][k]["value"] for k in names}

    def test_counts_repeat(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.traced(workload)
                self.assertGreater(first["likelihood.log_likelihood.calls"], 0)
                self.assertEqual(first, self.traced(workload))


if __name__ == "__main__":
    unittest.main()
