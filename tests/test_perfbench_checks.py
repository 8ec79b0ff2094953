"""The benchmark's own output checks, run on its seed-0 inputs.

perfbench/checks.py and perfbench/inputs.py are read as source and executed
into fresh module objects, so the benchmark's directory gets no bytecode
cache.  A check that fails here is an op the benchmark counts as failed.
"""

import types
from pathlib import Path

import pytest

from bgev.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


checks = load("checks")
inputs = load("inputs")


@pytest.mark.parametrize("workload", ["cli_cold", "fit_long"])
def test_fit_passes_the_benchmark_checks(tmp_path, workload):
    if workload == "cli_cold":  # perfbench/run.py's CLI_ARGS and CLI_BLOCKS
        spec, blocks, reference = "bundled:bimodal", 365, checks.REFERENCE_NEG2LL_BUNDLED
    else:
        spec = str(inputs.write_long_series(0, tmp_path / "long.csv"))
        blocks, reference = inputs.LONG_DAYS, checks.REFERENCE_NEG2LL_LONG
    out = tmp_path / "out"
    assert main(["fit", "--input", spec, "--out-dir", str(out)]) == 0
    assert checks.check_fit(out, blocks, reference) == []


def test_sim_passes_the_benchmark_checks(tmp_path):
    out = tmp_path / "out"
    assert main(["sim", "--config", str(inputs.write_suite(0, tmp_path / "suite.ini")), "--out-dir", str(out)]) == 0
    assert checks.check_sim(out, inputs.MC_CELLS, inputs.MC_REPLICATES) == ([], 0)
