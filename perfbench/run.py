"""Benchmark of the bgev package and CLI.

    python3 perfbench/run.py --workload cli_cold|fit_long|mc_study \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/``.  Each
run generates its inputs from the seed, times ops back to back for S
seconds (closed loop, one client, one op at a time), checks every op's
outputs and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give the machine, the same metrics by their workload names
and, in a traced run, what each per-layer metric should move
(layers.json).  Scratch files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_cold", "fit_long", "mc_study")
DEFAULT_SEED = 0
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3  # -X importtime children per traced run
TAIL_BEYOND = 10  # a tail percentile needs this many samples beyond it
CLI_ARGS = ("fit", "--input", "bundled:bimodal")
CLI_BLOCKS = 365
E2E_NAMES = {  # the workload-specific names of op_ms_*
    "cli_cold": "cli_fit_cold_ms",
    "fit_long": "fit_long_ms",
    "mc_study": "mc_pass_ms",
}


class Run:
    """What one benchmark run measured and found."""

    def __init__(self):
        self.setup: list[float] = []
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spans: list[Path] = []
        self.units_per_op = 1


def percentile(sorted_vals: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (the median at 50)."""
    rank = pct / 100.0 * (len(sorted_vals) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (rank - lo)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with fewer than 20 samples no percentile above the
    median has, and the median is reported."""
    n = len(samples)
    pct = max(50.0, 100.0 * (n - TAIL_BEYOND) / n)
    return percentile(sorted(samples), pct), pct


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def wait(proc: subprocess.Popen):
    """Reap a child and return (exit code, its own resource usage)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def machine() -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = []
    for pkg in ("numpy", "scipy"):
        try:
            versions.append(f"{pkg}={metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{pkg}=absent")
    return (
        f"machine: nproc={os.cpu_count()} cpu={cpu!r} "
        f"python={sys.version.split()[0]} {' '.join(versions)}"
    )


# ----------------------------------------------------------------------------
# workloads


def run_cli_cold(args, work: Path, env: dict[str, str], run: Run) -> None:
    out = work / "out"
    err_path = work / "cli.err"
    if not args.trace:
        probe = [sys.executable, "-c", "import bgev; print(bgev.__file__, flush=True)"]
        for _ in range(SETUP_SAMPLES):
            t0 = perf_counter()
            proc = subprocess.Popen(probe, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
            origin = proc.stdout.readline().strip()
            run.setup.append(perf_counter() - t0)
            proc.stdout.close()
            rc, _ = wait(proc)
            if rc != 0 or Path(origin).resolve().parent != (ROOT / "src" / "bgev").resolve():
                run.problems.append(f"import bgev failed or came from elsewhere: {origin!r}")

    first = None
    deadline = perf_counter() + args.seconds
    min_ops = 2 if args.trace else 1
    while len(run.times) + len(run.traced_times) < min_ops or perf_counter() < deadline:
        traced = args.trace and len(run.times) > len(run.traced_times)
        if traced:
            spans = work / f"spans_{len(run.traced_times)}.json"
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", "--spans", str(spans), "--"]
            run.spans.append(spans)
        else:
            cmd = [sys.executable, "-m", "bgev.cli"]
        cmd += [*CLI_ARGS, "--out-dir", str(out)]
        with err_path.open("w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
            rc, usage = wait(proc)
            (run.traced_times if traced else run.times).append(perf_counter() - t0)
        run.rss_kb = max(run.rss_kb, usage.ru_maxrss)
        problems = checks.check_fit(out, CLI_BLOCKS, checks.REFERENCE_NEG2LL_BUNDLED)
        if rc != 0:
            problems.append(f"exit code {rc}: {err_path.read_text()[-500:]}")
        data = (out / "comparison.csv").read_bytes() if (out / "comparison.csv").is_file() else b""
        first = data if first is None else first
        if data != first:
            problems.append("comparison.csv bytes differ from the first op's")
        run.attempted += 1
        run.failed += bool(problems)
        run.problems += problems


def run_in_process(args, work: Path, env: dict[str, str], run: Run) -> None:
    import inputs

    if args.workload == "fit_long":
        input_path = inputs.write_long_series(args.seed, work / "long.csv")
    else:
        input_path = inputs.write_suite(args.seed, work / "suite.ini")
        run.units_per_op = inputs.MC_CELLS * inputs.MC_REPLICATES
    cmd = [
        sys.executable, str(HERE / "worker.py"), "serve",
        "--workload", args.workload,
        "--input", str(input_path),
        "--work", str(work),
        "--trace", str(args.trace),
    ]

    # set-up probes, then the measuring worker, whose set-up is one more sample
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    for i in range(probes + 1):
        measure = i == probes
        err_path = work / f"worker{i}.err"
        with err_path.open("w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True, env=env, cwd=ROOT
            )
            try:
                ready = proc.stdout.readline().strip()
                run.setup.append(perf_counter() - t0)
                proc.stdin.write(f"run {args.seconds}\n" if measure and ready == "ready" else "exit\n")
                proc.stdin.close()
                result = proc.stdout.readline() if measure else ""
            except OSError:  # the worker died before reading its command
                result = ""
            finally:
                proc.stdout.close()
                rc, usage = wait(proc)
        if ready != "ready" or rc != 0 or (measure and not result):
            run.problems.append(f"worker failed (exit {rc}): {err_path.read_text()[-800:]}")
            run.attempted += run.units_per_op
            run.failed += run.units_per_op
            return
    res = json.loads(result)
    run.times, run.traced_times = res["times"], res["traced_times"]
    run.attempted, run.failed = res["attempted"], res["failed"]
    run.problems += res["problems"]
    run.rss_kb = usage.ru_maxrss
    if args.trace:
        run.spans.append(work / "spans.json")


# ----------------------------------------------------------------------------
# metrics


def import_metrics(env: dict[str, str]) -> dict[str, float]:
    """Median ``import bgev`` and scipy times, and the module count, from
    ``python -X importtime`` children."""
    bgev_s, scipy_s, modules = [], [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bgev"],
            capture_output=True, text=True, env=env, cwd=ROOT, check=True,
        )
        rows = []
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line and "self [us]" not in line:
                self_us, cum_us, name = (f.strip() for f in line[len("import time:"):].split("|"))
                rows.append((int(self_us), int(cum_us), name))
        bgev_s.append(sum(c for _, c, n in rows if n == "bgev") / 1e6)
        scipy_s.append(sum(s for s, _, n in rows if n == "scipy" or n.startswith("scipy.")) / 1e6)
        modules.append(len(rows))
    return {
        "import.bgev_s": statistics.median(bgev_s),
        "import.scipy_s": statistics.median(scipy_s),
        "import.modules": statistics.median(modules),
    }


def end_to_end(args, run: Run) -> tuple[dict[str, float], dict[str, str]]:
    """The end-to-end metrics, and a note on each naming what it is."""
    name = E2E_NAMES[args.workload]
    tail_ms, pct = tail([t * 1000.0 for t in run.times])
    n = len(run.times)
    metrics = {
        "op_ms_p50": statistics.median(run.times) * 1000.0,
        "op_ms_tail": tail_ms,
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": run.rss_kb / 1024.0,
    }
    notes = {
        "op_ms_p50": f"{name}_p50, median of {n} ops",
        "op_ms_tail": f"{name}_tail, p{pct:.1f} of {n} ops",
        "setup_s": f"median of {len(run.setup)} set-ups",
        "peak_rss_mb": "largest resident set of the processes that ran the ops",
    }
    if args.workload == "mc_study":
        reps = statistics.median(run.units_per_op / t for t in run.times)
        notes["op_ms_p50"] += f"; mc_reps_per_s = {reps:.6g} 1/s, {run.units_per_op} replicates a pass"
    return metrics, notes


def per_layer(run: Run, env: dict[str, str]) -> tuple[dict[str, float], dict[str, str]]:
    """The per-layer metrics, and for each the end-to-end metrics it
    should and should not move (layers.json)."""
    import tracing

    metrics, counts_repeat = tracing.summarize(tracing.load_spans(run.spans))
    if not counts_repeat:
        run.problems.append("exact counts differ between traced ops")
    metrics.update(import_metrics(env))
    metrics["trace.overhead_frac"] = statistics.median(run.traced_times) / statistics.median(run.times) - 1.0
    layer_map = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["per_layer"]
    notes = {
        k: f"moves: {', '.join(layer_map[k]['moves']) or '-'}; "
        f"should not move: {', '.join(layer_map[k]['should_not_move']) or '-'}"
        for k in metrics
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=seed_arg, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bgev" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'bgev'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    run = Run()
    (run_cli_cold if args.workload == "cli_cold" else run_in_process)(args, work, env, run)

    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    if run.times:
        metrics, notes = per_layer(run, env) if args.trace else end_to_end(args, run)
    if set(metrics) != set(units):
        run.problems.append(f"metrics {sorted(set(units) ^ set(metrics))} missing or unexpected")

    print(f"bgev benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(machine())
    for k in units:
        if k in metrics:
            print(f"{k} = {metrics[k]:.6g} {units[k]}  ({notes[k]})")
    if args.trace:
        print(f"traced ops: {len(run.traced_times)}, untraced ops: {len(run.times)}")
    print(f"failed_frac = {run.failed / max(run.attempted, 1):.6g}  ({run.failed} failed of {run.attempted} attempted)")
    for p in run.problems[:20]:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
