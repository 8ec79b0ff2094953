"""The process that hosts the program for the in-process workloads.

``serve`` mode: import the package, run one untimed warm-up op, print
``ready``, then wait for one line on stdin: ``exit`` (a set-up probe) or
``run <seconds>``, which runs ops back to back until the time is up and
prints one JSON line with the op times and check results.  With ``--trace
1`` every second op runs with spans installed.

``cli`` mode: one traced ``bgev`` command in a fresh interpreter, for the
traced ops of cli_cold; spans are written to ``--spans`` at exit.

Run by run.py, with the checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

import checks
import inputs
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _import_program(module: str):
    """Import the program and refuse a copy from outside this checkout."""
    mod = __import__(module, fromlist=["_"])
    src = (ROOT / "src").resolve()
    if src not in Path(mod.__file__).resolve().parents:
        raise SystemExit(f"bgev imported from {mod.__file__}, not from {src}")
    return mod


class Op:
    """One workload op: a ``bgev`` command run in this process, and the
    checks on what it wrote."""

    def __init__(self, workload: str, input_path: str, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        self.cli = _import_program("bgev.cli")
        if workload == "fit_long":
            self.argv = ["fit", "--input", input_path, "--out-dir", str(out_dir)]
            self.output = "comparison.csv"
            self.units = 1  # failed_frac counts ops
        else:
            self.argv = ["sim", "--config", input_path, "--out-dir", str(out_dir)]
            self.output = "results.csv"
            self.units = inputs.MC_CELLS * inputs.MC_REPLICATES  # ... and replicates here
        self.first_bytes: bytes | None = None

    def run(self, extra: tuple[str, ...] = ()) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(self.argv + list(extra))
        return rc, err.getvalue()

    def check(self, rc: int, stderr: str) -> tuple[list[str], int]:
        """(problems, failed units) of the op that just ran.  A fit op
        fails as a whole; a suite pass loses the replicates its cells
        dropped or errored on, and all of them if its bytes changed."""
        if self.workload == "fit_long":
            problems = checks.check_fit(self.out_dir, inputs.LONG_DAYS, checks.REFERENCE_NEG2LL_LONG)
            dropped = 0
        else:
            problems, dropped = checks.check_sim(self.out_dir, inputs.MC_CELLS, inputs.MC_REPLICATES)
        path = self.out_dir / self.output
        data = path.read_bytes() if path.is_file() else b""
        if self.first_bytes is None:
            self.first_bytes = data
        elif data != self.first_bytes:
            problems.append(f"{self.output} bytes differ from the first op's")
            dropped = self.units
        if rc != 0:
            problems.append(f"exit code {rc}: {stderr.strip()[-500:]}")
        if problems and (self.workload == "fit_long" or not dropped):
            dropped = self.units
        return problems, min(dropped, self.units)


def serve(args) -> int:
    op = Op(args.workload, args.input, Path(args.work) / "out")
    problems, failed = op.check(*op.run())  # the warm-up
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    seconds = float(command[1])

    tracer = Tracer() if args.trace else None
    times: list[float] = []
    traced_times: list[float] = []
    attempted = op.units  # the warm-up is checked like every other op
    min_ops = 2 if tracer else 1
    deadline = perf_counter() + seconds
    while len(times) + len(traced_times) < min_ops or perf_counter() < deadline:
        traced = tracer is not None and len(times) > len(traced_times)
        if traced:
            tracer.install()
            tracer.begin_op()
            rc, err = op.run()
            traced_times.append(tracer.end_op())
            tracer.uninstall()
        else:
            t0 = perf_counter()
            rc, err = op.run()
            times.append(perf_counter() - t0)
        p, f = op.check(rc, err)
        problems += p
        failed += f
        attempted += op.units

    if args.workload == "mc_study":
        # untimed: a parallel run of the same suite must write the same bytes
        serial = op.first_bytes
        rc, err = op.run(("--parallelism", "2"))
        data = (op.out_dir / op.output).read_bytes() if rc == 0 else b""
        if data != serial:
            problems.append(f"--parallelism 2 results.csv differs from the serial one (exit {rc})")
    if tracer:
        tracer.write(Path(args.work) / "spans.json")
    print(json.dumps({
        "times": times,
        "traced_times": traced_times,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
    }), flush=True)
    return 0


def traced_cli(args) -> int:
    cli = _import_program("bgev.cli")
    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(args.argv)
    tracer.end_op()
    tracer.write(args.spans)
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("serve")
    s.add_argument("--workload", required=True, choices=("fit_long", "mc_study"))
    s.add_argument("--input")
    s.add_argument("--work", required=True)
    s.add_argument("--trace", type=int, default=0)
    s.set_defaults(func=serve)
    c = sub.add_parser("cli")
    c.add_argument("--spans", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    c.set_defaults(func=traced_cli)
    args = ap.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
