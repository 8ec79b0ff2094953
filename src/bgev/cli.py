"""Command-line interface.

Subcommands: ``eval`` (pointwise pdf/cdf/quantile), ``sample`` (seeded
draws), ``gof`` (KS/AD/Ljung-Box of a file against given parameters),
``fit`` (block-maxima pipeline with BGEV-vs-GEV comparison and plot data)
and ``sim`` (Monte Carlo study suite from a config file).

Exit codes: 0 success, 2 input error, 3 fit non-convergence, 4 internal
numerical failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from .data import BUNDLED, bundled_path

# the rest of bgev is imported by each command when it runs, so that a cold
# start of one command loads no other command's modules
from .params import (
    START_PRESETS,
    BgevParams,
    InfeasibleStartError,
    InputDataError,
    NotConvergedError,
    csv_text,
    write_text,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative float literal, such as
    -1.2e-05, -inf or -Infinity (float's spellings, in any case), as a
    value; argparse's own reads only -1 and -1.5."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|-inf(inity)?$", re.IGNORECASE)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--xi", type=float, required=True, help="shape (nonzero)")
    p.add_argument("--mu", type=float, required=True, help="location")
    p.add_argument("--sigma", type=float, required=True, help="transform scale (> 0)")
    p.add_argument("--delta", type=float, required=True, help="bimodality shape (> -1)")


def _params_from(args) -> BgevParams:
    return BgevParams(xi=args.xi, mu=args.mu, sigma=args.sigma, delta=args.delta)


def _column(spec: str) -> int | str:
    """A column selector: an index when the text is an integer, else a name."""
    return int(spec) if spec.lstrip("-").isdigit() else spec


def _resolve_input(spec: str) -> str:
    if spec.startswith("bundled:"):
        return str(bundled_path(spec.split(":", 1)[1]))
    return spec


def _ljung_box(x: np.ndarray, lags: int):
    """``ljung_box`` at ``lags``, lowered with a note on stderr to the most
    a series this short allows (lags < n/2)."""
    from .gof import ljung_box

    most = (x.size - 1) // 2
    if lags > most >= 1:
        note = f"note: Ljung-Box lags lowered from {lags} to {most}, the most below n/2 for n = {x.size}"
        print(note, file=sys.stderr)
        lags = most
    return ljung_box(x, lags=lags)


def cmd_eval(args) -> int:
    from .distribution import cdf, pdf, quantile

    p = _params_from(args)
    if args.x is None and args.q is None:
        raise InputDataError("nothing to evaluate: pass --x and/or --q")
    rows: list = []
    if args.x is not None:
        rows += [("x", "pdf", "cdf"), *((v, float(pdf(v, p)), float(cdf(v, p))) for v in args.x)]
    if args.q is not None:
        rows += [("q", "quantile"), *((v, float(quantile(v, p))) for v in args.q)]
    sys.stdout.write(csv_text(rows))
    return EXIT_OK


def cmd_sample(args) -> int:
    from .distribution import sample

    p = _params_from(args)
    draws = sample(args.n, p, args.seed)
    bad = int(np.count_nonzero(~np.isfinite(draws)))
    if bad:
        raise ArithmeticError(f"{bad} of {args.n} draws overflow a float (delta = {p.delta!r})")
    text = csv_text(columns=[draws])
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gof(args) -> int:
    from .distribution import cdf, sf
    from .gof import ad_statistic, ks_statistic
    from .pipeline import ingest

    p = _params_from(args)
    series = ingest(_resolve_input(args.input), value_column=args.value_col, time_column=args.time_col)
    x = series.values
    ks = ks_statistic(x, lambda v: cdf(v, p))
    ad = ad_statistic(x, lambda v: cdf(v, p), lambda v: sf(v, p))
    lb = _ljung_box(x, args.ljung_box_lags)
    rows = [
        ("n", x.size),
        ("ks", ks),
        ("ad", ad),
        ("ljung_box_statistic", lb.statistic),
        ("ljung_box_lags", lb.lags),
        ("ljung_box_p_value", lb.p_value),
    ]
    sys.stdout.write(csv_text(rows))
    return EXIT_OK


def cmd_fit(args) -> int:
    from .pipeline import (
        block_maxima,
        comparison_to_csv,
        comparison_to_text,
        emit_plot_data,
        fit_and_compare,
        ingest,
        standardize,
    )

    if args.bins is not None and args.bins < 1:
        raise InputDataError(f"--bins must be >= 1, got {args.bins}")
    series = ingest(
        _resolve_input(args.input),
        value_column=args.value_col,
        time_column=args.time_col,
        missing=args.missing,
    )
    b = block_maxima(series, args.block_size)
    if b.dropped:
        print(f"note: dropped {b.dropped} trailing observations (partial block)", file=sys.stderr)
    if args.standardize:
        b = standardize(b)

    lb = _ljung_box(b.maxima, args.ljung_box_lags)
    start = None if args.start_preset == "auto" else START_PRESETS[args.start_preset]
    report = fit_and_compare(b, bgev_start=start)

    text = comparison_to_text(report)
    header = csv_text(
        [
            ("blocks", report.n),
            ("block_size", b.block_size),
            ("standardized", b.standardized),
            ("ljung_box_statistic", lb.statistic),
            ("ljung_box_p_value", lb.p_value),
        ]
    )
    table = comparison_to_csv(report)
    # the plot data is computed in full before it writes any file, and the
    # report files after it, so that a failure leaves no partial output
    out_dir = Path(args.out_dir)
    emit_plot_data(report, b, out_dir, bins=args.bins)
    write_text(out_dir / "report.txt", header + text)
    write_text(out_dir / "comparison.csv", table)

    sys.stdout.write(header)
    sys.stdout.write(text)
    if lb.p_value < 0.01:
        print("warning: serial independence rejected at the 1% level", file=sys.stderr)
    if not (report.bgev.converged and report.gev.converged):
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_sim(args) -> int:
    from .sim import load_suite_config, reports_to_csv, reports_to_table, run_suite

    if args.parallelism < 1:
        raise InputDataError(f"--parallelism must be >= 1, got {args.parallelism}")
    cells = load_suite_config(args.config)
    reports, errors = run_suite(cells, parallelism=args.parallelism)
    table = reports_to_table(reports)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text(out_dir / "results.csv", reports_to_csv(reports))
    write_text(out_dir / "table.txt", table)
    sys.stdout.write(table)
    for idx, msg in errors:
        print(f"cell {idx} failed: {msg}", file=sys.stderr)
    return EXIT_NONCONVERGENCE if errors else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="bgev", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate pdf/cdf/quantile at given points")
    _add_param_flags(p_eval)
    p_eval.add_argument("--x", type=float, nargs="+", help="points for pdf/cdf")
    p_eval.add_argument("--q", type=float, nargs="+", help="levels in (0,1) for quantiles")
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="seeded draws")
    _add_param_flags(p_sample)
    p_sample.add_argument("-n", type=int, required=True, help="number of draws")
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", help="write draws here instead of stdout")
    p_sample.set_defaults(func=cmd_sample)

    p_gof = sub.add_parser("gof", help="goodness of fit of a file against given parameters")
    _add_param_flags(p_gof)
    p_gof.add_argument("--input", required=True, help="delimited file or bundled:<name>")
    p_gof.add_argument("--value-col", type=_column, default=None, help="value column name or index")
    p_gof.add_argument("--time-col", type=_column, default=None, help="time column name or index")
    p_gof.add_argument("--ljung-box-lags", type=int, default=10)
    p_gof.set_defaults(func=cmd_gof)

    p_fit = sub.add_parser("fit", help="block-maxima pipeline and BGEV-vs-GEV comparison")
    p_fit.add_argument("--input", required=True, help=f"delimited file or bundled:<name> ({'/'.join(BUNDLED)})")
    p_fit.add_argument("--value-col", type=_column, default=None)
    p_fit.add_argument("--time-col", type=_column, default=None)
    p_fit.add_argument("--missing", choices=("skip", "fail"), default="skip")
    p_fit.add_argument("--block-size", type=int, default=24)
    p_fit.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True)
    p_fit.add_argument("--ljung-box-lags", type=int, default=10)
    p_fit.add_argument("--start-preset", choices=("auto", *START_PRESETS), default="auto")
    p_fit.add_argument("--out-dir", default="bgev_out")
    p_fit.add_argument("--bins", type=int, default=None, help="histogram bin count override")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("sim", help="Monte Carlo estimator study from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--parallelism", type=int, default=1)
    p_sim.add_argument("--out-dir", default="bgev_sim_out")
    p_sim.set_defaults(func=cmd_sim)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        # str() of a KeyError is the repr of its key: print the message itself
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:  # an allocation a flag asks for, such as --bins or -n
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT
    except (InfeasibleStartError, NotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:  # InputDataError and ParameterError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
