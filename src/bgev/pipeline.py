"""Block-maxima pipeline: ingest a series, reduce to block maxima,
standardize, fit the bimodal and plain GEV models, and compare them.

The plain GEV is fitted as the delta = 0 submodel of the bimodal family
(the two are the same distribution under the parameter map
location = mu/sigma, scale = 1/sigma), so a single likelihood and optimizer
serve both fits and the nesting inequality -2l(BGEV) <= -2l(GEV) is enforced
by refining the bimodal fit from the GEV solution.
"""

from __future__ import annotations

import csv as _csv
import io
import math
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .distribution import cdf as bgev_cdf
from .distribution import pdf as bgev_pdf
from .distribution import quantile as bgev_quantile
from .gof import gof_report
from .mle import FitResult, InfeasibleStartError, default_start, fit_mle
from .params import BgevParams, format_float

__all__ = [
    "InputDataError",
    "SeriesFile",
    "BlockMaxima",
    "ModelAssessment",
    "ComparisonReport",
    "START_PRESETS",
    "ingest",
    "block_maxima",
    "standardize",
    "fit_and_compare",
    "emit_plot_data",
]


class InputDataError(ValueError):
    """Malformed or unusable input data."""


# named starting points for the two kinds of environmental series this
# pipeline was built around; "auto" derives a start from the data instead
START_PRESETS: dict[str, BgevParams] = {
    "wind": BgevParams(xi=-0.5, mu=0.0, sigma=1.0, delta=0.5),
    "temperature": BgevParams(xi=-0.25, mu=0.0, sigma=1.0, delta=0.5),
}


@dataclass(frozen=True)
class SeriesFile:
    timestamps: tuple[str, ...]
    values: np.ndarray
    path: str
    time_column: str | None
    value_column: str
    skipped: int

    def __post_init__(self):
        if len(self.timestamps) != len(self.values):
            raise InputDataError("timestamps and values must have equal length")


@dataclass(frozen=True)
class BlockMaxima:
    block_size: int
    maxima: np.ndarray
    standardized: bool = False
    mean: float | None = None
    sd: float | None = None
    dropped: int = 0


def _parse_float(token: str) -> float | None:
    """float(token), or None where the token is not a number."""
    try:
        return float(token)
    except ValueError:
        return None


def _resolve_column(sel, names: list[str], default: int) -> int:
    if sel is None:
        return default
    if isinstance(sel, int):
        if not 0 <= sel < len(names):
            raise InputDataError(f"column index {sel} out of range (file has {len(names)} columns)")
        return sel
    if sel in names:
        return names.index(sel)
    raise InputDataError(f"no column named {sel!r}; available: {names}")


def ingest(
    path,
    value_column: int | str | None = None,
    time_column: int | str | None = None,
    missing: str = "skip",
) -> SeriesFile:
    """Read a delimited text file (comma or tab) into a series.

    The header row is optional: the first row is one iff some non-blank
    token in it does not parse as a number.  With two or more columns the
    first defaults to timestamps and the last to values; both defaults can
    be overridden by name or index.  Missing, non-numeric and non-finite
    (nan, inf) values are skipped and counted under the "skip" policy and
    abort under "fail".  When numeric timestamps are present they must be
    strictly increasing.
    """
    if missing not in ("skip", "fail"):
        raise InputDataError(f"missing-value policy must be 'skip' or 'fail', got {missing!r}")
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc

    if not text:
        raise InputDataError(f"{path}: file is empty")
    delimiter = "\t" if "\t" in text.partition("\n")[0] else ","
    # row i is line i + 1 (a blank line reads as []); no field of a series
    # file is a quoted one spanning lines
    rows = list(_csv.reader(io.StringIO(text), delimiter=delimiter))
    first = next((i for i, r in enumerate(rows) if r), None)
    if first is None:
        raise InputDataError(f"{path}: file holds no data rows")

    ncol = len(rows[first])
    has_header = any(tok.strip() and _parse_float(tok) is None for tok in rows[first])
    if has_header:
        names = [tok.strip() for tok in rows[first]]
        first += 1
        if not any(islice(rows, first, None)):
            raise InputDataError(f"{path}: header only, no data rows")
    else:
        names = [str(i) for i in range(ncol)]

    v_idx = _resolve_column(value_column, names, default=ncol - 1)
    t_idx = None
    if ncol >= 2:
        t_idx = _resolve_column(time_column, names, default=0)
        if t_idx == v_idx:
            t_idx = None
    elif time_column is not None:
        raise InputDataError("time column requested but the file has a single column")

    times: list[str] = []
    values: list[float] = []
    skipped = 0
    for lineno, row in enumerate(islice(rows, first, None), start=first + 1):
        if not row:
            continue
        tok = row[v_idx].strip() if v_idx < len(row) else ""
        v = _parse_float(tok)
        if v is None or not math.isfinite(v):
            if missing == "fail":
                raise InputDataError(f"{path}:{lineno}: value {tok!r} is missing or not a finite number")
            skipped += 1
            continue
        values.append(v)
        times.append(row[t_idx].strip() if t_idx is not None and t_idx < len(row) else str(len(values) - 1))

    if not values:
        raise InputDataError(f"{path}: no numeric values found in column {names[v_idx]!r}")

    if t_idx is not None:
        try:
            tv = np.array([float(t) for t in times])
        except ValueError:
            pass  # non-numeric timestamps carry no order to check
        else:
            if np.any(np.diff(tv) <= 0):
                raise InputDataError(f"{path}: timestamps are not strictly increasing")

    return SeriesFile(
        timestamps=tuple(times),
        values=np.asarray(values, dtype=float),
        path=str(path),
        time_column=names[t_idx] if t_idx is not None else None,
        value_column=names[v_idx],
        skipped=skipped,
    )


def block_maxima(s: SeriesFile | np.ndarray, block_size: int) -> BlockMaxima:
    """Maxima of consecutive non-overlapping blocks; a trailing partial
    block is dropped and reported in the ``dropped`` field."""
    values = s.values if isinstance(s, SeriesFile) else np.asarray(s, dtype=float)
    if block_size < 1:
        raise InputDataError(f"block size must be >= 1, got {block_size}")
    n = values.size
    if n < block_size:
        raise InputDataError(f"series of length {n} is shorter than one block of {block_size}")
    nblocks = n // block_size
    dropped = n - nblocks * block_size
    maxima = values[: nblocks * block_size].reshape(nblocks, block_size).max(axis=1)
    return BlockMaxima(block_size=block_size, maxima=maxima, dropped=dropped)


def standardize(b: BlockMaxima) -> BlockMaxima:
    """Center and scale the maxima to zero mean and unit sample standard
    deviation (n-1 denominator).  The original mean and sd are kept so
    fitted quantiles can be mapped back to the data scale."""
    m = float(np.mean(b.maxima))
    sd = float(np.std(b.maxima, ddof=1)) if b.maxima.size > 1 else 0.0
    if not sd > 0.0:
        raise InputDataError("cannot standardize: block maxima are constant")
    return replace(b, maxima=(b.maxima - m) / sd, standardized=True, mean=m, sd=sd)


# ----------------------------------------------------------------------------
# model comparison


@dataclass(frozen=True)
class ModelAssessment:
    """One fitted model's estimates and fit statistics.

    For the GEV row the estimates are reported in GEV convention (location,
    scale, shape) with delta identically 0; the BGEV row reports the natural
    (mu, sigma, xi, delta).
    """

    model: str
    mu: float
    sigma: float
    xi: float
    delta: float
    ks: float
    ad: float
    neg2loglik: float
    converged: bool
    qq: np.ndarray
    params_internal: BgevParams


@dataclass(frozen=True)
class ComparisonReport:
    bgev: ModelAssessment
    gev: ModelAssessment
    winner: dict[str, str]
    n: int


def _assess(name: str, fit: FitResult, x: np.ndarray, as_gev: bool) -> ModelAssessment:
    th = fit.theta_hat
    gof = gof_report(x, lambda v: bgev_cdf(v, th), lambda q: bgev_quantile(q, th))
    if as_gev:
        mu, sigma = th.mu / th.sigma, 1.0 / th.sigma
        delta = 0.0
    else:
        mu, sigma, delta = th.mu, th.sigma, th.delta
    return ModelAssessment(
        model=name,
        mu=mu,
        sigma=sigma,
        xi=th.xi,
        delta=delta,
        ks=gof.ks,
        ad=gof.ad,
        neg2loglik=fit.neg2loglik,
        converged=fit.converged,
        qq=gof.qq,
        params_internal=th,
    )


def _gev_moment_start(x: np.ndarray) -> BgevParams:
    # Gumbel-style moment matching for GEV(-0.1, loc, scale), a serviceable
    # optimizer start; GEV(xi, loc, scale) == BGEV(xi, loc/scale, 1/scale, 0)
    sd = float(np.std(x, ddof=1))
    scale = max(sd * math.sqrt(6.0) / math.pi, 1e-6)
    loc = float(np.mean(x)) - 0.5772 * scale
    return BgevParams(xi=-0.1, mu=loc / scale, sigma=1.0 / scale, delta=0.0)


def fit_and_compare(b: BlockMaxima, bgev_start: BgevParams | None = None) -> ComparisonReport:
    """Fit both models to the block maxima and collect KS/AD/-2l per model.

    The GEV fit pins delta to 0 and starts from a moment match; the BGEV fit
    is run from its own start (default_start unless given) and again from
    the GEV solution, keeping the better optimum, so a converged BGEV never
    scores worse than the nested GEV.  A fit that fails to converge is
    reported as such without aborting the other model.
    """
    x = np.asarray(b.maxima, dtype=float)
    try:
        gev_fit = fit_mle(x, _gev_moment_start(x), {"delta": 0.0})
    except InfeasibleStartError:
        gev_fit = fit_mle(x, default_start(x), {"delta": 0.0})

    b0 = bgev_start or default_start(x)
    candidates: list[FitResult] = []
    try:
        candidates.append(fit_mle(x, b0))
    except InfeasibleStartError:
        pass
    # warm start at the GEV optimum, whose pinned delta is exactly 0.0
    candidates.append(fit_mle(x, gev_fit.theta_hat))
    bgev_fit = min(candidates, key=lambda r: r.neg2loglik)

    bgev_row = _assess("BGEV", bgev_fit, x, as_gev=False)
    gev_row = _assess("GEV", gev_fit, x, as_gev=True)
    winner = {
        stat: min(("BGEV", "GEV"), key=lambda m: getattr(bgev_row if m == "BGEV" else gev_row, stat))
        for stat in ("ks", "ad", "neg2loglik")
    }
    return ComparisonReport(bgev=bgev_row, gev=gev_row, winner=winner, n=x.size)


# ----------------------------------------------------------------------------
# plot data

_GRID_POINTS = 512  # density.csv grid size


def _fd_bin_count(x: np.ndarray) -> int:
    q75, q25 = np.percentile(x, [75, 25])
    iqr = q75 - q25
    if iqr <= 0:
        return 16
    width = 2.0 * iqr / x.size ** (1.0 / 3.0)
    span = float(x.max() - x.min())
    return int(np.clip(math.ceil(span / width), 1, 512))


def emit_plot_data(
    report: ComparisonReport,
    b: BlockMaxima,
    out_dir,
    bins: int | None = None,
) -> list[Path]:
    """Write histogram, fitted-density and QQ plot data as CSV files.

    histogram.csv: bin_left, bin_right, count, density (Freedman-Diaconis
    bin count unless overridden); density.csv: a 512-point grid over the
    data range with both fitted densities; qq_bgev.csv / qq_gev.csv: one
    (theoretical, empirical) pair per observation.  Output is deterministic
    for fixed inputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    x = np.asarray(b.maxima, dtype=float)
    written: list[Path] = []

    nbins = bins if bins is not None else _fd_bin_count(x)
    counts, edges = np.histogram(x, bins=nbins)
    dens = counts / (counts.sum() * np.diff(edges))
    hist_path = out / "histogram.csv"
    with hist_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_left,bin_right,count,density\n")
        for i in range(nbins):
            fh.write(f"{format_float(edges[i])},{format_float(edges[i + 1])},{counts[i]},{format_float(dens[i])}\n")
    written.append(hist_path)

    pad = 0.05 * (x.max() - x.min())
    grid = np.linspace(x.min() - pad, x.max() + pad, _GRID_POINTS)
    pdf_b = np.asarray(bgev_pdf(grid, report.bgev.params_internal))
    pdf_g = np.asarray(bgev_pdf(grid, report.gev.params_internal))
    dens_path = out / "density.csv"
    with dens_path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,pdf_bgev,pdf_gev\n")
        for xi_, pb, pg in zip(grid, pdf_b, pdf_g):
            fh.write(f"{format_float(xi_)},{format_float(pb)},{format_float(pg)}\n")
    written.append(dens_path)

    for label, row in (("bgev", report.bgev), ("gev", report.gev)):
        qq_path = out / f"qq_{label}.csv"
        with qq_path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("theoretical,empirical\n")
            for t, e in row.qq:
                fh.write(f"{format_float(t)},{format_float(e)}\n")
        written.append(qq_path)

    return written


def comparison_to_text(report: ComparisonReport) -> str:
    lines = [
        f"{'model':<6} {'mu':>12} {'sigma':>12} {'xi':>12} {'delta':>12} "
        f"{'KS':>10} {'AD':>12} {'-2loglik':>14} {'conv':>5}"
    ]
    for row in (report.bgev, report.gev):
        lines.append(
            f"{row.model:<6} {row.mu:>12.4f} {row.sigma:>12.4f} {row.xi:>12.4f} {row.delta:>12.4f} "
            f"{row.ks:>10.5f} {row.ad:>12.4f} {row.neg2loglik:>14.4f} {str(row.converged):>5}"
        )
    lines.append(
        "winner: "
        + ", ".join(f"{stat}={who}" for stat, who in sorted(report.winner.items()))
    )
    return "\n".join(lines) + "\n"


def comparison_to_csv(report: ComparisonReport) -> str:
    lines = ["model,mu,sigma,xi,delta,ks,ad,neg2loglik,converged"]
    for row in (report.bgev, report.gev):
        lines.append(
            ",".join(
                [
                    row.model,
                    format_float(row.mu),
                    format_float(row.sigma),
                    format_float(row.xi),
                    format_float(row.delta),
                    format_float(row.ks),
                    format_float(row.ad),
                    format_float(row.neg2loglik),
                    str(row.converged),
                ]
            )
        )
    return "\n".join(lines) + "\n"
