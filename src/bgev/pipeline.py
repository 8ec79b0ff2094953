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
import os
import re
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from stat import S_ISREG

import numpy as np

from .distribution import cdf as bgev_cdf
from .distribution import pdf as bgev_pdf
from .distribution import quantile as bgev_quantile
from .distribution import sf as bgev_sf
from .gof import gof_report
from .mle import FitResult, default_start, fit_mle, fit_mle_rows
from .params import (
    START_PRESETS,
    BgevParams,
    InfeasibleStartError,
    InputDataError,
    NotConvergedError,
    csv_text,
    write_text,
)

__all__ = [
    "InputDataError",
    "NotConvergedError",
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


@dataclass(frozen=True)
class SeriesFile:
    """A series read by ``ingest``.

    ``rows[i]`` is the data-row index of ``values[i]``, counted from 0 over
    the rows below the header; a blank line is not a data row.  The file
    has ``values.size + skipped`` data rows, so a skipped value leaves a gap
    in ``rows`` rather than shifting the values after it.
    """

    rows: np.ndarray
    values: np.ndarray
    path: str
    time_column: str | None
    value_column: str
    skipped: int

    def __post_init__(self):
        if len(self.rows) != len(self.values):
            raise InputDataError("rows and values must have equal length")


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


def _is_header(first_row: list[str]) -> bool:
    """A first row is a header iff some non-blank token in it is not a number."""
    return any(tok.strip() and _parse_float(tok) is None for tok in first_row)


def _columns(first_row: list[str], has_header: bool, value_column, time_column) -> tuple[list[str], int, int | None]:
    """Column names and the value and time column indices (time None when
    there is none) laid out by the first non-blank row."""
    ncol = len(first_row)
    names = [tok.strip() for tok in first_row] if has_header else [str(i) for i in range(ncol)]
    v_idx = _resolve_column(value_column, names, default=ncol - 1)
    t_idx = None
    if ncol >= 2:
        t_idx = _resolve_column(time_column, names, default=0)
        if t_idx == v_idx:
            t_idx = None
    elif time_column is not None:
        raise InputDataError("time column requested but the file has a single column")
    return names, v_idx, t_idx


def _stamp(file) -> tuple[int, int, int] | None:
    """(st_ino, st_size, st_mtime_ns) of a regular file given by path or
    descriptor; None for a pipe, a device, any other kind of file, or one
    that cannot be found."""
    try:
        st = os.stat(file)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns) if S_ISREG(st.st_mode) else None


def _read(path) -> tuple[str, str, tuple[int, int, int] | None]:
    """The file's text, its delimiter (a tab when the first non-blank line
    holds one, else a comma) and its ``_stamp`` as it was read."""
    try:
        with open(path, encoding="utf-8") as f:
            stamp = _stamp(f.fileno())
            text = f.read()
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    if not text:
        raise InputDataError(f"{path}: file is empty")
    top, eol = _first_line(text)
    return text, "\t" if "\t" in text[top:eol] else ",", stamp


def _first_line(text: str) -> tuple[int, int]:
    """Where the first non-blank line of ``text`` starts and ends (at its
    line end, or at the end of the text); no slice of the text beyond it is
    copied."""
    top = len(text) - len(text.lstrip("\n"))
    eol = text.find("\n", top)
    return top, eol if eol >= 0 else len(text)


def _check_increasing(path, times: np.ndarray) -> None:
    if np.any(times[1:] <= times[:-1]):  # not np.diff, whose inf - inf is nan
        raise InputDataError(f"{path}: timestamps are not strictly increasing")


def _has_long_line(text: str, limit: int) -> bool:
    """True when some line of ``text`` is longer than ``limit`` characters;
    the scan jumps ``limit`` characters at a time."""
    pos = 0  # the start of a line
    while len(text) - pos > limit:
        nl = text.rfind("\n", pos, pos + limit + 1)
        if nl < 0:
            return True
        pos = nl + 1
    return False


# characters per block of the missing-field scan: its byte and mask arrays
# stay about this small however long the file
_SCAN_CHARS = 1 << 18


def _fill_missing(text: str, start: int, delimiter: str) -> str | None:
    """``text[start:]`` with "nan" in every missing field, or None where
    no field is missing; ``start`` is 0 or follows a line end.  A field is
    missing where it is empty in a line that has a delimiter (a blank line
    stays blank) or where it is a whole ``NA`` or ``#N/A``, the markers R
    and spreadsheets write.  Field edges are the delimiter and the line
    ends, with one before the body and one after the text: an empty field
    lies between two adjacent edges, one of them a delimiter, and a marker
    between two edges around an "N".  One numpy scan of the UTF-8 bytes
    finds both, since no continuation byte equals an ASCII one.  It takes a
    block of whole lines at a time, each ending at the first line end at or
    after ``_SCAN_CHARS`` characters, so no field straddles two blocks."""
    filled, bounds = {}, [start]  # block start: the block filled in; block bounds
    while bounds[-1] < len(text):
        lo = bounds[-1]
        hi = text.find("\n", lo + _SCAN_CHARS - 1) + 1 or len(text)
        bounds.append(hi)
        # a line end before the block and one after it, then two bytes more
        # for the look-ahead past a final "N"
        b = ("\n" + text[lo:hi] + "\n\n\n").encode()
        u = np.frombuffer(b, np.uint8)
        sep = u == ord(delimiter)
        edge = u == ord("\n")
        edge |= sep
        pairs = np.flatnonzero(edge[:-1] & edge[1:])  # empty fields and blank lines
        starts = ends = pairs[sep[pairs] | sep[pairs + 1]] + 1  # each empty field is a cut
        if b"N" in b:  # each whole marker is a cut that drops its bytes
            n = np.flatnonzero(u == ord("N"))
            na = n[u[n + 1] == ord("A")]
            na = na[edge[na - 1] & edge[na + 2]]
            hs = n[u[n + 1] == ord("/")] - 1  # where a "#N/A" would start
            # hs - 1 wraps at hs = 0 only, whose byte is the line end put first
            hs = hs[(u[hs] == ord("#")) & (u[hs + 3] == ord("A")) & edge[hs - 1] & edge[hs + 4]]
            if na.size or hs.size:
                starts = np.sort(np.concatenate([starts, na, hs]))
                ends = np.sort(np.concatenate([ends, na + 2, hs + 4]))
        if starts.size:  # the block's bytes between one cut's end and the next one's start
            kept, view = zip([1, *ends.tolist()], [*starts.tolist(), len(b) - 3]), memoryview(b)
            filled[lo] = b"nan".join(view[i:j] for i, j in kept).decode()
    if not filled:
        return None
    return "".join(filled.get(lo) or text[lo:hi] for lo, hi in zip(bounds, bounds[1:]))


def ingest(
    path,
    value_column: int | str | None = None,
    time_column: int | str | None = None,
    missing: str = "skip",
) -> SeriesFile:
    """Read a delimited text file (comma or tab) into a series.

    The delimiter is a tab when the first non-blank line holds one.  The
    header row is optional: the first row is one iff some non-blank token
    in it does not parse as a number.  With two or more columns the first
    defaults to timestamps and the last to values; both defaults can be
    overridden by name or index.  Missing, non-numeric and non-finite (nan,
    inf) values are skipped and counted under the "skip" policy and abort
    under "fail"; a skipped value keeps its data row (see ``SeriesFile``).
    When numeric timestamps are present they must be strictly increasing.
    A file that cannot be read or parsed raises InputDataError.

    The body below the header is read column-wise by one ``np.loadtxt``
    call, with each empty, ``NA`` or ``#N/A`` field read as the nan that
    one scan of the body (``_fill_missing``) writes in; under "skip" such
    a value or a non-finite one is skipped there as the row parser would
    skip it.  That call reads the file itself, in chunks and past the lines
    above the body, when the file is a regular one, the body needed no
    field filled in, and the file's inode, size and modification time are
    after the parse what they were when it was read; a pipe or
    ``/dev/stdin``, a filled-in body, a compressed-file name or a file
    changed in between is parsed from the text already read.

    A file that call cannot read goes to the row parser, which gives the
    same result and alone names the ``file:line`` of a bad value.  Those
    are files with a quote, a NUL or a line longer than the csv field limit
    anywhere, a short or whitespace-only line, another non-numeric value or
    time field, or a missing timestamp in a row whose value is kept, and
    under "fail" files with a missing value.  Files with non-numeric (say
    ISO 8601) timestamps are therefore read at the row parser's speed.
    """
    if missing not in ("skip", "fail"):
        raise InputDataError(f"missing-value policy must be 'skip' or 'fail', got {missing!r}")
    text, delimiter, stamp = _read(path)
    s = _ingest_columns(path, text, delimiter, stamp, value_column, time_column, missing)
    return s if s is not None else _ingest_rows(path, text, delimiter, value_column, time_column, missing)


# matches at a position followed by line ends only
_BLANK_LINES = re.compile(r"\n*\Z")

# names np.loadtxt decompresses when handed a path
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _load_body(path, stamp, text: str, start: int, **kw) -> np.ndarray:
    """``np.loadtxt`` of the body ``text[start:]``.  numpy reads a path in
    chunks but a StringIO one line at a time, so it reads the file itself,
    past the lines above the body, when ``stamp`` is given and the file
    still has it after the parse: ``text`` is then the file's text as read
    with that stamp.  Any other input (a pipe, a body that was filled in, a
    file changed since it was read) is parsed from the text."""
    if stamp is not None and not str(path).endswith(_COMPRESSED):
        skip = text.count("\n", 0, start)
        try:
            # an absolute path: numpy's opener fetches what parses as a URL
            table = np.loadtxt(os.path.abspath(path), skiprows=skip, encoding="utf-8", **kw)
        except OSError:
            pass
        except ValueError:
            if _stamp(path) == stamp:
                raise
        else:
            if _stamp(path) == stamp:
                return table
    return np.loadtxt(io.StringIO(text[start:]), **kw)


def _ingest_columns(
    path, text: str, delimiter: str, stamp, value_column, time_column, missing: str
) -> SeriesFile | None:
    """``ingest`` by one ``np.loadtxt`` call over the body, or None where
    the row parser must read the file."""
    # quotes, NULs (csv.Error before Python 3.11) and over-long fields
    # (csv.Error) are where csv and a plain split on the delimiter disagree
    if '"' in text or "\0" in text or _has_long_line(text, _csv.field_size_limit()):
        return None
    # the body is text[start:], never copied out of a file read by its path
    top, eol = _first_line(text)
    first_row = next(_csv.reader([text[top:eol]], delimiter=delimiter))
    has_header = _is_header(first_row)
    start = min(eol + 1, len(text)) if has_header else top
    if _BLANK_LINES.match(text, start):
        return None
    names, v_idx, t_idx = _columns(first_row, has_header, value_column, time_column)
    body, at = text, start  # the text that holds the body, and where
    filled = _fill_missing(text, start, delimiter)
    if filled is not None:
        body, at, stamp = filled, 0, None  # parsed from the filled text
    try:
        table = _load_body(
            path,
            stamp,
            body,
            at,
            delimiter=delimiter,
            usecols=(v_idx,) if t_idx is None else (t_idx, v_idx),
            comments=None,
            ndmin=2,
            dtype=float,
        )
    except ValueError:
        return None
    kept = np.isfinite(table[:, -1])
    if not kept.any() or (missing == "fail" and not kept.all()):
        return None  # the row parser finds no value or names the bad line
    if t_idx is not None:
        times = table[kept, 0]
        if np.isnan(times).any():
            return None  # a blank timestamp: the row parser checks no order
        _check_increasing(path, times)
    rows = np.flatnonzero(kept)
    return SeriesFile(
        rows=rows,
        values=table[kept, -1],
        path=str(path),
        time_column=names[t_idx] if t_idx is not None else None,
        value_column=names[v_idx],
        skipped=kept.size - rows.size,
    )


def _ingest_rows(path, text: str, delimiter: str, value_column, time_column, missing: str) -> SeriesFile:
    """``ingest`` by one csv row at a time: the exact reference parser."""
    # row i is line i + 1 (a blank line reads as []); no field of a series
    # file is a quoted one spanning lines
    try:
        rows = list(_csv.reader(io.StringIO(text), delimiter=delimiter))
    except _csv.Error as exc:
        raise InputDataError(f"{path}: {exc}") from exc
    first = next((i for i, r in enumerate(rows) if r), None)
    if first is None:
        raise InputDataError(f"{path}: file holds no data rows")

    first_row = rows[first]
    has_header = _is_header(first_row)
    if has_header:
        first += 1
        if not any(islice(rows, first, None)):
            raise InputDataError(f"{path}: header only, no data rows")
    names, v_idx, t_idx = _columns(first_row, has_header, value_column, time_column)

    times: list[str] = []
    values: list[float] = []
    gaps: list[int] = []  # data-row indices of the skipped values
    for lineno, row in enumerate(islice(rows, first, None), start=first + 1):
        if not row:
            continue
        tok = row[v_idx].strip() if v_idx < len(row) else ""
        v = _parse_float(tok)
        if v is None or not math.isfinite(v):
            if missing == "fail":
                raise InputDataError(f"{path}:{lineno}: value {tok!r} is missing or not a finite number")
            gaps.append(len(values) + len(gaps))
            continue
        values.append(v)
        if t_idx is not None:
            times.append(row[t_idx].strip() if t_idx < len(row) else "")

    if not values:
        raise InputDataError(f"{path}: no numeric values found in column {names[v_idx]!r}")

    if t_idx is not None:
        try:
            tv = np.array([float(t) for t in times])
        except ValueError:
            pass  # non-numeric timestamps carry no order to check
        else:
            _check_increasing(path, tv)

    return SeriesFile(
        rows=np.delete(np.arange(len(values) + len(gaps)), gaps),
        values=np.asarray(values, dtype=float),
        path=str(path),
        time_column=names[t_idx] if t_idx is not None else None,
        value_column=names[v_idx],
        skipped=len(gaps),
    )


def block_maxima(s: SeriesFile | np.ndarray, block_size: int) -> BlockMaxima:
    """Maxima of consecutive non-overlapping blocks of ``block_size`` data
    rows.  A skipped value leaves its row empty, so later blocks keep their
    place, and a block left with no value raises.  The values of a trailing
    partial block are dropped and counted in ``dropped``.  An array is a
    series without gaps.  A nan or infinite value raises: none is a
    reading, and -inf would pass for an empty row."""
    if isinstance(s, SeriesFile):
        values, rows, n = s.values, s.rows, s.values.size + s.skipped
    else:
        values = np.asarray(s, dtype=float)
        rows, n = np.arange(values.size), values.size
    bad = values.size - int(np.count_nonzero(np.isfinite(values)))
    if bad:
        raise InputDataError(f"{bad} of the series' {values.size} values are not finite (nan or inf)")
    if block_size < 1:
        raise InputDataError(f"block size must be >= 1, got {block_size}")
    if n < block_size:
        raise InputDataError(f"series of length {n} is shorter than one block of {block_size}")
    nblocks = n // block_size
    filled = np.full(n, -np.inf)
    filled[rows] = values
    maxima = filled[: nblocks * block_size].reshape(nblocks, block_size).max(axis=1)
    empty = np.flatnonzero(maxima == -np.inf)
    if empty.size:
        j = int(empty[0])
        raise InputDataError(f"block {j} (data rows {j * block_size}-{(j + 1) * block_size - 1}) holds no value")
    dropped = values.size - int(np.searchsorted(rows, nblocks * block_size))
    return BlockMaxima(block_size=block_size, maxima=maxima, dropped=dropped)


def standardize(b: BlockMaxima) -> BlockMaxima:
    """Center and scale the maxima to zero mean and unit sample standard
    deviation (n-1 denominator).  The original mean and sd are kept so
    fitted quantiles can be mapped back to the data scale.  Maxima that are
    not all finite raise."""
    bad = b.maxima.size - int(np.count_nonzero(np.isfinite(b.maxima)))
    if bad:
        raise InputDataError(f"cannot standardize: {bad} of the {b.maxima.size} block maxima are not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        m = float(np.mean(b.maxima))
        sd = float(np.std(b.maxima, ddof=1)) if b.maxima.size > 1 else 0.0
    if not (math.isfinite(m) and math.isfinite(sd)):
        raise InputDataError("cannot standardize: the spread of the block maxima overflows a float")
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


# comparison.csv columns, each a ModelAssessment field
COMPARISON_FIELDS = ("model", "mu", "sigma", "xi", "delta", "ks", "ad", "neg2loglik", "converged")


@dataclass(frozen=True)
class ComparisonReport:
    bgev: ModelAssessment
    gev: ModelAssessment
    winner: dict[str, str]
    n: int


def _assess(name: str, fit: FitResult, x: np.ndarray, as_gev: bool) -> ModelAssessment:
    th = fit.theta_hat
    try:
        gof = gof_report(x, lambda v: bgev_cdf(v, th), lambda q: bgev_quantile(q, th), lambda v: bgev_sf(v, th))
    except ValueError as exc:
        if fit.converged:
            raise
        # an end point short of a maximum can put data on its support's edge
        why = f"the {name} fit did not converge ({fit.stop}) and its KS/AD cannot be computed"
        raise NotConvergedError(f"{why}: {exc}") from exc
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
    is one ``fit_mle_rows`` call from its own start (default_start unless
    given; left out where infeasible or where default_start finds none) and
    from the GEV solution, keeping the better optimum, so a converged BGEV
    never scores worse than the nested GEV.  A fit that fails to converge is
    reported as such without aborting the other model, unless KS/AD cannot
    be computed at its end point, which raises NotConvergedError.
    """
    x = np.asarray(b.maxima, dtype=float)
    try:
        gev_fit = fit_mle(x, _gev_moment_start(x), {"delta": 0.0})
    except InfeasibleStartError:
        gev_fit = fit_mle(x, default_start(x), {"delta": 0.0})

    # warm start at the GEV optimum, whose pinned delta is exactly 0.0
    starts = [gev_fit.theta_hat]
    try:
        starts.insert(0, bgev_start or default_start(x))
    except InfeasibleStartError:
        pass
    fits = fit_mle_rows(np.broadcast_to(x, (len(starts), x.size)), starts)
    if isinstance(fits[-1], InfeasibleStartError):
        raise fits[-1]
    bgev_fit = min((f for f in fits if isinstance(f, FitResult)), key=lambda r: r.neg2loglik)

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


def _quartiles(x: np.ndarray) -> tuple[float, float]:
    """``np.percentile(x, [25, 75])`` of a 1-D array (linear method), from
    one partition and numpy's own interpolation; ``np.percentile`` imports
    numpy.ma."""
    n = x.size
    at = [(n - 1) * 0.25, (n - 1) * 0.75]
    lo = [math.floor(v) for v in at]
    hi = [min(i + 1, n - 1) for i in lo]
    part = np.partition(x, [*lo, *hi, -1])
    if math.isnan(part[-1]):
        return math.nan, math.nan
    q = []
    for v, i, j in zip(at, lo, hi):
        a, b, t = float(part[i]), float(part[j]), v - i
        q.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return q[0], q[1]


def _fd_bin_count(x: np.ndarray) -> int:
    q25, q75 = _quartiles(x)
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
    """Write histogram, fitted-density and QQ plot data as CSV files into
    ``out_dir`` and return their paths in this order.

    histogram.csv: bin_left, bin_right, count, density (Freedman-Diaconis
    bin count unless overridden); density.csv: x, pdf_bgev, pdf_gev on a
    512-point grid over the data range; qq_bgev.csv / qq_gev.csv:
    theoretical, empirical, one pair per observation.  Every file is a
    header row and numpy columns given to ``csv_text``, which formats them
    in blocks, written by ``write_text``, so output is byte-identical for
    fixed inputs.  Every file's text is made before the first is written.
    """
    x = np.asarray(b.maxima, dtype=float)
    nbins = bins if bins is not None else _fd_bin_count(x)
    counts, edges = np.histogram(x, bins=nbins)
    dens = counts / (counts.sum() * np.diff(edges))
    pad = 0.05 * (x.max() - x.min())
    grid = np.linspace(x.min() - pad, x.max() + pad, _GRID_POINTS)
    pdf_b = np.asarray(bgev_pdf(grid, report.bgev.params_internal))
    pdf_g = np.asarray(bgev_pdf(grid, report.gev.params_internal))
    tables = {
        "histogram.csv": (("bin_left", "bin_right", "count", "density"), edges[:-1], edges[1:], counts, dens),
        "density.csv": (("x", "pdf_bgev", "pdf_gev"), grid, pdf_b, pdf_g),
        "qq_bgev.csv": (("theoretical", "empirical"), *report.bgev.qq.T),
        "qq_gev.csv": (("theoretical", "empirical"), *report.gev.qq.T),
    }
    out = Path(out_dir)
    texts = {out / name: csv_text([header], columns) for name, (header, *columns) in tables.items()}
    out.mkdir(parents=True, exist_ok=True)
    for path, text in texts.items():
        write_text(path, text)
    return list(texts)


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
    rows = ([getattr(row, f) for f in COMPARISON_FIELDS] for row in (report.bgev, report.gev))
    return csv_text([COMPARISON_FIELDS, *rows])
