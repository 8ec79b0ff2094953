"""Monte Carlo evaluation of the maximum-likelihood estimator.

One cell draws m replicate samples of size n at a known parameter vector,
refits them from "truth plus uniform(0,1)" starts and aggregates empirical
mean, bias and mean squared error per parameter.  The scale parameter is
held at its true value during the refits, mirroring the three-parameter
(xi, mu, delta) study design the tables follow; the free parameters are
exactly the columns of the report.

A suite fits all the cells of one (n, sigma) together: their replicates
are stacked and refitted by one ``fit_mle_rows`` call, one trust-region
Newton run on every replicate in lockstep.  A replicate whose fit did not
reach Newton's stop is dropped.  Each replicate's fit is exactly
the one ``fit_mle`` gives it alone, so the report of a cell is the same
whichever cells share its fit, and ``run_cell`` is the one-cell case.
Failures stay per cell: a cell whose draw fails or that loses more
replicates than its budget errors alone.

Seeding is splittable: replicate r of a cell with seed s uses the stream
seeded by (s, r), so serial and parallel executions produce identical
output, byte for byte.
"""

from __future__ import annotations

import configparser
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import product

import numpy as np

from .distribution import _UNIFORM_RANGE, quantile
from .likelihood import kernel
from .mle import _checked_space, fit_mle_rows
from .params import BgevParams, InfeasibleStartError, csv_text

__all__ = [
    "FREE_PARAMS",
    "SimConfig",
    "SimReport",
    "SimCellError",
    "run_cell",
    "run_cells",
    "run_suite",
    "load_suite_config",
    "reports_to_csv",
    "reports_to_table",
    "CSV_HEADER",
]

FREE_PARAMS = ("xi", "mu", "delta")

# results.csv columns: the truth, the cell's size and seed, each statistic
# of each free parameter, and the failure count
_TRUTH_FIELDS = ("xi", "mu", "sigma", "delta")
_CELL_FIELDS = ("n", "m", "seed")
_STATS = ("mean", "bias", "mse")
CSV_FIELDS = (*_TRUTH_FIELDS, *_CELL_FIELDS, *(f"{s}_{k}" for s in _STATS for k in FREE_PARAMS), "failures")
CSV_HEADER = ",".join(CSV_FIELDS)

_DELTA_MARGIN = 1e-6
_XI_MARGIN = 1e-6
_MAX_FAILURE_RATE = 0.2  # share of a cell's replicates that may fail before it errors
# a batch's size in float64 values: each replicate holds its n data values
# and about _REPLICATE_VALUES more (measured: 1.9 KB a replicate at n = 50)
# in its fit's arrays and result objects; one shared fit takes at most
# _BATCH_VALUES (2 MB), or one larger cell
_BATCH_VALUES = 2**18
_REPLICATE_VALUES = 256


class SimCellError(RuntimeError):
    """Raised when a cell loses more replicates than its failure budget."""


@dataclass(frozen=True)
class SimConfig:
    """One study cell: true parameters, sample size, replicate count, seed."""

    truth: BgevParams
    n: int
    m: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n < 8:
            raise ValueError("n must be >= 8")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class SimReport:
    """Aggregates of one cell.  drops counts the failed replicates by cause:
    "infeasible_start", or "not_converged:step_cap" and
    "not_converged:no_ascent" by how the fit's run ended (``FitResult.stop``).
    wall_time is the time the ``run_cells`` call the cell ran in took to
    draw, start and fit all its cells, the same for every cell of that
    call.  Both are diagnostics: they take no part in
    comparisons and are written to no output file."""

    config: SimConfig
    mean: dict[str, float]
    bias: dict[str, float]
    mse: dict[str, float]
    failures: int
    replicates_used: int
    wall_time: float = field(compare=False)
    drops: dict[str, int] = field(compare=False, default_factory=dict)


def _screen(xs: np.ndarray) -> np.ndarray:
    """Three observations of each row of xs (m, n), at distinct places
    unless the row is constant: its minimum, the one of least magnitude
    among the rest, and its maximum.  ``_starts`` decides a candidate's
    feasibility on these.

    A candidate is feasible where every term of its log density is finite
    at every observation (``likelihood.log_density_terms``).  As
    w = x*|x|**delta increases with x for delta > -1, psi = 1 + xi*(sigma*w
    - mu) is monotone in x, and so are log(psi) and psi**(-1/xi): each of
    them is finite at every observation if it is at the minimum and the
    maximum (Coles 2001, section 3.1: psi > 0 is a half-line).  The one
    step that is not monotone is |x|**delta, which for delta < 0 overflows
    first at the observations of least magnitude (|x| below about 4e-312
    at delta = -0.99); an observation at the origin, infeasible at every
    delta != 0, is the one of least magnitude."""
    r = np.arange(len(xs))
    lo, hi = xs.argmin(axis=1), xs.argmax(axis=1)
    mag = np.abs(xs)
    mag[r, lo] = np.inf
    mag[r, hi] = np.inf
    return xs[r[:, None], np.column_stack([lo, mag.argmin(axis=1), hi])]


def _starts(truths: list[BgevParams], xs: np.ndarray, shifts: np.ndarray) -> list[BgevParams]:
    """Each replicate's start: its truth plus lam times its shift, a row of
    shifts in FREE_PARAMS order, at the first lam in 1, 1/2, 1/4, ... (40
    tries) that puts its data, the same row of xs, inside the support,
    else the truth itself.  delta is kept _DELTA_MARGIN above -1 and |xi|
    at least _XI_MARGIN, on the truth's side of 0.  All replicates are
    tried at once, with one order-0 kernel call per shrink step on the
    three observations of each replicate that ``_screen`` takes, so no
    whole sample is evaluated here: the fit's own evaluation of its start
    is the one.  The arithmetic is elementwise, so each start is that of
    its replicate alone.

    The three are observations of the replicate, and the kernel's value
    for an observation does not depend on the others, so a candidate
    rejected here has a term that is not finite, or finite terms that
    already sum past the float range, and a whole-sample evaluation
    rejects it too.  A candidate accepted here has every term finite.  The
    one edge is a sample whose finite terms sum past the float range
    (psi**(-1/xi) near the float maximum): its start is kept here, and its
    fit reports it as an infeasible start where a whole-sample evaluation
    would have shrunk it further."""
    truth = np.array([[t.xi, t.mu, t.sigma, t.delta] for t in truths]).reshape(-1, 4)
    screen = _screen(xs)
    starts = list(truths)
    todo = np.arange(len(truths))
    lam = 1.0
    for _ in range(40):
        t, shift = truth[todo], shifts[todo]
        xi = t[:, 0] + lam * shift[:, 0]
        mu = t[:, 1] + lam * shift[:, 1]
        delta = np.maximum(t[:, 3] + lam * shift[:, 2], -1.0 + _DELTA_MARGIN)
        xi = np.where(np.abs(xi) < _XI_MARGIN, np.where(t[:, 0] > 0, _XI_MARGIN, -_XI_MARGIN), xi)
        rows = np.column_stack([mu, t[:, 2], delta, xi])  # likelihood.PARAM_ORDER
        ok = np.isfinite(kernel(rows, screen, 0, todo))
        for r, (mu_r, sg_r, dl_r, xi_r) in zip(todo[ok].tolist(), rows[ok].tolist()):
            starts[r] = BgevParams(xi=xi_r, mu=mu_r, sigma=sg_r, delta=dl_r)
        todo = todo[~ok]
        if not todo.size:
            break
        lam *= 0.5
    return starts


def _draw(cfg: SimConfig, xs: np.ndarray) -> np.ndarray:
    """Draw the cell's m samples into the rows of xs (m, n), replicate r
    from the (seed, r) stream, and return each replicate's start shift.

    Each stream gives its n uniforms, as ``sample`` draws them, and then
    the shift; the clipped uniforms of the whole cell go through one
    ``quantile`` call with the cell's truth.  The map is elementwise with
    scalar parameters, so each row is bitwise ``sample``'s draw."""
    shifts = np.empty((cfg.m, len(FREE_PARAMS)))
    for r in range(cfg.m):
        rng = np.random.default_rng([cfg.seed, r])
        xs[r] = rng.random(cfg.n)
        shifts[r] = rng.random(len(FREE_PARAMS))
    np.clip(xs, *_UNIFORM_RANGE, out=xs)
    xs[:] = quantile(xs, cfg.truth)
    return shifts


def _report(cfg: SimConfig, fits: list, wall_time: float) -> SimReport:
    """Aggregate one cell's fits, or raise SimCellError over its budget."""
    truth = cfg.truth
    estimates: list[tuple[float, float, float]] = []
    drops: Counter[str] = Counter()
    for res in fits:
        if isinstance(res, InfeasibleStartError):
            drops["infeasible_start"] += 1
        elif not res.converged:
            drops[f"not_converged:{res.stop}"] += 1
        else:
            th = res.theta_hat
            estimates.append((th.xi, th.mu, th.delta))
    failures = sum(drops.values())

    if failures > _MAX_FAILURE_RATE * cfg.m:
        raise SimCellError(
            f"{failures}/{cfg.m} replicates failed (budget {_MAX_FAILURE_RATE:.0%}) "
            f"for cell truth={truth}, n={cfg.n}, seed={cfg.seed}"
        )
    est = np.asarray(estimates)
    true_vec = np.array([truth.xi, truth.mu, truth.delta])
    mean = est.mean(axis=0)
    bias = mean - true_vec
    mse = ((est - true_vec) ** 2).mean(axis=0)
    return SimReport(
        config=cfg,
        mean=dict(zip(FREE_PARAMS, map(float, mean))),
        bias=dict(zip(FREE_PARAMS, map(float, bias))),
        mse=dict(zip(FREE_PARAMS, map(float, mse))),
        failures=failures,
        replicates_used=len(estimates),
        wall_time=wall_time,
        drops=dict(drops),
    )


def run_cells(cfgs: list[SimConfig]) -> list[SimReport | Exception]:
    """Run cells that share n and the true sigma with one shared fit.

    Every replicate of every cell is drawn from its own (seed, r) stream
    into one stacked (sum of m, n) array, with one quantile map per cell;
    the starts of all of them come from one kernel call per shrink step
    on three observations of each replicate, and all of them are fitted
    by one ``fit_mle_rows`` call with sigma pinned; each start and fit is
    bitwise the replicate's alone.  Entry i is cell i's report or the
    exception that failed it: its draw or its data (the checks the shared
    fit makes on every sample, made per cell), its failure budget
    (SimCellError), or the shared starts and fit, which fail every cell of
    the call.  A report's wall_time is that of the whole call's draws,
    starts and fit.
    """
    t0 = time.perf_counter()
    n, sigma = cfgs[0].n, cfgs[0].truth.sigma
    if any(c.n != n or c.truth.sigma != sigma for c in cfgs):
        raise ValueError("cells fitted together must share n and sigma")
    fixed = {"sigma": sigma}
    bounds = np.cumsum([0, *(c.m for c in cfgs)]).tolist()
    xs = np.empty((bounds[-1], n))
    shifts = np.empty((bounds[-1], len(FREE_PARAMS)))
    out: list = [None] * len(cfgs)
    live = []  # the cells that drew cleanly
    for i, cfg in enumerate(cfgs):
        block = slice(bounds[i], bounds[i + 1])
        try:
            shifts[block] = _draw(cfg, xs[block])
            _checked_space(xs[block], fixed)
        except Exception as exc:  # noqa: BLE001 - one cell's draw fails that cell alone
            out[i] = exc
            continue
        live.append(i)
    if not live:
        return out
    if len(live) < len(cfgs):
        keep = np.concatenate([np.arange(bounds[i], bounds[i + 1]) for i in live])
        xs, shifts = xs[keep], shifts[keep]
    try:
        starts = _starts([cfgs[i].truth for i in live for _ in range(cfgs[i].m)], xs, shifts)
        fits = fit_mle_rows(xs, starts, fixed)
    except Exception as exc:  # noqa: BLE001 - recorded against every cell of the call
        for i in live:
            out[i] = exc
        return out
    wall_time = time.perf_counter() - t0
    at = 0
    for i in live:
        m = cfgs[i].m
        try:
            out[i] = _report(cfgs[i], fits[at : at + m], wall_time)
        except SimCellError as exc:
            out[i] = exc
        at += m
    return out


def run_cell(cfg: SimConfig) -> SimReport:
    """Run every replicate of one cell and aggregate the estimates.

    All m samples and their starts are drawn first, each from its own
    (seed, r) stream, and then fitted together by ``fit_mle_rows``.  Each
    replicate is refitted with sigma pinned to its true value, from a start
    whose free coordinates are the true values plus independent uniform(0,1)
    draws, shrunk toward the truth until the replicate's data are inside
    its support (the truth itself if no shrink gets there), as decided on
    three of its observations (``_starts``).  Non-convergent
    or infeasible replicates are excluded from the moments and counted by
    cause; more than a fifth of m of them raises SimCellError.  This is the
    one-cell case of ``run_cells``.
    """
    (res,) = run_cells([cfg])
    if isinstance(res, Exception):
        raise res
    return res


def _batches(cells: list[SimConfig], slices: int) -> list[list[int]]:
    """The indices of the cells each ``run_cells`` call takes.

    Cells are grouped by (n, sigma), each group is cut into at most slices
    contiguous runs of near-equal length, and each run again wherever its
    size would pass _BATCH_VALUES; a cell larger than that is a batch of
    its own."""
    groups: dict[tuple[int, float], list[int]] = {}
    for i, c in enumerate(cells):
        groups.setdefault((c.n, c.truth.sigma), []).append(i)
    batches: list[list[int]] = []
    for group in groups.values():
        k = min(slices, len(group))
        cuts = [len(group) * j // k for j in range(k + 1)]
        for lo, hi in zip(cuts, cuts[1:]):
            batch: list[int] = []
            size = 0
            for i in group[lo:hi]:
                values = cells[i].m * (cells[i].n + _REPLICATE_VALUES)
                if batch and size + values > _BATCH_VALUES:
                    batches.append(batch)
                    batch, size = [], 0
                batch.append(i)
                size += values
            batches.append(batch)
    return batches


def run_suite(
    cells: list[SimConfig], parallelism: int = 1
) -> tuple[list[SimReport | None], list[tuple[int, str]]]:
    """Run all cells, optionally across processes: at most parallelism
    workers and never more than there are cells, a pool of one being this
    process.

    The cells of one (n, sigma) are fitted together by ``run_cells``, in
    contiguous batches of at most _BATCH_VALUES values; a pool of k workers
    gets each group cut into at most k of them.  Every report is that of
    the cell run alone.

    Returns (reports, errors): reports holds one entry per cell in input
    order, None where the cell errored; errors pairs each failed cell index
    with its message, in index order.  Partial results are always
    preserved.
    """
    if not cells:
        raise ValueError("no cells to run")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    workers = min(parallelism, len(cells))  # a pool starts all its workers at once
    batches = _batches(cells, workers)
    tasks = [[cells[i] for i in batch] for batch in batches]
    if workers > 1:
        # imported here: the process pool costs every `import bgev` ~16 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = [pool.submit(run_cells, task).result for task in tasks]
    else:
        runs = [partial(run_cells, task) for task in tasks]
    outcomes: list = [None] * len(cells)
    for batch, run in zip(batches, runs):
        try:
            results = run()
        except Exception as exc:  # noqa: BLE001 - a batch's errors must not kill the suite
            results = [exc] * len(batch)
        for i, res in zip(batch, results):
            outcomes[i] = res
    reports: list[SimReport | None] = [None if isinstance(r, Exception) else r for r in outcomes]
    errors = [(i, str(r)) for i, r in enumerate(outcomes) if isinstance(r, Exception)]
    return reports, errors


def reports_to_csv(reports: list[SimReport | None]) -> str:
    """results.csv: the CSV_FIELDS header and one row per finished cell."""
    rows = (
        [
            *(getattr(r.config.truth, k) for k in _TRUTH_FIELDS),
            *(getattr(r.config, k) for k in _CELL_FIELDS),
            *(getattr(r, s)[k] for s in _STATS for k in FREE_PARAMS),
            r.failures,
        ]
        for r in reports
        if r is not None
    )
    return csv_text([CSV_FIELDS, *rows])


def reports_to_table(reports: list[SimReport | None]) -> str:
    """Human-readable table mirroring the study layout: empirical means,
    then bias, then MSE, one row per cell."""
    head = (
        f"{'n':>5} {'xi':>7} {'xi_hat':>9} {'mu':>7} {'mu_hat':>9} "
        f"{'delta':>7} {'delta_hat':>10} | {'bias_xi':>9} {'bias_mu':>9} {'bias_dl':>9} "
        f"| {'mse_xi':>9} {'mse_mu':>9} {'mse_dl':>9} | {'fail':>4}"
    )
    rows = [head, "-" * len(head)]
    for r in reports:
        if r is None:
            continue
        t = r.config.truth
        rows.append(
            f"{r.config.n:>5} {t.xi:>7.3g} {r.mean['xi']:>9.4f} {t.mu:>7.3g} {r.mean['mu']:>9.4f} "
            f"{t.delta:>7.3g} {r.mean['delta']:>10.4f} | "
            f"{r.bias['xi']:>9.4f} {r.bias['mu']:>9.4f} {r.bias['delta']:>9.4f} | "
            f"{r.mse['xi']:>9.5f} {r.mse['mu']:>9.5f} {r.mse['delta']:>9.5f} | {r.failures:>4}"
        )
    return "\n".join(rows) + "\n"


# the keys of a suite section, their types, and the defaults of the keys
# that take one value in a grid too
_SUITE_KEYS = {"xi": float, "mu": float, "delta": float, "n": int, "sigma": float, "m": int, "seed": int}
_SUITE_DEFAULTS = {"sigma": 1.0, "m": 100, "seed": 0}


def _values(where: str, raw: str, parse) -> list:
    """The comma- or blank-separated values of one key, each a finite float
    or an int by parse; where names the file, the section and the key."""
    toks = raw.replace(",", " ").split()
    if not toks:
        raise ValueError(f"{where}: no value")
    values = []
    for tok in toks:
        try:
            value = parse(tok)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{where}: {tok!r} is not {'an integer' if parse is int else 'a finite number'}")
        values.append(value)
    return values


def load_suite_config(path: str) -> list[SimConfig]:
    """Parse a suite description file into a list of cells.

    The file is INI-style.  A ``[grid NAME]`` (or plain ``[grid]``) section
    declares cross-products: xi, mu, delta and n take comma-separated lists,
    sigma (default 1), m (default 100) and seed (default 0) one value each,
    and cells are expanded in xi-outer, mu, delta, n-inner order with seeds
    seed, seed+1, ...  A ``[cell NAME]`` section is a one-point grid: the
    same keys, one value each.  A file that cannot be opened raises
    open's OSError, which names the path and the reason.  A file that is
    not UTF-8 or that configparser cannot read (a duplicate section or key,
    no section header) raises ValueError naming the file; any other fault
    raises ValueError (ParameterError for an inadmissible truth) naming the
    file and the section, and the key where there is one: an unknown
    section kind, a missing xi, mu, delta or n, an empty value, a value
    that is not a finite number (an integer for n, m and seed), several
    values where one is allowed, or a value SimConfig or BgevParams
    rejects.  Values take no ``%`` interpolation.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from exc
    cells: list[SimConfig] = []
    for section in parser.sections():
        sec = parser[section]
        kind = (section.split() or [""])[0].lower()
        if kind not in ("cell", "grid"):
            raise ValueError(f"{path}: [{section}] unknown section kind {kind!r} (expected 'cell ...' or 'grid ...')")
        lacking = [key for key in ("xi", "mu", "delta", "n") if key not in sec]
        if lacking:
            raise ValueError(f"{path}: [{section}] has no {', '.join(lacking)}")
        where = f"{path}: [{section}]"
        vals = {key: _values(f"{where} {key}", sec[key], parse) for key, parse in _SUITE_KEYS.items() if key in sec}
        for key, v in vals.items():
            if len(v) > 1 and (kind == "cell" or key in _SUITE_DEFAULTS):
                why = "a [cell] takes one value per key" if kind == "cell" else "takes one value"
                raise ValueError(f"{where} {key}: {why}, got {sec[key]!r}")
        sigma, m, seed = (vals.get(key, [default])[0] for key, default in _SUITE_DEFAULTS.items())
        axes = (vals["xi"], vals["mu"], vals["delta"], vals["n"])
        for idx, (xi, mu, dl, n) in enumerate(product(*axes)):
            try:
                truth = BgevParams(xi=xi, mu=mu, sigma=sigma, delta=dl)
                cells.append(SimConfig(truth=truth, n=n, m=m, seed=seed + idx))
            except ValueError as exc:
                raise type(exc)(f"{where} {exc}") from exc
    if not cells:
        raise ValueError(f"no cells defined in {path}")
    return cells
