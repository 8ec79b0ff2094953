"""Monte Carlo evaluation of the maximum-likelihood estimator.

One cell draws m replicate samples of size n at a known parameter vector,
refits them from "truth plus uniform(0,1)" starts and aggregates empirical
mean, bias and mean squared error per parameter.  The refits run as one
``fit_mle_rows`` call: damped Newton on all m replicates in lockstep, with
a replicate that Newton cannot finish handed on to the Nelder-Mead
fallback alone.  Each replicate's fit is exactly the one ``fit_mle`` gives
it alone, and a cell whose every replicate falls back is no special case.
The scale parameter is held at its true value during the refits, mirroring
the three-parameter (xi, mu, delta) study design the tables follow; the
free parameters are exactly the columns of the report.

Seeding is splittable: replicate r of a cell with seed s uses the stream
seeded by (s, r), so serial and parallel executions produce identical
output, byte for byte.
"""

from __future__ import annotations

import configparser
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .distribution import sample
from .likelihood import kernel
from .mle import InfeasibleStartError, fit_mle_rows
from .params import BgevParams, ParameterError, csv_text

__all__ = [
    "FREE_PARAMS",
    "SimConfig",
    "SimReport",
    "SimCellError",
    "run_cell",
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
    "infeasible_start", "parameter_error" or "not_converged:<stop>" with
    the fallback's stop.  Like wall_time it is a diagnostic: it takes no
    part in comparisons and is written to no output file."""

    config: SimConfig
    mean: dict[str, float]
    bias: dict[str, float]
    mse: dict[str, float]
    failures: int
    replicates_used: int
    wall_time: float = field(compare=False)
    drops: dict[str, int] = field(compare=False, default_factory=dict)


def _project_start(truth: BgevParams, shift: np.ndarray, lam: float) -> BgevParams:
    xi = truth.xi + lam * shift[0]
    mu = truth.mu + lam * shift[1]
    delta = max(truth.delta + lam * shift[2], -1.0 + _DELTA_MARGIN)
    if abs(xi) < _XI_MARGIN:
        xi = _XI_MARGIN if truth.xi > 0 else -_XI_MARGIN
    return BgevParams(xi=xi, mu=mu, sigma=truth.sigma, delta=delta)


def _starts(truth: BgevParams, xs: np.ndarray, shifts: np.ndarray) -> list[BgevParams]:
    """Each replicate's start: the truth plus lam times its shift, at the
    first lam in 1, 1/2, 1/4, ... (40 tries) that puts its data inside the
    support, else the truth itself.  All replicates are tried at once."""
    starts = [truth] * len(xs)
    todo = list(range(len(xs)))
    lam = 1.0
    for _ in range(40):
        cands = [_project_start(truth, shifts[r], lam) for r in todo]
        rows = np.array([[c.mu, c.sigma, c.delta, c.xi] for c in cands])
        ok = np.isfinite(kernel(rows, xs if len(todo) == len(xs) else xs[todo], 0)).tolist()
        for r, c, good in zip(todo, cands, ok):
            if good:
                starts[r] = c
        todo = [r for r, good in zip(todo, ok) if not good]
        if not todo:
            break
        lam *= 0.5
    return starts


def run_cell(cfg: SimConfig) -> SimReport:
    """Run every replicate of one cell and aggregate the estimates.

    All m samples and their starts are drawn first, each from its own
    (seed, r) stream, and then fitted together by ``fit_mle_rows``.  Each
    replicate is refitted with sigma pinned to its true value, from a start
    whose free coordinates are the true values plus independent uniform(0,1)
    draws, shrunk toward the truth until the replicate's data are inside
    its support (the truth itself if no shrink gets there).  Non-convergent
    or infeasible replicates are excluded from the moments and counted by
    cause; more than a fifth of m of them raises SimCellError.
    """
    t0 = time.perf_counter()
    truth = cfg.truth
    xs = np.empty((cfg.m, cfg.n))
    shifts = np.empty((cfg.m, len(FREE_PARAMS)))
    for r in range(cfg.m):
        rng = np.random.default_rng([cfg.seed, r])
        xs[r] = sample(cfg.n, truth, rng)
        shifts[r] = rng.random(len(FREE_PARAMS))

    fits = fit_mle_rows(xs, _starts(truth, xs, shifts), {"sigma": truth.sigma})
    estimates: list[tuple[float, float, float]] = []
    drops: Counter[str] = Counter()
    for res in fits:
        if isinstance(res, InfeasibleStartError):
            drops["infeasible_start"] += 1
        elif isinstance(res, ParameterError):
            drops["parameter_error"] += 1
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
        wall_time=time.perf_counter() - t0,
        drops=dict(drops),
    )


def run_suite(
    cells: list[SimConfig], parallelism: int = 1
) -> tuple[list[SimReport | None], list[tuple[int, str]]]:
    """Run all cells, optionally across processes: at most parallelism
    workers and never more than there are cells, a pool of one being this
    process.

    Returns (reports, errors): reports holds one entry per cell in input
    order, None where the cell errored; errors pairs each failed cell index
    with its message.  Partial results are always preserved.
    """
    if not cells:
        raise ValueError("no cells to run")
    reports: list[SimReport | None] = [None] * len(cells)
    errors: list[tuple[int, str]] = []
    workers = min(parallelism, len(cells))  # a pool starts all its workers at once
    if workers > 1:
        # imported here: the process pool costs every `import bgev` ~16 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_cell, c) for c in cells]
            for i, fut in enumerate(futures):
                try:
                    reports[i] = fut.result()
                except Exception as exc:  # noqa: BLE001 - cell errors must not kill the suite
                    errors.append((i, str(exc)))
    else:
        for i, c in enumerate(cells):
            try:
                reports[i] = run_cell(c)
            except Exception as exc:  # noqa: BLE001
                errors.append((i, str(exc)))
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


def _parse_floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _parse_ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def load_suite_config(path: str) -> list[SimConfig]:
    """Parse a suite description file into a list of cells.

    The file is INI-style.  A ``[grid NAME]`` (or plain ``[grid]``) section
    declares cross-products: xi, mu, delta and n take comma-separated lists,
    sigma (default 1), m (default 100) and seed (default 0) one value each,
    and cells are expanded in xi-outer, mu, delta, n-inner order with seeds
    seed, seed+1, ...  A ``[cell NAME]`` section is a one-point grid: the
    same keys, one value each.  A section without xi, mu, delta or n
    raises ValueError naming the file, the section and the keys; a file
    configparser cannot read (a duplicate section or key, no section
    header) raises ValueError naming the file.  Values take no ``%``
    interpolation.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"{path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise FileNotFoundError(path)
    cells: list[SimConfig] = []
    for section in parser.sections():
        sec = parser[section]
        kind = (section.split() or [""])[0].lower()
        if kind not in ("cell", "grid"):
            raise ValueError(f"unknown section kind {section!r} (expected 'cell ...' or 'grid ...')")
        lacking = [key for key in ("xi", "mu", "delta", "n") if key not in sec]
        if lacking:
            raise ValueError(f"{path}: [{section}] has no {', '.join(lacking)}")
        axes = (_parse_floats(sec["xi"]), _parse_floats(sec["mu"]), _parse_floats(sec["delta"]), _parse_ints(sec["n"]))
        points = list(product(*axes))
        if kind == "cell" and len(points) != 1:
            raise ValueError(f"[{section}] must give one value per key")
        sigma = sec.getfloat("sigma", 1.0)
        m = sec.getint("m", 100)
        seed = sec.getint("seed", 0)
        for idx, (xi, mu, dl, n) in enumerate(points):
            cells.append(SimConfig(truth=BgevParams(xi=xi, mu=mu, sigma=sigma, delta=dl), n=n, m=m, seed=seed + idx))
    if not cells:
        raise ValueError(f"no cells defined in {path}")
    return cells
