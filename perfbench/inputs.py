"""Deterministic workload inputs, generated from the workload seed.

The program under test only ever sees the files written here.  The series
generator is the benchmark's own numpy code (not ``bgev.sample``), so a
change to the program's sampler cannot change the inputs it is timed on.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HOURS_PER_DAY = 24
LONG_DAYS = 20 * 365  # 20 years of daily blocks, 175,200 hourly rows

# daily maxima law of the long series: the bimodal member the bundled
# series uses (xi, mu, sigma, delta)
LONG_LAW = (-0.25, -0.36, 1.0, 2.0)
LONG_MAXIMA_SEED = (0, 1)

# Monte Carlo suite: (xi, mu, delta) truths crossed with sample sizes
MC_TRUTHS = ((1.0, -1.0, 0.0), (0.5, 0.0, 2.0), (-0.25, 0.0, 2.0), (0.25, 1.0, -0.5))
MC_SIZES = (50, 250, 1000)
MC_SIGMA = 1.0
MC_REPLICATES = 20
MC_CELLS = len(MC_TRUTHS) * len(MC_SIZES)


def bgev_draws(rng: np.random.Generator, size: int, xi: float, mu: float, sigma: float, delta: float) -> np.ndarray:
    """Inverse-transform draws: a unit-scale GEV(xi, mu) variate y mapped
    back through the signed power transform T(x) = sigma * x * |x|**delta."""
    u = rng.random(size)
    y = mu + ((-np.log(u)) ** (-xi) - 1.0) / xi
    z = y / sigma
    return np.sign(z) * np.abs(z) ** (1.0 / (1.0 + delta))


def long_series(seed: int) -> np.ndarray:
    """175,200 hourly readings whose daily (block 24) maxima are i.i.d.
    draws from LONG_LAW; the other 23 readings of a day sit below the
    maximum by positive gaps.

    The set of daily maxima is the same for every seed and the seed only
    orders the days, places each maximum within its day and draws the
    other readings.  The optimizer's path, and with it the cost of a fit,
    differs by up to a third between two samples of 7,300 maxima, but not
    between orderings of one sample (the likelihood is a sum), so this
    keeps the fit's work fixed across seeds while the file, its parse and
    the serial-dependence test vary.
    """
    maxima = bgev_draws(np.random.default_rng(LONG_MAXIMA_SEED), LONG_DAYS, *LONG_LAW)
    rng = np.random.default_rng([seed, 2])
    maxima = rng.permutation(maxima)
    gaps = 0.05 + rng.exponential(scale=0.4, size=(LONG_DAYS, HOURS_PER_DAY))
    gaps[np.arange(LONG_DAYS), rng.integers(HOURS_PER_DAY, size=LONG_DAYS)] = 0.0
    return (maxima[:, None] - gaps).ravel()


def write_long_series(seed: int, path: Path) -> Path:
    values = long_series(seed)
    lines = [f"{h},{v:.17g}" for h, v in enumerate(values.tolist())]
    path.write_text("hour,value\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_suite(seed: int, path: Path) -> Path:
    """One ``[cell]`` section per (truth, n); cell seeds derive from the
    workload seed so that different workload seeds draw different data."""
    sections = []
    idx = 0
    for xi, mu, delta in MC_TRUTHS:
        for n in MC_SIZES:
            sections.append(
                f"[cell c{idx:02d}]\n"
                f"xi = {xi!r}\nmu = {mu!r}\nsigma = {MC_SIGMA!r}\ndelta = {delta!r}\n"
                f"n = {n}\nm = {MC_REPLICATES}\nseed = {seed * 1000 + idx}\n"
            )
            idx += 1
    path.write_text("\n".join(sections), encoding="utf-8")
    return path
