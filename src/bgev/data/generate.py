"""Regenerate the bundled synthetic hourly series.

Each series spans 365 days of 24 hourly readings.  The daily maximum of
block j is an inverse-transform draw from the target law, placed at a
seeded random hour; the other 23 readings sit strictly below it by
exponential gaps, so the block-24 maxima of the written series reproduce
the draws exactly.  Everything is driven by fixed seeds: rerunning this
script rewrites byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..distribution import sample
from ..params import BgevParams, csv_text, write_text

BLOCK = 24
DAYS = 365

SERIES = {
    # two well-separated humps; mu is tuned so the population mean is ~0,
    # which keeps standardization a pure rescaling (the family is closed
    # under scaling but not under shifts)
    "bimodal": (BgevParams(xi=-0.25, mu=-0.36, sigma=1.0, delta=2.0), 20260301),
    # plain GEV maxima (delta = 0)
    "unimodal": (BgevParams(xi=0.25, mu=0.5, sigma=1.0, delta=0.0), 20260302),
}


def build_series(params: BgevParams, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    maxima = sample(DAYS, params, rng)
    values = np.empty(DAYS * BLOCK)
    for j, mx in enumerate(maxima):
        gaps = 0.05 + rng.exponential(scale=0.4, size=BLOCK - 1)
        block = np.empty(BLOCK)
        pos = int(rng.integers(BLOCK))
        block[:pos] = mx - gaps[:pos]
        block[pos] = mx
        block[pos + 1 :] = mx - gaps[pos:]
        values[j * BLOCK : (j + 1) * BLOCK] = block
    return values


def write_all(out_dir: Path | None = None) -> list[Path]:
    out = out_dir or Path(__file__).parent
    paths = []
    for name, (params, seed) in SERIES.items():
        values = build_series(params, seed)
        path = out / f"{name}_hourly.csv"
        write_text(path, csv_text([("hour", "value")], [np.arange(values.size), values]))
        paths.append(path)
    return paths


if __name__ == "__main__":
    for p in write_all():
        print(f"wrote {p}")
