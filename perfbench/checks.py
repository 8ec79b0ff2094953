"""Output checks, run on every op outside its timed region.

Each check returns a list of problems; an empty list means the output is
correct.  The reference optima were recorded from the program as it stood
when the benchmark was defined; a later optimizer may find a better optimum
but not a worse one.
"""

from __future__ import annotations

import math
from pathlib import Path

# BGEV -2 log-likelihood at the recorded optimum: bundled:bimodal (the
# cli_cold input) and the fit_long series, whose daily maxima are the same
# set at every seed (inputs.long_series)
REFERENCE_NEG2LL_BUNDLED = 596.32238950798137
REFERENCE_NEG2LL_LONG = 11966.995888202458
REFERENCE_SLACK = 1e-6

FIT_FILES = ("report.txt", "comparison.csv", "histogram.csv", "density.csv", "qq_bgev.csv", "qq_gev.csv")
COMPARISON_HEADER = "model,mu,sigma,xi,delta,ks,ad,neg2loglik,converged"
RESULTS_HEADER = (
    "xi,mu,sigma,delta,n,m,seed,"
    "mean_xi,mean_mu,mean_delta,"
    "bias_xi,bias_mu,bias_delta,"
    "mse_xi,mse_mu,mse_delta,failures"
)


def _floats(tokens: list[str]) -> list[float] | None:
    try:
        vals = [float(t) for t in tokens]
    except ValueError:
        return None
    return vals if all(math.isfinite(v) for v in vals) else None


def check_fit(out_dir: Path, blocks: int, reference_neg2ll: float | None) -> list[str]:
    """Outputs of ``bgev fit``: every file present, both models converged,
    BGEV -2logL no worse than the nested GEV's (and than the reference,
    when one applies), one QQ pair per block."""
    missing = [f for f in FIT_FILES if not (out_dir / f).is_file()]
    if missing:
        return [f"missing output files {missing}"]
    problems = []
    report = (out_dir / "report.txt").read_text(encoding="utf-8").splitlines()
    if not report or report[0] != f"blocks,{blocks}":
        problems.append(f"report.txt does not start with blocks,{blocks}")
    lines = (out_dir / "comparison.csv").read_text(encoding="utf-8").splitlines()
    if len(lines) != 3 or lines[0] != COMPARISON_HEADER:
        return problems + ["comparison.csv is not a header and two model rows"]
    rows = {}
    for line in lines[1:]:
        tok = line.split(",")
        vals = _floats(tok[1:8]) if len(tok) == 9 else None
        if vals is None:
            problems.append(f"comparison.csv row is malformed or non-finite: {line!r}")
            continue
        rows[tok[0]] = (vals[6], tok[8])
    if set(rows) != {"BGEV", "GEV"}:
        return problems + [f"comparison.csv models are {sorted(rows)}, expected BGEV and GEV"]
    for model, (_, conv) in rows.items():
        if conv != "True":
            problems.append(f"{model} fit did not converge")
    bgev, gev = rows["BGEV"][0], rows["GEV"][0]
    if not bgev <= gev:
        problems.append(f"BGEV -2logL {bgev!r} exceeds the nested GEV's {gev!r}")
    if reference_neg2ll is not None and bgev > reference_neg2ll + REFERENCE_SLACK:
        problems.append(f"BGEV -2logL {bgev!r} is worse than the reference {reference_neg2ll!r}")
    for name in ("qq_bgev.csv", "qq_gev.csv"):
        qq = (out_dir / name).read_text(encoding="utf-8").splitlines()
        if len(qq) != blocks + 1 or any(_floats(r.split(",")) is None for r in qq[1:]):
            problems.append(f"{name} does not hold {blocks} finite pairs")
    return problems


def check_sim(out_dir: Path, cells: int, m: int) -> tuple[list[str], int]:
    """Outputs of ``bgev sim``: one finite row per cell with m replicates.

    Returns (problems, dropped): dropped counts replicates lost, either
    as failures within a cell or as every replicate of a cell missing from
    the results.
    """
    path = out_dir / "results.csv"
    if not path.is_file():
        return ["results.csv missing"], cells * m
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        return ["results.csv header differs"], cells * m
    problems = []
    dropped = 0
    rows = lines[1:]
    for line in rows:
        tok = line.split(",")
        vals = _floats(tok) if len(tok) == 17 else None
        if vals is None or vals[5] != m:
            problems.append(f"results.csv row is malformed: {line!r}")
            dropped += m
            continue
        dropped += int(vals[16])
    if len(rows) != cells:
        problems.append(f"results.csv has {len(rows)} cells, expected {cells}")
        dropped += m * max(cells - len(rows), 0)
    return problems, dropped
