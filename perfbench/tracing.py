"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``bgev.*`` module attribute that holds the original function object (a name
such as ``log_likelihood`` is bound in ``bgev.likelihood``, ``bgev.mle`` and
``bgev.sim``), and ``Tracer.uninstall`` puts the originals back.  A span is
``[id, name, parent, op, start, end, size, attrs]``: ``size`` is the number
of points or observations the call worked on, ``attrs`` what its result
reports (iterations, convergence, rows read, bytes written).  Spans stay in
memory and are written as JSON once, at the end of the run.

``summarize`` turns spans into the per-layer metrics; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

FIELDS = ("id", "name", "parent", "op", "start", "end", "size", "attrs")
ID, NAME, PARENT, OP, START, END, SIZE, ATTRS = range(len(FIELDS))
ROOT = "op"


def _n_obs(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _n_points(args, kwargs):
    return int(np.size(args[0] if args else kwargs.get("x", kwargs.get("q"))))


def _n_draws(args, kwargs):
    return int(args[0] if args else kwargs["n"])


def _paths_bytes(paths):
    return {"bytes": sum(Path(p).stat().st_size for p in paths)}


# (module, function, size of the call, attributes of the result)
TARGETS = (
    ("bgev.cli", "main", None, lambda rc: {"exit": rc}),
    ("bgev.pipeline", "ingest", None, lambda s: {"rows": int(s.values.size)}),
    ("bgev.pipeline", "block_maxima", None, None),
    ("bgev.pipeline", "standardize", None, None),
    ("bgev.pipeline", "fit_and_compare", None, None),
    ("bgev.pipeline", "emit_plot_data", None, _paths_bytes),
    ("bgev.gof", "ljung_box", None, None),
    ("bgev.gof", "ks_statistic", None, None),
    ("bgev.gof", "ad_statistic", None, None),
    ("bgev.gof", "qq_pairs", None, None),
    ("bgev.mle", "fit_mle", None, lambda r: {"iterations": int(r.iterations), "converged": bool(r.converged)}),
    ("bgev.mle", "default_start", None, None),
    ("bgev.neldermead", "nelder_mead", None, None),
    ("bgev.likelihood", "log_likelihood", _n_obs, None),
    ("bgev.likelihood", "score", _n_obs, None),
    ("bgev.likelihood", "hessian", _n_obs, None),
    ("bgev.distribution", "sample", _n_draws, None),
    ("bgev.distribution", "pdf", _n_points, None),
    ("bgev.distribution", "cdf", _n_points, None),
    ("bgev.distribution", "quantile", _n_points, None),
    ("bgev.sim", "run_cell", None, lambda r: {"used": int(r.replicates_used), "m": int(r.config.m)}),
    ("bgev.sim", "run_suite", None, None),
)


class Tracer:
    """Span recorder for one process; ops are numbered from 0."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, size_of, attrs_of):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = size_of(args, kwargs) if size_of else None
            rec = [len(spans), name, stack[-1] if stack else -1, self._op, 0.0, 0.0, size, None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if attrs_of:
                rec[ATTRS] = attrs_of(result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            return
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "bgev" or n.startswith("bgev."))]
        for mod_name, func, size_of, attrs_of in TARGETS:
            orig = getattr(importlib.import_module(mod_name), func)
            traced = self._wrap(f"{mod_name.removeprefix('bgev.')}.{func}", orig, size_of, attrs_of)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def begin_op(self) -> None:
        self._op += 1
        rec = [len(self.spans), ROOT, -1, self._op, 0.0, 0.0, None, None]
        self.spans.append(rec)
        self._stack[:] = [rec[ID]]
        rec[START] = perf_counter()

    def end_op(self) -> float:
        rec = self.spans[self._stack[0]]
        rec[END] = perf_counter()
        self._stack.clear()
        return rec[END] - rec[START]

    def write(self, path) -> None:
        Path(path).write_text(json.dumps({"fields": FIELDS, "spans": self.spans}), encoding="utf-8")


def load_spans(paths) -> list[list]:
    """Concatenate span files, renumbering ids and ops so that they stay
    unique across files (one file per traced child process)."""
    out: list[list] = []
    for path in paths:
        spans = json.loads(Path(path).read_text(encoding="utf-8"))["spans"]
        id_base = len(out)
        op_base = 1 + max((s[OP] for s in out), default=-1)
        for s in spans:
            s[ID] += id_base
            if s[PARENT] >= 0:
                s[PARENT] += id_base
            s[OP] += op_base
        out.extend(spans)
    return out


# ----------------------------------------------------------------------------
# per-layer metrics

LIKELIHOOD = ("log_likelihood", "score", "hessian")
LIKELIHOOD_SIZES = (50, 250, 365, 1000, 7300)
DISTRIBUTION = ("sample", "pdf", "cdf", "quantile")
SELF_TIMED = (
    "cli.main",
    "pipeline.ingest",
    "pipeline.block_maxima",
    "pipeline.standardize",
    "pipeline.emit_plot_data",
    "pipeline.fit_and_compare",
    "gof.ljung_box",
    "gof.ks_statistic",
    "gof.ad_statistic",
    "gof.qq_pairs",
    "mle.fit_mle",
    "mle.default_start",
    "neldermead.nelder_mead",
    *(f"likelihood.{f}" for f in LIKELIHOOD),
    *(f"distribution.{f}" for f in DISTRIBUTION),
    "sim.run_cell",
    "sim.run_suite",
)
# counts that must repeat exactly between ops and between traced runs
COUNTS = (
    "pipeline.fit_and_compare.fits",
    "mle.fit_mle.calls",
    "mle.fit_mle.ll_evals_per_fit",
    "mle.fit_mle.iterations_per_fit",
    *(f"likelihood.{f}.calls" for f in LIKELIHOOD),
    *(f"distribution.{f}.points" for f in DISTRIBUTION),
    "pipeline.emit_plot_data.bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_counts(spans: list[list]) -> list[dict[str, float]]:
    """The exact counts of each op, in op order."""
    by_op: dict[int, dict[str, float]] = {}
    compares: dict[int, int] = {}  # op -> fit_and_compare calls
    fit_of: dict[int, int] = {}  # span id -> id of its nearest fit_mle ancestor, or -1
    cmp_of: dict[int, int] = {}  # span id -> id of its nearest fit_and_compare ancestor, or -1
    for s in spans:
        c = by_op.setdefault(s[OP], dict.fromkeys(COUNTS, 0))
        name, parent = s[NAME], s[PARENT]
        fit_of[s[ID]] = s[ID] if name == "mle.fit_mle" else fit_of.get(parent, -1)
        cmp_of[s[ID]] = s[ID] if name == "pipeline.fit_and_compare" else cmp_of.get(parent, -1)
        if name == "mle.fit_mle":
            c["mle.fit_mle.calls"] += 1
            c["mle.fit_mle.iterations_per_fit"] += s[ATTRS]["iterations"] if s[ATTRS] else 0
            if cmp_of.get(parent, -1) >= 0:
                c["pipeline.fit_and_compare.fits"] += 1
        elif name == "pipeline.fit_and_compare":
            compares[s[OP]] = compares.get(s[OP], 0) + 1
        elif name == "pipeline.emit_plot_data" and s[ATTRS]:
            c["pipeline.emit_plot_data.bytes"] += s[ATTRS]["bytes"]
        elif name.startswith("likelihood."):
            c[f"{name}.calls"] += 1
            if name == "likelihood.log_likelihood" and fit_of[s[ID]] >= 0:
                c["mle.fit_mle.ll_evals_per_fit"] += 1
        elif name.startswith("distribution."):
            c[f"{name}.points"] += s[SIZE] or 0
    for op, c in by_op.items():
        fits = c["mle.fit_mle.calls"]
        c["mle.fit_mle.ll_evals_per_fit"] = _ratio(c["mle.fit_mle.ll_evals_per_fit"], fits)
        c["mle.fit_mle.iterations_per_fit"] = _ratio(c["mle.fit_mle.iterations_per_fit"], fits)
        c["pipeline.fit_and_compare.fits"] = _ratio(c["pipeline.fit_and_compare.fits"], compares.get(op, 0))
    return [by_op[k] for k in sorted(by_op)]


def summarize(spans: list[list]) -> tuple[dict[str, float], bool]:
    """Per-layer metrics, per op, from the spans of one or more traced ops.

    Returns (metrics, counts_repeat): counts_repeat is False when two ops
    of the run disagree on any exact count.
    """
    n_ops = len({s[OP] for s in spans})
    child_time = [0.0] * len(spans)
    index = {s[ID]: i for i, s in enumerate(spans)}
    for s in spans:
        if s[PARENT] >= 0:
            child_time[index[s[PARENT]]] += s[END] - s[START]

    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    sized: dict[tuple[str, int], list[float]] = {}
    fits = converged = used = planned = rows = 0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        total_s[name] = total_s.get(name, 0.0) + dur
        if name.startswith("likelihood."):
            acc = sized.setdefault((name, s[SIZE]), [0.0, 0])
            acc[0] += dur
            acc[1] += 1
        elif name == "mle.fit_mle" and s[ATTRS]:
            fits += 1
            converged += s[ATTRS]["converged"]
        elif name == "sim.run_cell" and s[ATTRS]:
            used += s[ATTRS]["used"]
            planned += s[ATTRS]["m"]
        elif name == "pipeline.ingest" and s[ATTRS]:
            rows += s[ATTRS]["rows"]

    m: dict[str, float] = {}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = _ratio(self_s.get(name, 0.0), n_ops)
    m["pipeline.ingest.rows_per_s"] = _ratio(rows, total_s.get("pipeline.ingest", 0.0))
    m["mle.fit_mle.converged_frac"] = _ratio(converged, fits)
    m["sim.run_cell.used_frac"] = _ratio(used, planned)
    for f in LIKELIHOOD:
        for n in LIKELIHOOD_SIZES:
            t, k = sized.get((f"likelihood.{f}", n), (0.0, 0))
            m[f"likelihood.{f}.us_per_call.n{n}"] = _ratio(t * 1e6, k)

    per_op = op_counts(spans)
    m.update(per_op[0] if per_op else dict.fromkeys(COUNTS, 0))
    return m, all(c == per_op[0] for c in per_op)
