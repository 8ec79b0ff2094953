"""Parameter vectors and domain descriptors for the BGEV family."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

__all__ = [
    "BgevParams",
    "Support",
    "SupportKind",
    "CriticalPoints",
    "Modality",
    "ParameterError",
    "InputDataError",
    "InfeasibleStartError",
    "NotConvergedError",
    "START_PRESETS",
]


class ParameterError(ValueError):
    """Raised when a parameter vector violates its admissibility constraints."""


class InputDataError(ValueError):
    """Malformed or unusable input data."""


class InfeasibleStartError(ValueError):
    """The starting point assigns zero likelihood to the data."""


class NotConvergedError(RuntimeError):
    """A fit did not converge, and the assessment of its end point failed."""


# lines per ``%`` format of a column table: bounds the flat tuple of cells
# and the format string however long the table
_BLOCK_ROWS = 65536


def csv_text(rows=(), columns=()) -> str:
    """The text of every CSV-like output: one comma-joined line per row,
    each ending in a newline.  A float cell (a numpy float64 is one) is
    written with 17 significant digits, enough to round-trip any double;
    any other cell as ``str`` gives it.

    ``rows`` are written first, each as given.  ``columns``, 1-D numpy
    arrays of equal length, then give one line per index; a cell of a
    column is its ``.tolist()`` value, so a float column is written
    ``%.17g`` and an integer or bool column as ``str``.  The columns are
    formatted by one ``%`` format line, repeated and applied to a flat
    tuple of at most ``_BLOCK_ROWS`` rows at a time.
    """
    parts = [
        (",".join("%.17g" if isinstance(c, float) else "%s" for c in row) + "\n") % tuple(row) for row in rows
    ]
    if columns:
        k, n = len(columns), len(columns[0])
        line = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            flat = [None] * ((stop - start) * k)
            for i, c in enumerate(columns):
                flat[i::k] = c[start:stop].tolist()
            parts.append(line * (stop - start) % tuple(flat))
    return "".join(parts)


def write_text(path, text: str) -> None:
    """Write an output file: UTF-8 with ``\\n`` line endings on every platform."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


@dataclass(frozen=True)
class BgevParams:
    """Parameter vector (xi, mu, sigma, delta) of the bimodal GEV distribution.

    xi is the shape parameter (nonzero), mu the location, sigma the scale of
    the power transformation (positive), and delta the bimodality shape
    (greater than -1; at -1 the transformation stops being invertible).
    """

    xi: float
    mu: float
    sigma: float
    delta: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.xi, self.mu, self.sigma, self.delta)):
            raise ParameterError("parameters must be finite")
        if self.xi == 0.0:
            raise ParameterError("xi must be nonzero")
        if self.sigma <= 0.0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")
        if self.delta <= -1.0:
            raise ParameterError(f"delta must be > -1, got {self.delta}")


# named starting points for the two kinds of environmental series the
# block-maxima pipeline was built around; "auto" derives a start from the
# data instead
START_PRESETS: dict[str, BgevParams] = {
    "wind": BgevParams(xi=-0.5, mu=0.0, sigma=1.0, delta=0.5),
    "temperature": BgevParams(xi=-0.25, mu=0.0, sigma=1.0, delta=0.5),
}


class SupportKind(Enum):
    LEFT_BOUNDED = "left_bounded"
    RIGHT_BOUNDED = "right_bounded"


@dataclass(frozen=True)
class Support:
    """Half-line on which the BGEV density is positive.

    For xi > 0 the density lives on (lower, +inf); for xi < 0 on (-inf, upper).
    """

    lower: float
    upper: float
    kind: SupportKind

    def contains(self, x: float) -> bool:
        return self.lower < x < self.upper


class Modality(Enum):
    """Shape verdict from the count of local maxima among the density's
    critical points: one, two, or DEGENERATE for none or more than two."""

    UNIMODAL = "unimodal"
    BIMODAL = "bimodal"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class CriticalPoints:
    """Critical points of the density, sorted ascending, plus a shape verdict.

    The critical points are the stationary points and, for delta != 0, the
    origin when the support holds it: the density is 0 there for delta > 0
    and unbounded for delta < 0, which makes the origin a maximum.  maxima
    are the points at least as high as both their fences: the midpoints to
    their neighbours and a far point beyond each end.
    """

    points: tuple[float, ...]
    classification: Modality
    maxima: tuple[float, ...] = field(default=())
