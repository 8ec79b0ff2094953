"""Bundled synthetic hourly series for exercising the block-maxima pipeline.

bimodal_hourly.csv has daily (block 24) maxima drawn from a bimodal member
of the family; unimodal_hourly.csv from a plain GEV member.  Regenerate with
``python -m bgev.data.generate``.
"""

from pathlib import Path

__all__ = ["bundled_path", "BUNDLED"]

BUNDLED = ("bimodal", "unimodal")


def bundled_path(name: str) -> Path:
    if name not in BUNDLED:
        raise KeyError(f"unknown bundled series {name!r}; choose from {BUNDLED}")
    # beside this file, as generate.py writes them; importlib.resources
    # would cost a cold start its zipfile import for the same path
    return Path(__file__).with_name(f"{name}_hourly.csv")
