"""Shared fixtures and oracle helpers."""

import os
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import bgev
from bgev import BgevParams, pdf, support


def random_params(rng, xi_lo=0.15, xi_hi=1.0, delta_lo=-0.5, delta_hi=4.0, xi_sign=None):
    """Admissible parameter vector drawn from the regular estimation regime."""
    sign = xi_sign if xi_sign is not None else rng.choice([-1.0, 1.0])
    return BgevParams(
        xi=float(sign * rng.uniform(xi_lo, xi_hi)),
        mu=float(rng.uniform(-2.0, 2.0)),
        sigma=float(rng.uniform(0.3, 3.0)),
        delta=float(rng.uniform(delta_lo, delta_hi)),
    )


def integrate_pdf(p: BgevParams, fn=None, epsabs=1e-12, epsrel=1e-10):
    """Adaptive quadrature of fn(x)*pdf(x) over the support, split at the
    origin so the delta < 0 singularity stays on a segment endpoint."""
    f = fn or (lambda x: 1.0)
    sup = support(p)
    lo = sup.lower if np.isfinite(sup.lower) else -np.inf
    hi = sup.upper if np.isfinite(sup.upper) else np.inf
    cuts = [lo]
    if lo < 0.0 < hi:
        cuts.append(0.0)
    cuts.append(hi)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        val, _ = integrate.quad(
            lambda t: f(t) * float(pdf(t, p)), a, b, limit=400, epsabs=epsabs, epsrel=epsrel
        )
        total += val
    return total


def child_env():
    """Environment under which a child interpreter imports the same bgev as this process."""
    src = str(Path(bgev.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def central_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


@pytest.fixture
def rng():
    return np.random.default_rng(20260401)
