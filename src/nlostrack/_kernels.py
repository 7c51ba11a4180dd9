"""Histogram accumulation kernel: numba-jitted fast path with a pure-numpy fallback.

The numpy path is selected automatically when numba is not importable, or
explicitly by setting the environment variable ``NLOSTRACK_NO_NUMBA=1``
before the package is imported. Both implementations are importable
directly so they can be benchmarked and cross-checked.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.special import erf as _erf

_ENV_FLAG = "NLOSTRACK_NO_NUMBA"


def _numba_disabled() -> bool:
    return os.environ.get(_ENV_FLAG, "").strip().lower() in {"1", "true", "yes", "on"}


try:
    if _numba_disabled():
        raise ImportError("numba disabled via " + _ENV_FLAG)
    from numba import njit
    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def active_backend() -> str:
    """Name of the kernel backend in use: ``"numba"`` or ``"numpy"``."""
    return "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# Bin-integrated Gaussian mass, wrapped cyclically onto a histogram.
#
# Adds total * Integral_bin N(t; mu, sigma) dt to each bin of ``out``,
# folding bin indices modulo the histogram length (the acquisition timebase
# is periodic with the laser repetition). sigma == 0 drops the whole mass
# into the single bin containing mu.
# ---------------------------------------------------------------------------


def _gaussian_mass_numpy(out, bin_width, mu, sigma, total):
    nbins = out.shape[0]
    if sigma <= 0.0:
        out[int(math.floor(mu / bin_width)) % nbins] += total
        return
    lo = int(math.floor((mu - 8.0 * sigma) / bin_width))
    hi = int(math.ceil((mu + 8.0 * sigma) / bin_width))
    edges = np.arange(lo, hi + 2, dtype=np.float64) * bin_width
    cdf = _erf((edges - mu) / (sigma * math.sqrt(2.0)))
    mass = 0.5 * total * (cdf[1:] - cdf[:-1])
    idx = np.arange(lo, hi + 1, dtype=np.int64) % nbins
    np.add.at(out, idx, mass)


if HAVE_NUMBA:

    @njit(cache=True)
    def _gaussian_mass_numba(out, bin_width, mu, sigma, total):  # pragma: no cover
        nbins = out.shape[0]
        if sigma <= 0.0:
            out[int(math.floor(mu / bin_width)) % nbins] += total
            return
        inv = 1.0 / (sigma * math.sqrt(2.0))
        lo = int(math.floor((mu - 8.0 * sigma) / bin_width))
        hi = int(math.ceil((mu + 8.0 * sigma) / bin_width))
        c_prev = math.erf((lo * bin_width - mu) * inv)
        for b in range(lo, hi + 1):
            c_next = math.erf(((b + 1) * bin_width - mu) * inv)
            out[b % nbins] += 0.5 * total * (c_next - c_prev)
            c_prev = c_next


def add_gaussian_mass(out, bin_width, mu, sigma, total):
    """Accumulate a wrapped, bin-integrated Gaussian pulse into ``out`` in place."""
    if HAVE_NUMBA:
        _gaussian_mass_numba(out, float(bin_width), float(mu), float(sigma), float(total))
    else:
        _gaussian_mass_numpy(out, float(bin_width), float(mu), float(sigma), float(total))
