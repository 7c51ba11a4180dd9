"""Histogram pipeline: calibration offset, windowing, background removal, peak fits.

Turns a raw counting histogram into fitted return peaks, each a center
time (relative to the laser-at-wall instant) with a Gaussian width. The
width feeds the back-projection as the thickness of the time-of-flight
ellipse, so it is the fitted pulse sigma, not the statistical standard
error of the center (the latter is also reported on the estimate).
"""

from __future__ import annotations

import functools
import math
from dataclasses import KW_ONLY, dataclass, replace
from typing import NamedTuple

import numpy as np

from .acquisition import TransientHistogram


class NonConvergenceError(RuntimeError):
    """The peak fit ran out of iterations without meeting its tolerance."""


class DegenerateFitError(RuntimeError):
    """Two fitted peak centers collapsed onto the same bin."""


@dataclass(frozen=True)
class TimeWindow:
    """Crop bounds in seconds, relative to the laser-at-wall instant."""

    start_s: float
    end_s: float

    def __post_init__(self):
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise ValueError("window bounds must be finite")
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ValueError(f"need 0 <= start_s < end_s, got [{self.start_s}, {self.end_s}]")


@dataclass(frozen=True)
class PeakEstimate:
    """A fitted return: center time t_s, Gaussian width sigma_s, height in counts."""

    t_s: float
    sigma_s: float
    amplitude: float
    _: KW_ONLY
    center_stderr_s: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.t_s):
            raise ValueError(f"t_s must be finite, got {self.t_s!r}")
        for name in ("sigma_s", "amplitude"):
            if not (math.isfinite(v := getattr(self, name)) and v > 0):
                raise ValueError(f"{name} must be > 0, got {v!r}")


def apply_offset(hist: TransientHistogram, t0_s: float) -> TransientHistogram:
    """Shift the histogram's time reference by t0_s. Metadata only, no rebinning."""
    if abs(t0_s) >= hist.span_s:
        raise ValueError(f"|t0_s| must be < histogram span {hist.span_s!r}")
    if t0_s == 0.0:
        return hist
    return replace(hist, t0_offset_s=hist.t0_offset_s + t0_s)


@functools.lru_cache(maxsize=8)
def _crop_plan(
    num_bins: int, bin_width_s: float, t0_offset_s: float, window: TimeWindow
) -> tuple[np.ndarray, float]:
    # Which bins a crop keeps, in output order, and the output's t0_offset_s.
    # Bin centers are taken in canonical time: a raw histogram is cyclic over
    # the repetition period, so centers that a negative calibration offset
    # puts at negative times really belong one period later.
    t = t0_offset_s + (np.arange(num_bins) + 0.5) * bin_width_s
    wrapped = t < 0
    canon = np.where(wrapped, t + num_bins * bin_width_s, t)
    keep = np.flatnonzero((canon >= window.start_s) & (canon < window.end_s))
    if not keep.size:
        raise ValueError(
            f"window [{window.start_s}, {window.end_s}] does not intersect the histogram"
        )
    # The wrapped bins are a prefix of the histogram and lie one period later
    # than every other bin, so canonical order is the unwrapped kept bins,
    # then the wrapped ones. Those form one run of consecutive bin times:
    # the wrapped prefix continues the lattice one period on, and a bin still
    # negative after the wrap is never kept because a window starts at >= 0.
    n_wrapped = int(np.searchsorted(keep, np.count_nonzero(wrapped)))
    index = np.concatenate((keep[n_wrapped:], keep[:n_wrapped]))
    index.setflags(write=False)
    return index, float(canon[index[0]] - 0.5 * bin_width_s)


def crop(hist: TransientHistogram, window: TimeWindow) -> TransientHistogram:
    """Keep only bins whose centers fall inside the window.

    Handles the cyclic seam of a calibrated full-period histogram: bins are
    re-ordered by their canonical (unwrapped) time if the selection crosses
    the wrap point, so the result is always contiguous in time.

    Which bins to keep depends only on the bin geometry and the window, so
    the selection is planned once per (bin count, bin width, time reference,
    window) and reused; a sweep repeats one plan per pixel for every trial.
    """
    index, t0_offset_s = _crop_plan(hist.num_bins, hist.bin_width_s, hist.t0_offset_s, window)
    return TransientHistogram(
        counts=hist.counts[index],
        bin_width_s=hist.bin_width_s,
        t0_offset_s=t0_offset_s,
        pixel_index=hist.pixel_index,
        acq_time_s=hist.acq_time_s,
    )


def _require_same_shape(a: TransientHistogram, b: TransientHistogram):
    if a.num_bins != b.num_bins:
        raise ValueError(f"histogram length mismatch: {a.num_bins} vs {b.num_bins}")
    if a.bin_width_s != b.bin_width_s:
        raise ValueError(f"bin width mismatch: {a.bin_width_s} vs {b.bin_width_s}")
    if a.t0_offset_s != b.t0_offset_s:
        raise ValueError(f"time reference mismatch: {a.t0_offset_s} vs {b.t0_offset_s}")
    if a.acq_time_s != b.acq_time_s:
        raise ValueError(f"acquisition time mismatch: {a.acq_time_s} vs {b.acq_time_s}")


def subtract_background(hist: TransientHistogram, background: TransientHistogram) -> TransientHistogram:
    """Per-bin difference, clamped at zero so counts stay counts."""
    _require_same_shape(hist, background)
    diff = np.maximum(hist.counts - background.counts, 0)
    return replace(hist, counts=diff)


def _find_peaks(x: np.ndarray, height: float, distance: float) -> np.ndarray:
    # The indices scipy.signal.find_peaks(x, height=height, distance=distance)
    # returns, without importing scipy. A peak is a rise followed, after a
    # flat top of any length, by a fall; it sits at the flat top's middle bin,
    # rounded down. A flat top that reaches either end of x is no peak.
    # Every peak that clears height lies, with both neighbours, between the
    # first and the last bin that clears it, so only that span is searched.
    high = np.flatnonzero(x >= height)
    if not high.size:
        return high
    start = max(int(high[0]) - 1, 0)
    x = x[start : high[-1] + 2]
    dx = np.diff(x)
    steps = np.flatnonzero(dx)
    rise = dx[steps[:-1]] > 0
    fall = dx[steps[1:]] < 0
    k = np.flatnonzero(rise & fall)
    peaks = (steps[k] + 1 + steps[k + 1]) // 2
    peaks = peaks[x[peaks] >= height]
    # Thin from the highest peak down, dropping lower ones closer than
    # ceil(distance) bins; ties are broken by np.argsort, as scipy does.
    sep = math.ceil(distance)
    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(x[peaks])[::-1]:
        if keep[j]:
            lo = np.searchsorted(peaks, peaks[j] - sep, side="right")
            hi = np.searchsorted(peaks, peaks[j] + sep, side="left")
            keep[lo:hi] = False
            keep[j] = True
    return start + peaks[keep]


# detect_peaks' threshold, in units of sqrt(median(smoothed) + 1).
THRESHOLD_FACTOR = 4.0


def detect_peaks(
    hist: TransientHistogram,
    max_peaks: int = 1,
    *,
    irf_sigma_s: float,
) -> list[tuple[int, float]]:
    """Rough peak candidates to seed the Gaussian fit.

    Smooths with a moving average of w = round(irf_sigma_s / bin width)
    bins (30 for a 120 ps width in 4 ps bins), keeps local maxima of the
    smoothed histogram at or above THRESHOLD_FACTOR * sqrt(median(smoothed) + 1),
    enforces a minimum separation of 3 instrument sigmas, and returns up
    to max_peaks (bin index, rough amplitude) pairs, strongest first. An
    empty list means nothing cleared the threshold; that is not an error.

    The threshold is not THRESHOLD_FACTOR standard deviations of the
    smoothed noise: on target-free histograms at the default dark rate it
    is 58-63 of them (ROADMAP item 3), because the +1 dominates a floor
    of a fraction of a count per bin and the average shrinks the noise.
    A histogram shorter than w bins cannot be smoothed and raises
    ValueError.
    """
    if max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")
    w = max(1, round(irf_sigma_s / hist.bin_width_s))
    if hist.num_bins < w:
        raise ValueError(
            f"histogram of {hist.num_bins} bins is shorter than the {w}-bin smoothing width"
        )
    counts = hist.counts.astype(np.float64)
    smooth = np.convolve(counts, np.ones(w) / w, mode="same")
    threshold = THRESHOLD_FACTOR * math.sqrt(float(np.median(smooth)) + 1.0)
    sep_bins = max(1, round(3.0 * irf_sigma_s / hist.bin_width_s))
    idx = _find_peaks(smooth, threshold, sep_bins)
    order = np.argsort(smooth[idx])[::-1][:max_peaks]
    out = []
    for i in idx[order]:
        lo, hi = max(0, i - w), min(hist.num_bins, i + w + 1)
        out.append((int(i), float(counts[lo:hi].max())))
    return out


# ---------------------------------------------------------------------------
# Gaussian-mixture least squares (damped Gauss-Newton with Levenberg damping)
# ---------------------------------------------------------------------------


def _mixture(tau, params):
    # The model and its Jacobian, evaluating each Gaussian once.
    # params: [floor, A_0, mu_0, s_0, A_1, mu_1, s_1, ...] on the tau axis
    n_peaks = (len(params) - 1) // 3
    y = np.full_like(tau, params[0])
    jac = np.empty((tau.size, 1 + 3 * n_peaks))
    jac[:, 0] = 1.0
    for k in range(n_peaks):
        a, mu, s = params[1 + 3 * k : 4 + 3 * k]
        u = (tau - mu) / s
        g = np.exp(-0.5 * u * u)
        ag = a * g
        y += ag
        agu = ag * u
        jac[:, 1 + 3 * k] = g
        jac[:, 2 + 3 * k] = agu / s
        jac[:, 3 + 3 * k] = agu * u / s
    return y, jac


class FloorBins(NamedTuple):
    """Bins outside the fitted windows, where the model is the floor alone.

    ``count`` bins with mean ``mean`` and scatter ``sum((y - mean)**2)``.
    Their share of the squared residual at floor f is exactly
    ``count * (f - mean)**2 + scatter``.
    """

    count: int = 0
    mean: float = 0.0
    scatter: float = 0.0


_FIT_MAX_ITER = 200  # Gauss-Newton iterations a peak fit may take


def fit_gaussian_mixture(
    tau: np.ndarray,
    y: np.ndarray,
    p0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    floor_bins: FloorBins = FloorBins(),
):
    """Bounded least-squares fit of a constant floor plus Gaussian peaks.

    Levenberg-damped Gauss-Newton with parameter clipping to the box
    bounds. ``tau`` and ``y`` are the bins where the Gaussians are evaluated;
    ``floor_bins`` summarises further bins where the model is the floor
    alone, so the cost, the normal equations and the degrees of freedom
    cover both. Returns (params, residual_norm, covariance). Raises
    NonConvergenceError when no acceptable step is found within _FIT_MAX_ITER.
    """
    n_far, y_far, scatter_far = floor_bins

    def total_cost(r, floor):
        return float(r @ r) + n_far * (floor - y_far) ** 2 + scatter_far

    def normal_equations(jac, r, p):
        jtj = jac.T @ jac
        jtj[0, 0] += n_far
        g = jac.T @ r
        g[0] += n_far * (p[0] - y_far)
        return jtj, g

    p = np.clip(np.asarray(p0, dtype=np.float64), lower, upper)
    model, jac = _mixture(tau, p)
    r = model - y
    cost = total_cost(r, p[0])
    lam = 1e-3
    converged = cost <= 1e-30
    stalled = 0
    for _ in range(_FIT_MAX_ITER):
        if converged:
            break
        jtj, g = normal_equations(jac, r, p)
        accepted = False
        for _ in range(60):
            damp = jtj + lam * np.diag(np.diag(jtj) + 1e-12)
            try:
                step = np.linalg.solve(damp, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_new = np.clip(p + step, lower, upper)
            model, jac_new = _mixture(tau, p_new)
            r_new = model - y
            cost_new = total_cost(r_new, p_new[0])
            if cost_new < cost:
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                moved = float(np.max(np.abs(p_new - p)))
                p, r, jac, cost = p_new, r_new, jac_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                # A run of negligible improvements (typical with a parameter
                # pinned at its bound) counts as a settled fit.
                stalled = stalled + 1 if rel_drop < 1e-9 else 0
                if rel_drop < 1e-12 or moved < 1e-15 or cost <= 1e-30 or stalled >= 3:
                    converged = True
                break
            lam *= 4.0
            if lam > 1e14:
                break
        if not accepted:
            # No downhill step at any damping: stationary point reached.
            converged = True
    if not converged:
        raise NonConvergenceError(
            f"no convergence within {_FIT_MAX_ITER} iterations, cost={cost:.3e}")
    jtj, _ = normal_equations(jac, r, p)
    dof = max(tau.size + n_far - p.size, 1)
    try:
        cov = np.linalg.inv(jtj) * (cost / dof)
    except np.linalg.LinAlgError:
        cov = np.full((p.size, p.size), np.nan)
    return p, math.sqrt(cost), cov


# Each seed is fitted on the bins within WINDOW_SIGMAS instrument sigmas of
# it. Beyond COVER_SIGMAS of its own width a Gaussian is below exp(-32) of its
# peak, so where every fitted component has that much room inside the
# windows, the bins outside them hold the floor alone.
WINDOW_SIGMAS = 10.0
COVER_SIGMAS = 8.0


def _span(center: float, half: float, bw: float, n: int) -> tuple[int, int]:
    # Bin index range [lo, hi) covering center +- half on an axis with bins at k * bw.
    return max(0, math.floor((center - half) / bw)), min(n, math.ceil((center + half) / bw) + 1)


def width_box(bin_width_s: float, irf_sigma_s: float) -> tuple[float, float]:
    """The fit's bounds on a return's Gaussian width, [bin width, 10 * irf_sigma_s], in s.

    Raises ValueError when the box is empty, which includes every
    irf_sigma_s <= 0: no width could be fitted.
    """
    lo, hi = bin_width_s, 10.0 * irf_sigma_s
    if not hi >= lo:
        raise ValueError(
            f"retrieval needs 10 * irf_sigma_s >= bin_width_s, got irf_sigma_s "
            f"{irf_sigma_s!r} and bin_width_s {bin_width_s!r}")
    return lo, hi


def _floor_bins(y: np.ndarray, local: np.ndarray) -> FloorBins:
    far = y[~local]
    if far.size == 0:
        return FloorBins()
    mean = float(far.mean())
    return FloorBins(far.size, mean, float(np.sum((far - mean) ** 2)))


def fit_peaks(
    hist: TransientHistogram,
    seeds: list[tuple[int, float]],
    irf_sigma_guess: float,
) -> list[PeakEstimate]:
    """Least-squares fit of a sum of Gaussians plus a constant floor.

    Seeded by detect_peaks output, each width starting at irf_sigma_guess.
    Centers are bounded to the histogram extent and sigmas to ``width_box``
    (ValueError when it is empty). Components whose amplitude fits to zero
    are dropped.

    The fit solves the least-squares problem over every bin of ``hist``, but
    evaluates the Gaussians only on the bins within +-10 irf_sigma_guess of
    a seed. The other bins, where the model is the floor alone, enter as
    three numbers: their count, mean and scatter (see ``FloorBins``). If a
    fitted component's +-8 fitted sigmas reach outside those bins (a return
    much broader than the instrument response), the fit is rerun from the
    same start on every bin.
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    # Fit on a nanosecond axis so the normal equations stay well conditioned.
    scale = 1e-9
    sig_lo, sig_hi = (w / scale for w in width_box(hist.bin_width_s, irf_sigma_guess))
    t = hist.bin_centers_s()
    tau = (t - t[0]) / scale
    y = hist.counts.astype(np.float64)
    bw = hist.bin_width_s / scale

    p0 = [float(np.median(y))]
    lower = [0.0]
    upper = [max(float(y.max()), 1.0)]
    local = np.zeros(y.size, dtype=bool)
    for bin_idx, amp in seeds:
        # fit_gaussian_mixture clips a start width outside the box into it.
        p0 += [max(float(amp), 1.0), float(tau[bin_idx]), irf_sigma_guess / scale]
        lower += [1e-12, float(tau[0]), sig_lo]
        upper += [np.inf, float(tau[-1]), sig_hi]
        lo, hi = _span(float(tau[bin_idx]), WINDOW_SIGMAS * irf_sigma_guess / scale, bw, y.size)
        local[lo:hi] = True
    p0, lower, upper = np.array(p0), np.array(lower), np.array(upper)
    n_peaks = len(seeds)
    params, _, cov = fit_gaussian_mixture(
        tau[local], y[local], p0, lower, upper, floor_bins=_floor_bins(y, local),
    )
    for k in range(n_peaks):
        lo, hi = _span(params[2 + 3 * k], COVER_SIGMAS * params[3 + 3 * k], bw, y.size)
        if not local[lo:hi].all():
            # A broad return: refit on every bin, from the same start.
            params, _, cov = fit_gaussian_mixture(tau, y, p0, lower, upper)
            break

    centers = [params[2 + 3 * k] for k in range(n_peaks)]
    for a in range(n_peaks):
        for b in range(a + 1, n_peaks):
            if abs(centers[a] - centers[b]) < bw:
                raise DegenerateFitError(
                    f"fitted centers {a} and {b} collapsed within one bin"
                )
    out = []
    for k in range(n_peaks):
        amp, mu, s = params[1 + 3 * k : 4 + 3 * k]
        if amp <= 1e-9:
            continue
        var_mu = cov[2 + 3 * k, 2 + 3 * k]
        stderr = math.sqrt(var_mu) * scale if np.isfinite(var_mu) and var_mu > 0 else 0.0
        out.append(
            PeakEstimate(
                t_s=float(t[0] + mu * scale),
                sigma_s=float(s * scale),
                amplitude=float(amp),
                center_stderr_s=stderr,
            )
        )
    return out
