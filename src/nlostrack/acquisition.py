"""Forward model: synthetic single-photon counting histograms for a scene.

Replaces the pulsed-laser / single-photon-detector hardware with a
radiometric point-scatterer model. For each detector pixel the expected
per-bin intensity is a sum of bin-integrated Gaussian pulses (one per
target and per static scatterer, blurred by the instrument response) on
top of a flat dark/ambient floor; recorded counts are Poisson draws from
that intensity, deterministic given the seed.

Timebase: raw histograms are binned relative to the laser sync, so a
return shows up at (two-bounce time of flight + 2 * standoff / c), folded
into the repetition period. ``calibration_offset_s`` gives the shift that
re-references events to the laser-at-wall instant; apply it with
``processing.apply_offset``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import SPEED_OF_LIGHT, HiddenObject, Scene, tof


class AliasingError(ValueError):
    """A return would land beyond one repetition period and fold onto itself."""


@dataclass(frozen=True)
class AcquisitionParams:
    """Knobs of the acquisition hardware being simulated.

    Defaults: 40 MHz repetition, 4 ps bins (6250 bins per period), 1 s
    integration, 120 ps instrument-response sigma, 1000 dark counts/s.
    ``system_throughput`` is the radiometric calibration constant; the
    default makes a reflectivity-1 target with both bounce legs at 1.5 m
    return roughly 2000 counts/s. It is a calibration knob, not physics.
    """

    rep_rate_hz: float = 4.0e7
    bin_width_s: float = 4e-12
    acq_time_s: float = 1.0
    irf_sigma_s: float = 120e-12
    dark_rate_hz: float = 1000.0
    ambient_rate_hz: float = 0.0
    system_throughput: float = 1.0e4
    lambertian: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("rep_rate_hz", "bin_width_s", "acq_time_s"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be > 0, got {v!r}")
        for name in ("irf_sigma_s", "dark_rate_hz", "ambient_rate_hz", "system_throughput"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be >= 0, got {v!r}")
        n = self.window_s / self.bin_width_s
        if abs(n - round(n)) > 1e-6 * n:
            raise ValueError(
                "histogram window 1/rep_rate_hz must be an integer multiple of "
                f"bin_width_s (got {n!r} bins)"
            )
        seed = self.rng_seed
        try:
            whole = not isinstance(seed, bool) and int(seed) == seed and seed >= 0
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError(f"rng_seed must be a non-negative integer, got {seed!r}")
        object.__setattr__(self, "rng_seed", int(seed))

    @property
    def window_s(self) -> float:
        """One repetition period, the span of a raw histogram."""
        return 1.0 / self.rep_rate_hz

    @property
    def num_bins(self) -> int:
        return int(round(self.window_s / self.bin_width_s))


@dataclass(frozen=True, eq=False)
class TransientHistogram:
    """Binned photon-count record for one detector pixel.

    ``t0_offset_s`` is the time of the left edge of bin 0 relative to the
    laser-at-wall instant; raw histograms carry 0 until calibrated.
    Histograms compare and hash by identity: their counts are an array.
    """

    counts: np.ndarray
    bin_width_s: float
    t0_offset_s: float
    pixel_index: int
    acq_time_s: float

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if not np.issubdtype(counts.dtype, np.integer):
            as_int = counts.astype(np.int64)
            if not np.array_equal(as_int, counts):
                raise ValueError("counts must be integers")
            counts = as_int
        else:
            counts = counts.astype(np.int64, copy=True)
        if counts.min() < 0:
            raise ValueError("counts must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        for name in ("bin_width_s", "acq_time_s"):
            if not (math.isfinite(v := getattr(self, name)) and v > 0):
                raise ValueError(f"{name} must be > 0, got {v!r}")
        if not math.isfinite(self.t0_offset_s):
            raise ValueError(f"t0_offset_s must be finite, got {self.t0_offset_s!r}")

    @property
    def num_bins(self) -> int:
        return int(self.counts.size)

    @property
    def span_s(self) -> float:
        return self.num_bins * self.bin_width_s

    def bin_centers_s(self) -> np.ndarray:
        """Bin center times relative to the laser-at-wall instant."""
        return self.t0_offset_s + (np.arange(self.num_bins) + 0.5) * self.bin_width_s


def expected_signal_rate(
    scene: Scene, pixel_index: int, obj: HiddenObject, params: AcquisitionParams
) -> float:
    """Expected return rate in counts/s for one scatterer seen by one pixel.

    rate = throughput * reflectivity * L / (d1^2 * d2^2), where d1 and d2
    are the two bounce legs. With ``lambertian`` on, L is the product of
    clamped cosines of both legs against the wall normal, which is what
    makes returns die off for targets nearly in the wall plane.
    """
    r_l, r_i, r_o = scene.laser_spot, scene.pixels[pixel_index], obj.position
    d1 = r_o.distance_to(r_l)
    d2 = r_o.distance_to(r_i)
    if d1 == 0.0 or d2 == 0.0:
        raise ValueError("object coincides with a wall spot; bounce leg has zero length")
    geom = 1.0
    if params.lambertian:
        nx, ny, nz = scene.wall_normal
        cos1 = ((r_o.x - r_l.x) * nx + (r_o.y - r_l.y) * ny + (r_o.z - r_l.z) * nz) / d1
        cos2 = ((r_o.x - r_i.x) * nx + (r_o.y - r_i.y) * ny + (r_o.z - r_i.z) * nz) / d2
        geom = max(0.0, cos1) * max(0.0, cos2)
    return params.system_throughput * obj.reflectivity * geom / (d1 * d1 * d2 * d2)


def calibration_offset_s(scene: Scene, params: AcquisitionParams) -> float:
    """Offset that re-references raw histogram times to the laser-at-wall instant.

    The transceiver-to-wall standoff adds 2*standoff/c of transit (out and
    back) on top of the hidden-scene time of flight, folded into the
    repetition period.
    """
    round_trip = 2.0 * scene.standoff_m / SPEED_OF_LIGHT
    return -math.fmod(round_trip, params.window_s)


# Cephes erf/erfc (ndtr.c, S. L. Moshier), which scipy.special.erf evaluates.
# With libm's exp and C's evaluation order this port equals scipy's erf bit
# for bit; numpy's own exp is 1 ulp off on some inputs, which is enough to
# change a pulse's intensities and so every Poisson draw. The leading 1.0 of
# each denominator is the coefficient Cephes' p1evl implies (1.0 * x is x).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX); Cephes takes erfc as 0 where x * x exceeds it


def _polevl(x, coef):
    # Horner, one multiply and one add per step (no fused multiply-add).
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function of a float array, equal to ``scipy.special.erf``."""
    a = np.abs(x)
    y = np.ones_like(a)  # erf where a * a > _MAXLOG, and at inf
    small = a <= 1.0
    s = a[small]
    z = s * s
    y[small] = s * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    with np.errstate(over="ignore"):
        tail = ~small & ~(a * a > _MAXLOG)  # keeps nan, which stays nan
    near = tail & (a < 8.0)
    for part, num, den in ((near, _ERFC_P, _ERFC_Q), (tail & ~near, _ERFC_R, _ERFC_S)):
        t = a[part]
        if t.size:
            e = np.fromiter(map(math.exp, (-t * t).tolist()), np.float64, t.size)
            y[part] = 1.0 - e * _polevl(t, num) / _polevl(t, den)
    return np.copysign(y, x)


def _add_gaussian_mass(out, bin_width, sigma, pulses):
    """Add total * Integral_bin N(t; mu, sigma) dt to each bin of ``out`` in place.

    ``pulses`` is a sequence of (mu, total). Bin indices fold modulo the
    histogram length (the timebase is periodic with the laser repetition).
    sigma == 0 drops each mass into the single bin containing its mu. One
    ``_erf`` call covers every pulse, and the masses are added in pulse
    order, so the sums equal those of adding one pulse at a time.
    """
    if not pulses:
        return
    nbins = out.shape[0]
    if sigma <= 0.0:
        for mu, total in pulses:
            out[int(math.floor(mu / bin_width)) % nbins] += total
        return
    scale = sigma * math.sqrt(2.0)
    bins, args = [], []
    for mu, _ in pulses:
        lo = int(math.floor((mu - 8.0 * sigma) / bin_width))
        hi = int(math.ceil((mu + 8.0 * sigma) / bin_width))
        bins.append(np.arange(lo, hi + 1, dtype=np.int64) % nbins)
        edges = np.arange(lo, hi + 2, dtype=np.float64) * bin_width
        args.append((edges - mu) / scale)
    cdfs = np.split(_erf(np.concatenate(args)), np.cumsum([a.size for a in args[:-1]]))
    mass = [0.5 * total * (cdf[1:] - cdf[:-1]) for (_, total), cdf in zip(pulses, cdfs)]
    np.add.at(out, np.concatenate(bins), np.concatenate(mass))


def expected_counts(
    scene: Scene,
    pixel_index: int,
    params: AcquisitionParams,
    include_objects: bool = True,
) -> np.ndarray:
    """Per-bin expected counts (the Poisson intensity) on the raw timebase.

    The intensity does not depend on the seed, so a repeated geometry (every
    trial of a sweep cell) reuses one read-only array.
    """
    if not 0 <= pixel_index < scene.num_pixels:
        raise IndexError(f"pixel_index {pixel_index} out of range")
    return _intensity(scene, pixel_index, replace(params, rng_seed=0), include_objects)


@functools.lru_cache(maxsize=4)
def _intensity(scene, pixel_index, params, include_objects):
    # Four entries hold one sweep cell (two pixels, with and without the
    # target), at 8 bytes per bin each; more would only raise peak memory.
    num_bins = params.num_bins
    window = params.window_s
    sync_delay = 2.0 * scene.standoff_m / SPEED_OF_LIGHT
    mu = np.zeros(num_bins)
    emitters = list(scene.background_scatterers)
    if include_objects:
        emitters += list(scene.objects)
    pulses = []
    for obj in emitters:
        t = tof(scene.laser_spot, obj.position, scene.pixels[pixel_index])
        if t > window:
            raise AliasingError(
                f"time of flight {t:.3e} s of {obj.label or 'scatterer'} exceeds the "
                f"repetition period {window:.3e} s; returns would alias"
            )
        total = expected_signal_rate(scene, pixel_index, obj, params) * params.acq_time_s
        if total > 0.0:
            pulses.append((math.fmod(t + sync_delay, window), total))
    _add_gaussian_mass(mu, params.bin_width_s, params.irf_sigma_s, pulses)
    mu += (params.dark_rate_hz + params.ambient_rate_hz) * params.acq_time_s / num_bins
    mu.setflags(write=False)
    return mu


def _draw(mu, params, pixel_index, stream):
    # One Poisson realisation of the intensity mu, from the generator keyed
    # on [seed, pixel, stream]: stream 0 is the signal, 1 the background.
    rng = np.random.default_rng([params.rng_seed, pixel_index, stream])
    return TransientHistogram(
        counts=rng.poisson(mu).astype(np.int64),
        bin_width_s=params.bin_width_s,
        t0_offset_s=0.0,
        pixel_index=pixel_index,
        acq_time_s=params.acq_time_s,
    )


def simulate_histogram(scene: Scene, pixel_index: int, params: AcquisitionParams) -> TransientHistogram:
    """One acquisition with the targets present. Deterministic given the seed."""
    return _draw(expected_counts(scene, pixel_index, params), params, pixel_index, 0)


def simulate_background(scene: Scene, pixel_index: int, params: AcquisitionParams) -> TransientHistogram:
    """The pre-acquired background: same scene with the targets absent.

    Uses an independent noise stream so the background realization is not
    correlated with the signal acquisition.
    """
    mu = expected_counts(scene, pixel_index, params, include_objects=False)
    return _draw(mu, params, pixel_index, 1)

