"""End-to-end experiment runners: one or two targets per scenario, and the baseline sweep.

Each runner drives the full chain (simulate signal and background,
subtract, apply the calibration offset, crop to the window of interest,
detect and fit peaks, back-project and fuse) against the scene's ground truth,
which only the simulation stage is allowed to read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .acquisition import (
    AcquisitionParams,
    TransientHistogram,
    calibration_offset_s,
    flight_time_s,
    simulate_background,
    simulate_histogram,
)
from .geometry import SPEED_OF_LIGHT, HiddenObject, Point3, Scene
from .localization import (
    AmbiguousAssociationError,
    EmptyIntersectionError,
    GridSpec,
    InfeasibleTimeError,
    TrackEstimate,
    _check_k_targets,
    associate_and_localize,
    path_length_map,
)
from .processing import (
    PeakEstimate,
    TimeWindow,
    apply_offset,
    crop,
    detect_peaks,
    fit_peaks,
    subtract_background,
    width_box,
)


class PipelineError(RuntimeError):
    """A per-pixel processing stage failed; the message names the pixel."""


# Desk-scale default layout: wall plane at y = 0, hidden region at y > 0,
# origin at the right-hand corner. Spots hug the corner to keep paths short,
# but not every grid cell is inside the unambiguous range at 40 MHz: for
# 18-21 % of DEFAULT_GRID cells (depending on the pixel) the two-bounce path
# is longer than c / 40 MHz = 7.49 m (up to 10.9 m), and auto_time_window
# clips the window end at the period.
DEFAULT_LASER = Point3(-0.5, 0.0, 1.15)
DEFAULT_PIXELS = (
    Point3(-0.9, 0.0, 1.0),
    Point3(-0.62, 0.0, 1.08),
    Point3(-0.38, 0.0, 0.95),
    Point3(-0.1, 0.0, 1.05),
)
DEFAULT_GRID = GridSpec(x_min=-3.0, x_max=3.0, y_min=0.0, y_max=4.0, resolution=0.02, z_plane=1.0)


def corner_scene(
    object_positions,
    reflectivity: float = 3.0,
    pixels=DEFAULT_PIXELS,
    laser_spot: Point3 = DEFAULT_LASER,
) -> Scene:
    """Convenience builder for the bundled corner layout, objects on DEFAULT_GRID's plane."""
    objects = tuple(
        HiddenObject(Point3(x, y, DEFAULT_GRID.z_plane), reflectivity, f"person-{i + 1}")
        for i, (x, y) in enumerate(object_positions)
    )
    return Scene(laser_spot=laser_spot, pixels=pixels, objects=objects)


def auto_time_window(
    r_l: Point3, r_i: Point3, grid: GridSpec, params: AcquisitionParams
) -> TimeWindow:
    """Window of interest for one pixel: flight times reachable from the grid."""
    paths = path_length_map(r_l, r_i, grid)
    margin = 6.0 * params.irf_sigma_s + 25.0 * params.bin_width_s
    start = max(0.0, float(paths.min()) / SPEED_OF_LIGHT - margin)
    end = min(params.window_s, float(paths.max()) / SPEED_OF_LIGHT + margin)
    if start >= end:
        raise ValueError("grid lies entirely beyond the unambiguous range for this pixel")
    return TimeWindow(start, end)


@dataclass
class ScenarioResult:
    """Tracks plus the per-pixel intermediates that produced them.

    ``peaks_per_pixel`` holds every fitted return of each pixel, in the
    order the pixels were passed in (an empty list for a pixel with none).
    Each track of an ``ok`` result carries its detections, (pixel index,
    peak index) pairs in that same pixel numbering; the tracks of an
    ``ambiguous`` result carry none. ``sceneio.tracks_to_dict`` writes every
    return with the label of the track that fuses it, which is all a band
    or fused map is rebuilt from.
    """

    tracks: list[TrackEstimate]
    peaks_per_pixel: list[list[PeakEstimate]]
    status: str  # "ok", "ambiguous" or "no_target"
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "ambiguous") and bool(self.tracks)


def check_retrieval(params: AcquisitionParams, k_targets: int = 1) -> None:
    """The one check of the retrieval settings, made before any histogram is processed."""
    _check_k_targets(k_targets)
    width_box(params.bin_width_s, params.irf_sigma_s)


def _process_pixel(signal, background, r_l, r_i, offset_s, grid, params, k_targets):
    # Subtraction is per bin and cropping only selects and reorders bins, so
    # subtracting the raw histograms first needs one offset and one crop.
    # The signal must be a raw acquisition under ``params`` (subtraction holds
    # the background to it): the window and the offset are times in its bins.
    shape = (signal.num_bins, signal.bin_width_s, signal.t0_offset_s)
    if shape != (params.num_bins, params.bin_width_s, 0.0):
        raise ValueError(
            f"signal histogram has {shape[0]} bins of {shape[1]!r} s from t0 {shape[2]!r} s; "
            f"a raw acquisition has {params.num_bins} bins of {params.bin_width_s!r} s from 0.0 s")
    if signal.acq_time_s != params.acq_time_s:
        raise ValueError(f"signal histogram integrates {signal.acq_time_s!r} s; "
                         f"the scene's acquisition integrates {params.acq_time_s!r} s")
    window = auto_time_window(r_l, r_i, grid, params)
    cleaned = crop(apply_offset(subtract_background(signal, background), offset_s), window)
    seeds = detect_peaks(cleaned, max_peaks=k_targets, irf_sigma_s=params.irf_sigma_s)
    if not seeds:
        return []
    return fit_peaks(cleaned, seeds, irf_sigma_guess=params.irf_sigma_s)


def reconstruct_from_histograms(
    signal_hists: list[TransientHistogram],
    background_hists: list[TransientHistogram],
    laser_spot: Point3,
    pixels: list[Point3],
    grid: GridSpec,
    params: AcquisitionParams,
    offset_s: float,
    k_targets: int = 1,
) -> ScenarioResult:
    """Run the retrieval chain on already-acquired raw histograms.

    Peaks are detected at the fixed threshold of ``detect_peaks``. A pixel
    whose histogram shows no usable return keeps an empty peak list and gets
    a note; if fewer than two pixels have returns, or the measurements
    cannot be reconciled, the result reports ``no_target`` instead of
    raising. An ambiguous association reports ``ambiguous`` and a note, with
    the best assignment's tracks stripped of their detections. Processing
    failures propagate as PipelineError naming the pixel.
    """
    if len(pixels) < 2:
        raise ValueError("localization needs at least two detector pixels")
    if len(signal_hists) != len(pixels) or len(background_hists) != len(pixels):
        raise ValueError("need one signal and one background histogram per pixel")
    check_retrieval(params, k_targets)

    notes: list[str] = []
    peaks_per_pixel: list[list[PeakEstimate]] = []
    for i, (sig, bg) in enumerate(zip(signal_hists, background_hists)):
        try:
            peaks = _process_pixel(sig, bg, laser_spot, pixels[i], offset_s, grid, params,
                                   k_targets)
        except (ValueError, RuntimeError) as exc:
            raise PipelineError(f"pixel {i}: {exc}") from exc
        peaks_per_pixel.append(peaks)
        if not peaks:
            notes.append(f"pixel {i}: no peak above threshold")

    result = ScenarioResult(tracks=[], peaks_per_pixel=peaks_per_pixel, status="no_target",
                            notes=notes)
    if sum(map(bool, peaks_per_pixel)) < 2:
        result.notes.append("no target found: fewer than two pixels with usable returns")
        return result

    try:
        result.tracks = associate_and_localize(
            peaks_per_pixel, laser_spot, pixels, grid, k_targets=k_targets
        )
        result.status = "ok"
    except AmbiguousAssociationError as exc:
        result.status = "ambiguous"
        result.notes.append(
            "ambiguous association; best "
            + _fmt_tracks(exc.best) + " vs runner-up " + _fmt_tracks(exc.second)
        )
        result.tracks = [replace(t, detections=()) for t in exc.best]
    except (EmptyIntersectionError, InfeasibleTimeError) as exc:
        result.notes.append(f"no target found: {exc}")
    return result


def simulate_scene(
    scene: Scene, params: AcquisitionParams
) -> tuple[list[TransientHistogram], list[TransientHistogram]]:
    """Signal and background histograms for every pixel, in pixel order.

    Simulation failures propagate as PipelineError naming the pixel.
    """
    signal, background = [], []
    for i in range(scene.num_pixels):
        try:
            signal.append(simulate_histogram(scene, i, params))
            background.append(simulate_background(scene, i, params))
        except (ValueError, RuntimeError) as exc:
            raise PipelineError(f"pixel {i}: {exc}") from exc
    return signal, background


def run_scenario(
    scene: Scene,
    params: AcquisitionParams,
    grid: GridSpec,
    k_targets: int = 1,
) -> ScenarioResult:
    """Simulate the scene and run the full retrieval on the result."""
    signal, background = simulate_scene(scene, params)
    return reconstruct_from_histograms(
        signal, background, scene.laser_spot, list(scene.pixels), grid, params,
        offset_s=calibration_offset_s(scene, params), k_targets=k_targets,
    )


def _fmt_tracks(tracks) -> str:
    return "[" + ", ".join(f"({t.position[0]:.2f}, {t.position[1]:.2f})" for t in tracks) + "]"


def run_two_person(scene: Scene, params: AcquisitionParams, grid: GridSpec) -> ScenarioResult:
    """``run_scenario(..., k_targets=2)``: the frozen benchmark's entry point alone, to be
    deleted with the benchmark change that calls ``run_scenario`` (ROADMAP item 7)."""
    return run_scenario(scene, params, grid, k_targets=2)


# ---------------------------------------------------------------------------
# Detector-baseline sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Two-detector baseline study: D1 fixed, D2 scanned along x."""

    laser_spot: Point3
    d1_position: Point3
    d2_x_range: tuple[float, float, int]  # (x_min, x_max, steps)
    object_positions: tuple[Point3, ...]
    acquisition: AcquisitionParams
    grid: GridSpec
    trials_per_point: int = 50
    object_reflectivity: float = 3.0
    standoff_m: float = 2.0

    def __post_init__(self):
        lo, hi, steps = self.d2_x_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("d2_x_range bounds must be finite")
        if int(steps) < 2:
            raise ValueError("d2_x_range needs at least 2 steps")
        if self.trials_per_point < 10:
            raise ValueError("trials_per_point must be >= 10")
        if not self.object_positions:
            raise ValueError("need at least one object position")
        object.__setattr__(self, "object_positions", tuple(self.object_positions))
        check_retrieval(self.acquisition)
        # A setting no trial could run with is refused here: one some cell's
        # Scene refuses, a target whose return would alias at a pixel, or a
        # grid beyond a pixel's unambiguous range.
        for _, _, _, scene in self.cells():
            for i in range(scene.num_pixels):
                flight_time_s(scene, i, scene.objects[0], self.acquisition)
        for r_i in dict.fromkeys((self.d1_position, *self.d2_positions())):
            auto_time_window(self.laser_spot, r_i, self.grid, self.acquisition)

    def d2_positions(self) -> list[Point3]:
        lo, hi, steps = self.d2_x_range
        return [
            Point3(float(x), self.d1_position.y, self.d1_position.z)
            for x in np.linspace(lo, hi, int(steps))
        ]

    def cells(self):
        """(step index, baseline, object index, scene) of each (baseline, object) cell, in order."""
        for si, d2 in enumerate(self.d2_positions()):
            for oi, opos in enumerate(self.object_positions):
                scene = Scene(self.laser_spot, (self.d1_position, d2), standoff_m=self.standoff_m,
                              objects=(HiddenObject(opos, self.object_reflectivity, "target"),))
                yield si, abs(d2.x - self.d1_position.x), oi, scene


@dataclass(frozen=True)
class SweepRow:
    """Aggregates for one (baseline, object) cell of the sweep.

    error_* is the deviation of the trial-mean position from truth
    (accuracy); sigma_* is the spread of retrieved positions over trials
    (precision); pdf_sigma_* is the mean width of the fused density,
    the alternative reading of precision.
    """

    baseline_m: float
    object_index: int
    truth_x: float
    truth_y: float
    error_x: float
    error_y: float
    sigma_x: float
    sigma_y: float
    pdf_sigma_x: float
    pdf_sigma_y: float
    pdf_sigma_x_se: float
    pdf_sigma_y_se: float
    n_trials: int
    n_failed: int
    valid: bool


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def _trial_seed(master: int, step: int, obj: int, trial: int) -> int:
    return int(np.random.SeedSequence([master, step, obj, trial]).generate_state(1)[0])


def run_baseline_sweep(config: SweepConfig) -> SweepResult:
    """Monte-Carlo sweep of the D1-D2 separation, one row per (baseline, object).

    Deterministic given the config (trial seeds derive from the
    acquisition seed). A trial fails on a PipelineError or a result with no
    track, and steps where more than half the trials fail are marked
    invalid; any other error (an invalid setting) propagates.
    """
    master = config.acquisition.rng_seed
    rows: list[SweepRow] = []
    for si, baseline, oi, scene in config.cells():
        opos = scene.objects[0].position
        xs, ys, pdf_sx, pdf_sy = [], [], [], []
        failed = 0
        for trial in range(config.trials_per_point):
            params = replace(
                config.acquisition, rng_seed=_trial_seed(master, si, oi, trial)
            )
            try:
                result = run_scenario(scene, params, config.grid)
            except PipelineError:
                failed += 1
                continue
            if not result.ok:
                failed += 1
                continue
            track = result.tracks[0]
            xs.append(track.position[0])
            ys.append(track.position[1])
            pdf_sx.append(track.sigma_x)
            pdf_sy.append(track.sigma_y)
        n_ok = len(xs)
        # error, sigma, pdf_sigma and pdf_sigma_se, each as (x, y)
        stats = (math.nan,) * 8
        if n_ok:
            def spread(values, scale=1.0):
                return float(np.std(values, ddof=1) / scale) if n_ok > 1 else 0.0

            stats = (
                abs(float(np.mean(xs)) - opos.x), abs(float(np.mean(ys)) - opos.y),
                spread(xs), spread(ys), float(np.mean(pdf_sx)), float(np.mean(pdf_sy)),
                spread(pdf_sx, math.sqrt(n_ok)), spread(pdf_sy, math.sqrt(n_ok)),
            )
        # A cell with no success has failed every trial, so it is invalid.
        rows.append(SweepRow(
            baseline, oi, opos.x, opos.y, *stats,
            n_trials=config.trials_per_point, n_failed=failed,
            valid=failed <= config.trials_per_point // 2,
        ))
    return SweepResult(rows=tuple(rows))
