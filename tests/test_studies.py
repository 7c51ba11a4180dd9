import ast
import dataclasses
import functools
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlostrack import (
    SPEED_OF_LIGHT,
    AcquisitionParams,
    GridSpec,
    HiddenObject,
    PipelineError,
    Point3,
    Scene,
    SweepConfig,
    TooManyTargetsError,
    auto_time_window,
    backproject,
    calibration_offset_s,
    corner_scene,
    path_length,
    run_baseline_sweep,
    run_scenario,
    tof,
)
from nlostrack import localization, sceneio, studies
from nlostrack.studies import DEFAULT_GRID, DEFAULT_LASER, DEFAULT_PIXELS, _trial_seed
from test_localization import log_score, refined_position_bound


class TestAutoWindow:
    def test_contains_scene_tofs(self):
        scene = corner_scene([(0.6, 1.2)])
        p = AcquisitionParams()
        for i, pix in enumerate(scene.pixels):
            w = auto_time_window(scene.laser_spot, pix, DEFAULT_GRID, p)
            t = tof(scene.laser_spot, scene.objects[0].position, pix)
            assert w.start_s < t < w.end_s
            assert 0.0 <= w.start_s < w.end_s <= p.window_s

    def test_equals_closed_form_window(self):
        p = AcquisitionParams()
        g = DEFAULT_GRID
        xs, ys = g.x_centers()[None, :], g.y_centers()[:, None]
        margin = 6.0 * p.irf_sigma_s + 25.0 * p.bin_width_s
        for pix in DEFAULT_PIXELS:
            d1 = np.sqrt((xs - DEFAULT_LASER.x) ** 2 + (ys - DEFAULT_LASER.y) ** 2
                         + (g.z_plane - DEFAULT_LASER.z) ** 2)
            d2 = np.sqrt((xs - pix.x) ** 2 + (ys - pix.y) ** 2 + (g.z_plane - pix.z) ** 2)
            paths = d1 + d2
            w = auto_time_window(DEFAULT_LASER, pix, g, p)
            assert w.start_s == max(0.0, float(paths.min()) / SPEED_OF_LIGHT - margin)
            assert w.end_s == min(p.window_s, float(paths.max()) / SPEED_OF_LIGHT + margin)

    def test_grid_beyond_range_rejected(self):
        far_grid = GridSpec(20, 26, 20, 24, 0.5, 1.0)
        with pytest.raises(ValueError, match="unambiguous range"):
            auto_time_window(DEFAULT_LASER, DEFAULT_PIXELS[0], far_grid, AcquisitionParams())


class TestRunScenario:
    def test_single_person_within_half_meter(self):
        scene = corner_scene([(0.6, 1.0)])
        res = run_scenario(scene, AcquisitionParams(rng_seed=1), DEFAULT_GRID)
        assert res.ok and len(res.tracks) == 1
        assert abs(res.tracks[0].position[0] - 0.6) < 0.5
        assert abs(res.tracks[0].position[1] - 1.0) < 0.5

    def test_deep_person_still_localized(self):
        scene = corner_scene([(0.6, 1.8)])
        res = run_scenario(scene, AcquisitionParams(rng_seed=2), DEFAULT_GRID)
        assert res.ok
        assert abs(res.tracks[0].position[1] - 1.8) < 0.5

    def test_zero_reflectivity_reports_no_target(self):
        scene = corner_scene([(0.6, 1.0)], reflectivity=0.0)
        res = run_scenario(scene, AcquisitionParams(rng_seed=3), DEFAULT_GRID)
        assert res.status == "no_target"
        assert res.tracks == []
        assert any("no target found" in n for n in res.notes)

    def test_needs_two_pixels(self):
        scene = Scene(
            laser_spot=DEFAULT_LASER,
            pixels=(DEFAULT_PIXELS[0],),
            objects=(HiddenObject(Point3(0.6, 1.0, 1.0), 3.0),),
        )
        with pytest.raises(ValueError, match="two detector pixels"):
            run_scenario(scene, AcquisitionParams(), DEFAULT_GRID)

    def test_too_many_targets(self):
        scene = corner_scene([(0.6, 1.0)])
        with pytest.raises(TooManyTargetsError):
            run_scenario(scene, AcquisitionParams(), DEFAULT_GRID, k_targets=3)

    @pytest.mark.parametrize("k_targets", [0, -1])
    def test_nonpositive_targets_refused_up_front(self, k_targets):
        scene = corner_scene([(0.6, 1.0)])
        params = AcquisitionParams(rng_seed=3)
        signal, background = studies.simulate_scene(scene, params)
        with pytest.raises(ValueError, match=r"^k_targets must be >= 1$"):
            studies.reconstruct_from_histograms(
                signal, background, scene.laser_spot, list(scene.pixels), DEFAULT_GRID,
                params, offset_s=calibration_offset_s(scene, params), k_targets=k_targets,
            )

    def test_zero_irf_width_refused_before_any_pixel(self, monkeypatch):
        # A delta-pulse acquisition simulates, but retrieval fits IRF widths.
        scene = corner_scene([(0.6, 1.0)])
        params = AcquisitionParams(rng_seed=3, irf_sigma_s=0.0)
        signal, background = studies.simulate_scene(scene, params)

        def fail(*args):
            raise AssertionError("processed a pixel")

        monkeypatch.setattr(studies, "_process_pixel", fail)
        with pytest.raises(ValueError, match=r"irf_sigma_s > 0, got 0\.0"):
            studies.reconstruct_from_histograms(
                signal, background, scene.laser_spot, list(scene.pixels), DEFAULT_GRID,
                params, offset_s=calibration_offset_s(scene, params),
            )

    def test_pipeline_error_names_pixel(self):
        # an object beyond the unambiguous range breaks simulation for pixel 0
        scene = corner_scene([(0.6, 4.8)])
        with pytest.raises(PipelineError, match="pixel 0"):
            run_scenario(scene, AcquisitionParams(), DEFAULT_GRID)

    def test_background_length_mismatch_names_pixel(self):
        # The shape check runs on the raw histograms, before offset and crop.
        scene = corner_scene([(0.6, 1.0)])
        params = AcquisitionParams(rng_seed=3)
        signal, background = studies.simulate_scene(scene, params)
        background[1] = dataclasses.replace(background[1], counts=background[1].counts[:-10])
        with pytest.raises(PipelineError, match=r"pixel 1: histogram length mismatch"):
            studies.reconstruct_from_histograms(
                signal, background, scene.laser_spot, list(scene.pixels), DEFAULT_GRID,
                params, offset_s=calibration_offset_s(scene, params),
            )

    def test_missing_background_histogram_refused(self):
        scene = corner_scene([(0.6, 1.0)])
        params = AcquisitionParams(rng_seed=3)
        signal, background = studies.simulate_scene(scene, params)
        with pytest.raises(ValueError,
                           match="^need one signal and one background histogram per pixel$"):
            studies.reconstruct_from_histograms(
                signal, background[:-1], scene.laser_spot, list(scene.pixels), DEFAULT_GRID,
                params, offset_s=calibration_offset_s(scene, params),
            )

    def test_ambiguous_association_reports_status_and_note(self, monkeypatch):
        # Mirror-symmetric pixels and targets: both assignments score alike.
        # No warning filter: pytest's filterwarnings = error fails on any
        # warning. Association's best solution carries its detections; the
        # result keeps its tracks and drops them.
        raised, associate = [], studies.associate_and_localize

        def recording_associate(*args, **kwargs):
            try:
                return associate(*args, **kwargs)
            except localization.AmbiguousAssociationError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(studies, "associate_and_localize", recording_associate)
        scene = corner_scene(
            [(-0.8, 1.4), (0.8, 1.4)], reflectivity=3.0,
            pixels=(Point3(-0.6, 0.0, 1.0), Point3(0.6, 0.0, 1.0)),
            laser_spot=Point3(0.0, 0.0, 1.0),
        )
        params = AcquisitionParams(rng_seed=0, system_throughput=1.0e5)
        res = run_scenario(scene, params, DEFAULT_GRID, k_targets=2)
        assert res.status == "ambiguous"
        assert res.notes == ["ambiguous association; best [(-0.00, 1.45), (0.00, 1.75)] "
                             "vs runner-up [(-0.80, 1.40), (0.80, 1.40)]"]
        [exc] = raised
        assert len(exc.best) == 2 and all(t.detections for t in exc.best)
        assert res.tracks == [dataclasses.replace(t, detections=()) for t in exc.best]

    def test_determinism(self):
        scene = corner_scene([(0.6, 1.0)])
        a = run_scenario(scene, AcquisitionParams(rng_seed=11), DEFAULT_GRID)
        b = run_scenario(scene, AcquisitionParams(rng_seed=11), DEFAULT_GRID)
        assert a.tracks[0].position == b.tracks[0].position
        assert a.tracks[0].sigma_x == b.tracks[0].sigma_x


# Tracks from the implementation that rebuilt each ellipse for every window
# and back-projection, without the shared path-length maps:
# (seed, k_targets) -> [(x, y, sigma_x, sigma_y, peak_value)].
REFERENCE_TRACKS = {
    (5, 1): [(0.6028541269953275, 1.197303513922427,
              0.0982869772521406, 0.09273934152337117, 133.1713643274908)],
    (6, 1): [(0.6029915124973746, 1.197432781790934,
              0.10294983820922368, 0.09713204348094472, 123.1459884388335)],
    (5, 2): [(0.39876563387870184, 1.0008931179333562,
              0.08263471390835332, 0.07516107909946378, 156.730010845232),
             (0.9873465977004687, 1.809261833898645,
              0.14421939800277836, 0.12159889920155414, 94.449885438336)],
    (6, 2): [(0.3977426401708715, 1.0020125971807514,
              0.08237993560397967, 0.0747987221419629, 157.24447659786657),
             (0.9774175329861304, 1.8184929083764183,
              0.1404450676158293, 0.11689508368710262, 97.9140271989333)],
}


@pytest.mark.parametrize("seed,k_targets", sorted(REFERENCE_TRACKS))
def test_tracks_match_reference_values(seed, k_targets):
    truths = [(0.6, 1.2)] if k_targets == 1 else [(0.4, 1.0), (1.0, 1.8)]
    res = run_scenario(corner_scene(truths), AcquisitionParams(rng_seed=seed), DEFAULT_GRID,
                       k_targets=k_targets)
    assert res.status == "ok"
    want = REFERENCE_TRACKS[(seed, k_targets)]
    assert len(res.tracks) == len(want)
    z = DEFAULT_GRID.z_plane
    for track, (x, y, sx, sy, pv) in zip(res.tracks, want):
        # The track's band at each pixel with returns is that of the peak whose
        # c*t is nearest its path. Both positions stop within the refinement's
        # tolerance of the optimum's score, which bounds how far apart they are.
        bands, r_l = [], DEFAULT_LASER
        for r_i, peaks in zip(DEFAULT_PIXELS, res.peaks_per_pixel):
            if not peaks:
                continue
            path = path_length(r_l, Point3(x, y, z), r_i)
            pk = min(peaks, key=lambda p: abs(SPEED_OF_LIGHT * p.t_s - path))
            bands.append(backproject(pk, r_l, r_i, DEFAULT_GRID))
        assert log_score(track.position, bands, z) == pytest.approx(
            log_score((x, y), bands, z), rel=0, abs=localization.REFINE_TOLERANCE)
        assert math.dist(track.position, (x, y)) <= refined_position_bound(
            track.position, bands, z)
        assert (track.sigma_x, track.sigma_y, track.peak_value) == pytest.approx(
            (sx, sy, pv), rel=1e-9)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
README = CONFIGS.parent / "README.md"


def test_readme_library_block_runs(capsys):
    # README's Library block runs as written and prints the track's (x, y).
    (block,) = [b for b in re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
                if "nt.run_scenario(" in b]
    exec(block, {})
    position = ast.literal_eval(capsys.readouterr().out)
    assert math.dist(position, (0.6, 1.2)) < 2 * DEFAULT_GRID.resolution


@functools.lru_cache(maxsize=None)
def _bundled_histograms(config, seed):
    scene, params, grid = sceneio.load_scene(CONFIGS / config)
    params = dataclasses.replace(params, rng_seed=seed)
    return scene, params, grid, studies.simulate_scene(scene, params)


@functools.lru_cache(maxsize=None)
def _reconstruct_in_order(config, seed, k_targets, order, reversed_peaks=()):
    # The chain on a bundled scene's histograms, its pixels passed in
    # ``order``; the n-th pixel to fit peaks gets them in reverse order when
    # ``reversed_peaks[n]`` is true.
    scene, params, grid, (signal, background) = _bundled_histograms(config, seed)
    flips, fit_peaks = iter(reversed_peaks), studies.fit_peaks

    def fit_in_order(*args, **kwargs):
        peaks = fit_peaks(*args, **kwargs)
        return peaks[::-1] if next(flips, False) else peaks

    with mock.patch.object(studies, "fit_peaks", fit_in_order):
        return studies.reconstruct_from_histograms(
            [signal[i] for i in order], [background[i] for i in order], scene.laser_spot,
            [scene.pixels[i] for i in order], grid, params,
            offset_s=calibration_offset_s(scene, params), k_targets=k_targets,
        )


@pytest.mark.parametrize("config,k_targets", [("single_person.json", 1), ("two_person.json", 2)])
@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(4)), seed=st.integers(0, 9))
def test_tracks_do_not_depend_on_pixel_order(config, k_targets, order, seed):
    # Permuting the pixels together with their histograms changes only the
    # order bands are summed in: status and track count stay, each track's
    # detections are the same returns, and positions and spreads agree to
    # rounding.
    want = _reconstruct_in_order(config, seed, k_targets, (0, 1, 2, 3))
    got = _reconstruct_in_order(config, seed, k_targets, tuple(order))
    assert got.status == want.status
    assert len(got.tracks) == len(want.tracks)
    for a, b in zip(got.tracks, want.tracks):
        assert a.target_label == b.target_label
        assert sorted((order[i], j) for i, j in a.detections) == list(b.detections)
        assert np.allclose((*a.position, a.sigma_x, a.sigma_y),
                           (*b.position, b.sigma_x, b.sigma_y), rtol=0, atol=1e-12)


@pytest.mark.parametrize("config,k_targets", [
    ("single_person.json", 1), ("single_person.json", 2), ("two_person.json", 2)])
@settings(max_examples=10, deadline=None)
@given(reversed_peaks=st.lists(st.booleans(), min_size=4, max_size=4), seed=st.integers(0, 19))
def test_tracks_do_not_depend_on_peak_order(config, k_targets, reversed_peaks, seed):
    # A pixel has at most k_targets <= 2 peaks, so reversing some pixels'
    # peaks reaches every peak order. The bands of a target are still summed
    # in pixel order, so status and tracks are bit-identical, each track's
    # detections naming the same returns by their new peak indices.
    want = _reconstruct_in_order(config, seed, k_targets, (0, 1, 2, 3))
    got = _reconstruct_in_order(config, seed, k_targets, (0, 1, 2, 3), tuple(reversed_peaks))
    reordered = [dataclasses.replace(t, detections=tuple(
        (i, got.peaks_per_pixel[i].index(want.peaks_per_pixel[i][j])) for i, j in t.detections))
        for t in want.tracks]
    assert (got.status, got.tracks) == (want.status, reordered)


def _translated(config, dx):
    # A bundled scene document with every x coordinate, the grid's included,
    # moved by dx along the wall.
    doc = json.loads((CONFIGS / config).read_text())
    for point in (doc["laser_spot"], *doc["pixels"],
                  *(o["position"] for o in doc["objects"] + doc["background_scatterers"])):
        point[0] += dx
    doc["grid"]["x_min"] += dx
    doc["grid"]["x_max"] += dx
    return sceneio.scene_from_dict(doc)


@pytest.mark.parametrize("config,k_targets", [("single_person.json", 1), ("two_person.json", 2)])
@settings(max_examples=10, deadline=None)
@given(dx=st.sampled_from([0.5, 1.0]), seed=st.integers(0, 19))
def test_translating_scene_and_grid_along_the_wall_translates_tracks(config, k_targets, dx,
                                                                     seed):
    results = []
    for scene, params, grid in (_translated(config, 0.0), _translated(config, dx)):
        params = dataclasses.replace(params, rng_seed=seed)
        results.append(run_scenario(scene, params, grid, k_targets=k_targets))
    want, got = results
    assert got.status == want.status
    assert len(got.tracks) == len(want.tracks)
    for a, b in zip(got.tracks, want.tracks):
        assert a.target_label == b.target_label
        assert np.allclose((a.position[0] - dx, a.position[1], a.sigma_x, a.sigma_y),
                           (*b.position, b.sigma_x, b.sigma_y), rtol=0, atol=1e-12)


@pytest.mark.parametrize("throughput,k_targets", [
    (1e4, 1), (1e4, 2),
    # At 1e6, k = 2 gives an ok track in 10 of 60 seeds only, too few for
    # ten drawn examples to fail reliably; k = 1 does in every seed.
    pytest.param(1e6, 1, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the detection threshold (4.26 here) does not grow with the local counts: the "
        "subtraction residual around the clutter return smooths to 11.3-16.8 on the four "
        "pixels at seed 0, so a clutter return reaches association (ROADMAP item 3)"))),
])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 59))
def test_scene_without_target_yields_no_ok_track(throughput, k_targets, seed):
    # The bundled single-person scene with its person removed: its clutter
    # scatterer is in the signal and the background alike.
    scene, params, grid = sceneio.load_scene(CONFIGS / "single_person.json")
    scene = dataclasses.replace(scene, objects=())
    params = dataclasses.replace(params, rng_seed=seed, system_throughput=throughput)
    assert run_scenario(scene, params, grid, k_targets=k_targets).status != "ok"


def test_pixel_without_returns_changes_no_track():
    # An extra pixel whose signal is its own background has no return. It
    # keeps an empty peak list and a note, and the tracks are those of the
    # same call without it, their detections' pixel numbers counting it.
    scene, params, grid, (signal, background) = _bundled_histograms("two_person.json", 0)
    pixels = list(scene.pixels)
    args = (grid, params, calibration_offset_s(scene, params), 2)
    want = studies.reconstruct_from_histograms(signal, background, scene.laser_spot, pixels,
                                               *args)
    got = studies.reconstruct_from_histograms(
        [*signal[:1], background[0], *signal[1:]], [*background[:1], background[0],
                                                    *background[1:]],
        scene.laser_spot, [*pixels[:1], Point3(-0.75, 0.0, 1.0), *pixels[1:]], *args)
    assert want.status == got.status == "ok"
    assert got.tracks == [
        dataclasses.replace(t, detections=tuple((i + (i >= 1), j) for i, j in t.detections))
        for t in want.tracks]
    assert got.peaks_per_pixel == [*want.peaks_per_pixel[:1], [], *want.peaks_per_pixel[1:]]
    assert "pixel 1: no peak above threshold" in got.notes


@pytest.mark.parametrize("resolution", [0.08, 0.2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_narrow_bands_on_a_coarse_grid_are_seeded_from_the_full_grid(resolution, seed):
    # An 8 ps instrument width makes each band a few millimetres wide, so on
    # a coarse grid the target's bands share no finite seed-lattice cell.
    # Association then seeds the fit from the full-grid sum; without that
    # fallback every seed here reports no_target.
    scene, params, grid = sceneio.load_scene(CONFIGS / "single_person.json")
    params = dataclasses.replace(params, irf_sigma_s=8e-12, system_throughput=1e5,
                                 rng_seed=seed)
    res = run_scenario(scene, params, dataclasses.replace(grid, resolution=resolution))
    assert res.status == "ok"
    assert math.dist(res.tracks[0].position, (0.6, 1.2)) < 1e-3


@pytest.mark.parametrize("name", ["single_person.json", "two_person.json"])
def test_bundled_configs_hold_the_default_layout(name):
    scene, _, grid = sceneio.load_scene(CONFIGS / name)
    assert (scene.laser_spot, scene.pixels, grid) == (DEFAULT_LASER, DEFAULT_PIXELS, DEFAULT_GRID)


class TestRunTwoPerson:
    def test_both_localized_within_half_meter(self):
        truths = [(0.5, 0.9), (1.2, 1.6)]
        scene = corner_scene(truths, reflectivity=5.0)
        res = run_scenario(scene, AcquisitionParams(rng_seed=4), DEFAULT_GRID, k_targets=2)
        assert res.ok and len(res.tracks) == 2
        got = sorted(t.position for t in res.tracks)
        for (gx, gy), (tx, ty) in zip(got, sorted(truths)):
            assert abs(gx - tx) < 0.5 and abs(gy - ty) < 0.5

    def test_opposite_corners_larger_sigma_than_same_corner(self):
        # two pixels, targets on either corner, wall-angle losses on: the
        # retrieval still works but with visibly larger spreads
        kappa = 7.0e4
        same = corner_scene([(0.5, 0.9), (1.2, 1.6)], reflectivity=3.0)
        opp = corner_scene(
            [(0.5, 0.9), (-2.8, 0.6)], reflectivity=3.0,
            pixels=(Point3(-1.4, 0, 1.0), Point3(-0.8, 0, 1.05)),
        )

        def mean_sigma(scene, n=6):
            vals = []
            for seed in range(n):
                p = AcquisitionParams(system_throughput=kappa, rng_seed=seed)
                res = run_scenario(scene, p, DEFAULT_GRID, k_targets=2)
                if res.ok:
                    vals.append(np.mean([t.sigma_x + t.sigma_y for t in res.tracks]))
            assert vals, "no successful trials"
            return float(np.mean(vals))

        assert mean_sigma(opp) > mean_sigma(same)

    def test_out_of_reach_person_reports_failure(self):
        # Lambertian losses plus dark noise: a target far along the wall
        # gives too little signal and the run degrades instead of crashing
        scene = corner_scene(
            [(0.5, 0.9), (-2.8, 0.45)], reflectivity=1.0,
            pixels=(Point3(-1.4, 0, 1.0), Point3(-0.8, 0, 1.05)),
        )
        res = run_scenario(scene, AcquisitionParams(rng_seed=5), DEFAULT_GRID, k_targets=2)
        assert res.status == "no_target"
        assert res.tracks == []


class TestSweep:
    def small_config(self, **overrides):
        defaults = dict(
            laser_spot=Point3(-0.5, 0, 1.15),
            d1_position=Point3(-0.2, 0, 1.0),
            d2_x_range=(-0.4, -1.2, 3),
            object_positions=(Point3(1.0, 0.8, 1.0),),
            acquisition=AcquisitionParams(rng_seed=21, system_throughput=1e6),
            grid=DEFAULT_GRID,
            trials_per_point=10,
        )
        defaults.update(overrides)
        return SweepConfig(**defaults)

    def test_zero_irf_width_refused_when_built(self):
        # No trial could retrieve a track, so the config itself is refused.
        with pytest.raises(ValueError, match=r"^retrieval needs irf_sigma_s > 0, got 0\.0$"):
            self.small_config(acquisition=AcquisitionParams(rng_seed=21, irf_sigma_s=0.0))

    def test_validation(self):
        with pytest.raises(ValueError, match="steps"):
            self.small_config(d2_x_range=(-0.4, -1.2, 1))
        with pytest.raises(ValueError, match="trials_per_point"):
            self.small_config(trials_per_point=5)
        with pytest.raises(ValueError, match="object"):
            self.small_config(object_positions=())
        with pytest.raises(ValueError, match="^d2_x_range bounds must be finite$"):
            self.small_config(d2_x_range=(-0.4, math.inf, 3))

    def test_rows_and_determinism(self):
        config = self.small_config()
        a = run_baseline_sweep(config)
        b = run_baseline_sweep(config)
        assert len(a.rows) == 3
        assert a.rows == b.rows
        baselines = sorted({row.baseline_m for row in a.rows})
        assert baselines == pytest.approx([0.2, 0.6, 1.0])
        for row in a.rows:
            assert row.valid
            assert row.n_failed == 0
            assert row.sigma_x >= 0 and np.isfinite(row.pdf_sigma_y)

    def test_all_failures_marked_invalid(self):
        config = self.small_config(object_reflectivity=0.0)
        result = run_baseline_sweep(config)
        assert all(not row.valid for row in result.rows)
        assert all(row.n_failed == row.n_trials for row in result.rows)

    def test_programming_error_is_not_a_failed_trial(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in the fit stage")

        monkeypatch.setattr(studies, "fit_peaks", broken)
        with pytest.raises(TypeError, match="bug in the fit stage"):
            run_baseline_sweep(self.small_config(d2_x_range=(-0.4, -1.2, 2)))

    def test_pipeline_error_is_a_failed_trial(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("fit failed")

        monkeypatch.setattr(studies, "fit_peaks", failing)
        result = run_baseline_sweep(self.small_config(d2_x_range=(-0.4, -1.2, 2)))
        assert len(result.rows) == 2
        assert all(row.n_failed == row.n_trials == 10 for row in result.rows)
        assert not any(row.valid for row in result.rows)

    def test_trial_seed_stable(self):
        assert _trial_seed(42, 1, 2, 3) == _trial_seed(42, 1, 2, 3)
        assert _trial_seed(42, 1, 2, 3) != _trial_seed(42, 1, 2, 4)

    def test_near_zero_baseline_spreads_diverge(self):
        # coincident ellipses cannot pin the position along the band: at a
        # 2 cm baseline the y-spread exceeds three times its 1 m value
        obj = Point3(0.9, 1.6, 1.0)
        big = np.mean([
            r.pdf_sigma_y
            for r in run_baseline_sweep(
                self.small_config(object_positions=(obj,), d2_x_range=(-0.22, -0.24, 2))
            ).rows
        ])
        ref = np.mean([
            r.pdf_sigma_y
            for r in run_baseline_sweep(
                self.small_config(object_positions=(obj,), d2_x_range=(-1.2, -1.2001, 2))
            ).rows
        ])
        assert big >= 3.0 * ref
