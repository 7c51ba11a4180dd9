import dataclasses
import functools
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlostrack import (
    AmbiguousAssociationError,
    EmptyIntersectionError,
    GridSpec,
    InfeasibleTimeError,
    PeakEstimate,
    Point3,
    ProbabilityMap,
    SPEED_OF_LIGHT,
    TooManyTargetsError,
    TrackEstimate,
    associate_and_localize,
    backproject,
    localize,
    path_length,
    tof,
)
from nlostrack import localization, sceneio
from nlostrack.localization import _EXP_UNDERFLOW, _exp, path_length_map

C = SPEED_OF_LIGHT
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def peak(t_s, sigma_s=120e-12):
    return PeakEstimate(t_s=t_s, sigma_s=sigma_s, amplitude=100.0)


def reference_fuse(bands):
    # The fused map of some bands: their log-densities summed, then normalised.
    return localization._normalized(np.sum([b.log_at() for b in bands], axis=0), bands[0].grid)


def centered_grid(x0, y0, half=0.5, res=0.02, z=1.0):
    """Grid whose cell centers include (x0, y0) exactly."""
    n = round(half / res)
    return GridSpec(
        x_min=x0 - (n + 0.5) * res, x_max=x0 + (n + 0.5) * res,
        y_min=y0 - (n + 0.5) * res, y_max=y0 + (n + 0.5) * res,
        resolution=res, z_plane=z,
    )


class TestGridSpec:
    def test_cell_counts_and_centers(self):
        g = GridSpec(-3, 3, 0, 4, 0.02, 1.0)
        assert (g.nx, g.ny) == (300, 200)
        assert g.x_centers()[0] == pytest.approx(-2.99)
        assert g.y_centers()[-1] == pytest.approx(3.99)
        assert g.cell_area == pytest.approx(4e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1, 0, 0, 1)
        with pytest.raises(ValueError):
            GridSpec(0, 1, 0, 1, resolution=-0.1)
        with pytest.raises(ValueError, match="2 cells"):
            GridSpec(0, 0.02, 0, 1, resolution=0.02)
        with pytest.raises(ValueError, match="z_plane must be finite"):
            GridSpec(0, 1, 0, 1, z_plane=math.inf)
        for i, name in enumerate(["x_min", "x_max", "y_min", "y_max"]):
            bounds = [0, 1, 0, 1]
            for value in (math.inf, -math.inf, math.nan):
                bounds[i] = value
                with pytest.raises(ValueError, match=f"{name} must be finite, got {value!r}"):
                    GridSpec(*bounds)


class TestProbabilityMap:
    def test_shape_checked(self):
        g = GridSpec(0, 1, 0, 1, 0.1)
        with pytest.raises(ValueError, match="shape"):
            ProbabilityMap(grid=g, values=np.ones((3, 3)))

    def test_negative_rejected(self):
        g = GridSpec(0, 1, 0, 1, 0.1)
        with pytest.raises(ValueError):
            ProbabilityMap(grid=g, values=-np.ones((g.ny, g.nx)))

    def test_normalization_flag_checked(self):
        g = GridSpec(0, 1, 0, 1, 0.1)
        with pytest.raises(ValueError, match="integrate"):
            ProbabilityMap(grid=g, values=2.0 * np.ones((g.ny, g.nx)), normalized=True)
        ok = np.full((g.ny, g.nx), 1.0 / (g.ny * g.nx * g.cell_area))
        ProbabilityMap(grid=g, values=ok, normalized=True)

    def test_maps_compare_and_hash_by_identity(self):
        g = GridSpec(0, 1, 0, 1, 0.1)
        a, b = (ProbabilityMap(grid=g, values=np.ones((g.ny, g.nx))) for _ in range(2))
        assert a == a and a != b
        assert hash(a) != hash(b) and len({a, b, a}) == 2


class TestBackproject:
    def test_matches_closed_form_everywhere(self):
        rng = np.random.default_rng(7)
        grid = GridSpec(-2, 2, 0, 3, 0.05, 1.0)
        xc, yc = grid.x_centers(), grid.y_centers()
        for _ in range(200):
            r_l = Point3(rng.uniform(-1, 1), 0.0, rng.uniform(0.8, 1.3))
            r_i = Point3(rng.uniform(-1, 1), 0.0, rng.uniform(0.8, 1.3))
            sigma = rng.uniform(50e-12, 500e-12)
            t = (r_l.distance_to(r_i) + rng.uniform(0.5, 5.0)) / C
            pmap = backproject(peak(t, sigma), r_l, r_i, grid)
            iy = rng.integers(0, grid.ny)
            ix = rng.integers(0, grid.nx)
            cell = Point3(xc[ix], yc[iy], grid.z_plane)
            want = math.exp(
                -((path_length(r_l, cell, r_i) - C * t) ** 2) / (2 * (C * sigma) ** 2)
            )
            got = pmap.values[iy, ix]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_matches_closed_form_on_full_grid(self):
        grid = GridSpec(-2, 2, 0, 3, 0.04, 1.0)
        xs, ys = grid.x_centers(), grid.y_centers()
        t, sigma = 5.0 / C, 0.04 / C
        ct, cs = C * t, C * sigma
        r_l, r_i = Point3(-0.5, 0.0, 1.15), Point3(-0.9, 0.0, 1.0)
        got = backproject(peak(t, sigma), r_l, r_i, grid).values
        d1 = np.sqrt((xs[None, :] - r_l.x) ** 2 + (ys[:, None] - r_l.y) ** 2 + (1.0 - r_l.z) ** 2)
        d2 = np.sqrt((xs[None, :] - r_i.x) ** 2 + (ys[:, None] - r_i.y) ** 2 + (1.0 - r_i.z) ** 2)
        want = np.exp(-0.5 * ((d1 + d2 - ct) / cs) ** 2)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("sigma", [20e-12, 120e-12, 1200e-12])
    def test_log_core_is_log_of_backproject(self, sigma):
        # A narrow band on a wide grid underflows exp over most cells.
        grid = GridSpec(-3, 3, 0, 4, 0.02, 1.0)
        r_l, r_i = Point3(-0.5, 0.0, 1.15), Point3(-0.1, 0.0, 1.05)
        p = peak(4.0 / C, sigma)
        band = backproject(p, r_l, r_i, grid)
        core, values = band.log_at(), band.values
        np.testing.assert_array_equal(np.exp(core), values)
        zero = values == 0.0
        np.testing.assert_array_equal(np.isneginf(core), zero)
        assert sigma > 100e-12 or zero.any()
        # Subnormal values keep too few digits for np.log to round-trip.
        normal = values >= np.finfo(np.float64).tiny
        np.testing.assert_allclose(core[normal], np.log(values[normal]), rtol=1e-12, atol=1e-12)

    def test_band_evaluates_any_index_of_its_exponent(self):
        grid = GridSpec(-1, 1, 0, 2, 0.05, 1.0)
        r_l, r_i = Point3(-0.5, 0.0, 1.15), Point3(0.5, 0.0, 1.0)
        band = backproject(peak(3.0 / C, 100e-12), r_l, r_i, grid)
        assert (band.grid, band.r_l, band.r_i) == (grid, r_l, r_i)
        assert (band.ct, band.c_sigma) == (C * (3.0 / C), C * 100e-12)
        # Blocks of rows and the seed lattice are the full exponent's own
        # cells, bit for bit.
        full = band.log_at()
        blocks = [band.log_at(np.s_[r0:r0 + 7]) for r0 in range(0, grid.ny, 7)]
        lattice = band.log_at(np.s_[::localization._SEED_STRIDE, ::localization._SEED_STRIDE])
        np.testing.assert_array_equal(np.concatenate(blocks), full)
        np.testing.assert_array_equal(
            lattice, full[::localization._SEED_STRIDE, ::localization._SEED_STRIDE])

    def test_band_is_a_hashable_record_equal_by_its_fields(self):
        grid = GridSpec(-1, 1, 0, 2, 0.05, 1.0)
        r_l, r_i = Point3(-0.5, 0.0, 1.15), Point3(0.5, 0.0, 1.0)
        band = backproject(peak(3.0 / C, 100e-12), r_l, r_i, grid)
        assert not isinstance(band, ProbabilityMap)
        twin = localization.EllipseBand(grid, r_l, r_i, band.ct, band.c_sigma)
        assert band == twin and hash(band) == hash(twin)
        assert band != dataclasses.replace(band, ct=band.ct + 0.01)
        assert band != backproject(peak(3.0 / C, 100e-12), r_l, r_i, centered_grid(0, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            band.ct = 1.0

    def test_values_is_built_on_each_read_and_not_kept(self):
        grid = GridSpec(-1, 1, 0, 2, 0.05, 1.0)
        r_l, r_i = Point3(-0.5, 0.0, 1.15), Point3(0.5, 0.0, 1.0)
        band = backproject(peak(3.0 / C, 100e-12), r_l, r_i, grid)
        first, second = band.values, band.values
        assert first is not second
        want = np.exp(band.log_at()).view(np.int64)
        for values in (first, second):
            np.testing.assert_array_equal(values.view(np.int64), want)
        # The one array a band holds is the path map its foci share.
        arrays = [v for v in vars(band).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is path_length_map(r_l, r_i, grid)

    def test_underflow_bound_brackets_exp_zero(self):
        assert np.exp(np.array([_EXP_UNDERFLOW]))[0] == 0.0
        assert np.exp(np.array([np.nextafter(_EXP_UNDERFLOW, 0.0)]))[0] > 0.0

    def test_exp_helper_is_np_exp_bit_for_bit(self):
        below = np.nextafter(_EXP_UNDERFLOW, -np.inf)
        above = np.nextafter(_EXP_UNDERFLOW, 0.0)
        x = np.concatenate([
            [-np.inf, -1e300, -800.0, below, _EXP_UNDERFLOW, above, 0.0, -0.0],
            np.linspace(_EXP_UNDERFLOW, -708.0, 500),  # results in the subnormal range
            np.linspace(-708.0, 700.0, 500),  # ordinary values
        ]).reshape(3, -1)
        expected = np.exp(x).view(np.int64)
        out = np.full_like(x, np.nan)
        assert _exp(x, out) is out
        np.testing.assert_array_equal(out.view(np.int64), expected)
        work = x.copy()
        _exp(work, out=work)  # in place, as _normalized uses it
        np.testing.assert_array_equal(work.view(np.int64), expected)

    def test_path_length_map_is_cached_and_read_only(self):
        grid = GridSpec(-1, 1, 0, 2, 0.05, 1.0)
        r_l, r_i = Point3(-0.5, 0.0, 1.15), Point3(-0.9, 0.0, 1.0)
        paths = path_length_map(r_l, r_i, grid)
        assert path_length_map(Point3(-0.5, 0.0, 1.15), r_i, grid) is paths
        assert not paths.flags.writeable
        with pytest.raises(ValueError):
            paths[0, 0] = 0.0
        assert path_length_map.cache_info().maxsize <= 8

    def test_degenerate_foci_circle(self):
        # coincident foci: the ridge is a circle of radius c*t/2 = 2.998 m
        focus = Point3(0.0, 0.5, 1.0)
        t = 20e-9
        radius = C * t / 2
        grid = GridSpec(-3.2, 3.2, 0, 4, 0.02, 1.0)
        sigma = 120e-12
        pmap = backproject(peak(t, sigma), focus, focus, grid)
        xc, yc = grid.x_centers(), grid.y_centers()
        xx, yy = np.meshgrid(xc, yc)
        dist = np.sqrt((xx - focus.x) ** 2 + (yy - focus.y) ** 2)
        on_circle = np.abs(dist - radius) < grid.resolution
        assert on_circle.any()
        floor = math.exp(-((2 * C * 120e-12 * 0) + 2 * grid.resolution) ** 2 / (2 * (C * sigma) ** 2))
        assert pmap.values[on_circle].min() >= floor

    def test_truth_cell_scores_near_one(self):
        r_l, r_i = Point3(0, 0, 1), Point3(1, 0, 1)
        truth = Point3(0.5, 2.0, 1.0)
        grid = centered_grid(0.5, 2.0)
        t = tof(r_l, truth, r_i)
        pmap = backproject(peak(t), r_l, r_i, grid)
        ix = int(np.argmin(np.abs(grid.x_centers() - truth.x)))
        iy = int(np.argmin(np.abs(grid.y_centers() - truth.y)))
        assert pmap.values[iy, ix] >= 0.999

    def test_wider_sigma_same_argmax_lower_contrast(self):
        r_l, r_i = Point3(0, 0, 1), Point3(1, 0, 1)
        truth = Point3(0.5, 2.0, 1.0)
        grid = centered_grid(0.5, 2.0, half=0.4)
        t = tof(r_l, truth, r_i)
        narrow = backproject(peak(t, 120e-12), r_l, r_i, grid)
        wide = backproject(peak(t, 1200e-12), r_l, r_i, grid)
        assert np.argmax(narrow.values) == np.argmax(wide.values)
        band = narrow.values > 1e-6
        contrast_narrow = narrow.values.max() / narrow.values[band].min()
        contrast_wide = wide.values.max() / wide.values[band].min()
        assert contrast_wide < contrast_narrow

    def test_infeasible_time(self):
        r_l, r_i = Point3(0, 0, 1), Point3(2, 0, 1)
        grid = GridSpec(-1, 1, 0, 2, 0.05, 1.0)
        with pytest.raises(InfeasibleTimeError):
            backproject(peak(1.9 / C), r_l, r_i, grid)


class TestLocalize:
    grid = GridSpec(0, 2, 0, 1, 0.02)

    def bands(self):
        # Four pixels' bands of a target at (0.7, 0.4) on the plane z = 1.
        r_l, truth = Point3(1.0, 0.0, 1.1), Point3(0.7, 0.4, 1.0)
        return [backproject(peak(tof(r_l, truth, pix)), r_l, pix, self.grid)
                for pix in (Point3(x, 0.0, 1.0) for x in (0.2, 0.6, 1.3, 1.7))]

    def test_normalized_map_and_spreads_of_a_density(self):
        g = self.grid
        xx, yy = np.meshgrid(g.x_centers(), g.y_centers())
        log_density = -0.5 * (((xx - 0.7) / 0.05) ** 2 + ((yy - 0.4) / 0.1) ** 2)
        expected = np.exp(log_density)
        expected /= expected.sum() * g.cell_area
        fused = localization._normalized(log_density, g)
        assert fused.normalized and fused.grid == g
        assert fused.values.sum() * g.cell_area == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(fused.values, expected, rtol=1e-12)
        mean_x, mean_y = (expected * xx).sum() * g.cell_area, (expected * yy).sum() * g.cell_area
        sigma_x = math.sqrt((expected * (xx - mean_x) ** 2).sum() * g.cell_area)
        sigma_y = math.sqrt((expected * (yy - mean_y) ** 2).sum() * g.cell_area)
        assert localization._spreads(fused) == pytest.approx((sigma_x, sigma_y), rel=1e-9)

    def test_density_underflowing_everywhere_is_an_empty_intersection(self):
        g = self.grid
        log_density = np.full((g.ny, g.nx), _EXP_UNDERFLOW)
        log_density[:, : g.nx // 2] = -np.inf
        with pytest.raises(EmptyIntersectionError):
            localization._normalized(log_density, g)

    def test_large_log_density_normalizes_to_uniform(self):
        # about 921, far past exp's overflow near 709
        g = self.grid
        fused = localization._normalized(np.full((g.ny, g.nx), 2 * math.log(1e200)), g)
        np.testing.assert_allclose(fused.values, 1.0 / (g.nx * g.ny * g.cell_area), rtol=1e-12)

    @pytest.mark.parametrize("n_bands", [2, 4])
    def test_track_and_map_are_its_bands_summed_in_order(self, n_bands):
        # The fused map is the bands' log_at() summed in detection order,
        # then normalised, bit for bit; the track sits at the given position
        # with the map's spreads and maximum.
        bands = self.bands()[:n_bands]
        want = localization._normalized(
            functools.reduce(np.add, [b.log_at() for b in bands]), self.grid)
        track, fused = localize(bands, (0.71, 0.39))
        assert fused.normalized and fused.grid == self.grid
        assert fused.values.tobytes() == want.values.tobytes()
        assert track == TrackEstimate((0.71, 0.39), *localization._spreads(want),
                                      float(want.values.max()))

    def test_one_band_gives_its_normalized_map(self):
        band = self.bands()[0]
        _, fused = localize([band], (0.7, 0.4))
        want = localization._normalized(band.log_at(), self.grid)
        assert fused.values.tobytes() == want.values.tobytes()
        np.testing.assert_allclose(
            fused.values, band.values / (band.values.sum() * self.grid.cell_area),
            rtol=1e-12, atol=1e-300)

    def test_bands_of_different_grids_are_refused(self):
        # Two grids of one shape: summing their bands cell by cell would
        # add densities of different places.
        bands = self.bands()
        shifted = dataclasses.replace(self.grid, x_min=0.5, x_max=2.5)
        with pytest.raises(ValueError, match="^a target's bands must share one grid$"):
            localize([bands[0], dataclasses.replace(bands[1], grid=shifted)], (0.7, 0.4))

    def test_bands_are_left_as_they_were(self):
        # localize builds the density itself: no band, and no array a band
        # holds, is changed or made read-only, and each call's map is fresh.
        bands = self.bands()
        before = [(dataclasses.replace(b), b.log_at(), b._paths.flags.writeable) for b in bands]
        first, second = localize(bands, (0.7, 0.4))[1], localize(bands, (0.7, 0.4))[1]
        assert first.values.tobytes() == second.values.tobytes()
        assert not np.shares_memory(first.values, second.values)
        for band, (fresh, log_values, writeable) in zip(bands, before):
            assert band == fresh and band._paths is fresh._paths
            assert band.log_at().tobytes() == log_values.tobytes()
            assert band._paths.flags.writeable == writeable
            assert not np.shares_memory(first.values, band._paths)


class TestAssociate:
    def setup_method(self):
        self.grid = GridSpec(-3, 3, 0, 4, 0.02, 1.0)
        self.r_l = Point3(-0.5, 0, 1.15)
        self.pixels = [
            Point3(-0.9, 0, 1.0), Point3(-0.62, 0, 1.08),
            Point3(-0.38, 0, 0.95), Point3(-0.1, 0, 1.05),
        ]

    def peaks_for(self, truth, order=None):
        out = []
        for i, pix in enumerate(self.pixels):
            ps = [peak(tof(self.r_l, Point3(*t, 1.0), pix)) for t in truth]
            if order:
                ps = [ps[j] for j in order[i]]
            out.append(ps)
        return out

    def test_single_target_matches_fuse_localize(self):
        truth = (0.6, 1.2)
        peaks = self.peaks_for([truth])
        tracks = associate_and_localize(peaks, self.r_l, self.pixels, self.grid, k_targets=1)
        reference = reference_fuse([
            backproject(p[0], self.r_l, pix, self.grid)
            for p, pix in zip(peaks, self.pixels)
        ])
        assert len(tracks) == 1
        assert (tracks[0].sigma_x, tracks[0].sigma_y, tracks[0].peak_value) == pytest.approx(
            (*localization._spreads(reference), reference.values.max()), rel=1e-12)
        assert tracks[0].position == pytest.approx(truth, abs=self.grid.resolution)

    def test_two_targets_correctly_associated(self):
        truths = [(0.5, 0.9), (1.2, 1.6)]
        tracks = associate_and_localize(
            self.peaks_for(truths), self.r_l, self.pixels, self.grid, k_targets=2
        )
        assert len(tracks) == 2
        got = sorted(t.position for t in tracks)
        for (gx, gy), (tx, ty) in zip(got, sorted(truths)):
            assert abs(gx - tx) <= self.grid.resolution
            assert abs(gy - ty) <= self.grid.resolution

    def test_two_target_spreads_and_peaks_match_fuse_localize(self, monkeypatch):
        # Each track's spreads and peak value are those of the fused map of
        # its own detections, which it carries; localize builds that fused map.
        fused_maps = self.record_fused_maps(monkeypatch)
        truths = [(0.5, 0.9), (1.2, 1.6)]
        peaks = self.peaks_for(truths)
        tracks = associate_and_localize(peaks, self.r_l, self.pixels, self.grid, k_targets=2)
        assert [t.target_label for t in tracks] == ["target-1", "target-2"]
        assert [t.detections for t in tracks] == [tuple((i, t) for i in range(4))
                                                  for t in range(2)]
        assert len(fused_maps) == 2
        for t, (track, fused) in enumerate(zip(tracks, fused_maps)):
            reference_map = reference_fuse([
                backproject(p[t], self.r_l, pix, self.grid)
                for p, pix in zip(peaks, self.pixels)
            ])
            assert (track.sigma_x, track.sigma_y, track.peak_value) == pytest.approx(
                (*localization._spreads(reference_map), reference_map.values.max()), rel=1e-12)
            np.testing.assert_allclose(fused.values, reference_map.values, rtol=1e-12, atol=0)

    @staticmethod
    def record_band_work(monkeypatch):
        # In call order: ("band", args) for each backproject call that returns
        # a band, ("no ellipse", args) for one that raises, and
        # ("log", shape) for each block of band cells evaluated.
        events = []
        backproject_, band_log = localization.backproject, localization._band_log

        def recording_backproject(*args):
            try:
                band = backproject_(*args)
            except InfeasibleTimeError:
                events.append(("no ellipse", args))
                raise
            events.append(("band", args))
            return band

        def recording_band_log(paths, *args):
            events.append(("log", paths.shape))
            return band_log(paths, *args)

        monkeypatch.setattr(localization, "backproject", recording_backproject)
        monkeypatch.setattr(localization, "_band_log", recording_band_log)
        return events

    def test_builds_each_band_once_and_full_grid_rows_only_for_the_returned_targets(
            self, monkeypatch):
        # Each return is back-projected once, in (pixel, peak) order, before
        # any band cell is evaluated; one with no ellipse gets no band, and
        # is named when no assignment is left. Every band is then evaluated
        # on the seed lattice, and only the returned targets' bands over the
        # full grid, in blocks of rows, never whole.
        events = self.record_band_work(monkeypatch)
        peaks = self.peaks_for([(0.5, 0.9), (1.2, 1.6)])
        peaks[1].insert(1, peak(0.1 / C))  # c t = 0.1 m, inside the foci's 0.139 m
        tracks = associate_and_localize(peaks, self.r_l, self.pixels, self.grid, k_targets=2)
        returns = [(i, j) for i, p in enumerate(peaks) for j in range(len(p))]
        assert [(kind, args) for kind, args in events[:len(returns)]] == [
            ("no ellipse" if (i, j) == (1, 1) else "band",
             (peaks[i][j], self.r_l, self.pixels[i], self.grid)) for i, j in returns]
        stride = localization._SEED_STRIDE
        lattice = (len(range(0, self.grid.ny, stride)), len(range(0, self.grid.nx, stride)))
        n_bands = len(returns) - 1
        shapes = events[len(returns):]
        assert shapes[:n_bands] == [("log", lattice)] * n_bands
        blocks = [shape for kind, shape in shapes[n_bands:] if kind == "log"]
        assert len(blocks) == len(shapes) - n_bands
        assert all(rows < self.grid.ny and cols == self.grid.nx for rows, cols in blocks)
        returned = [pair for t in tracks for pair in t.detections]
        assert len(tracks) == 2 and (1, 1) not in returned
        assert sum(rows for rows, _ in blocks) == self.grid.ny * len(returned)
        # With no assignment left, the raised error carries that return's message.
        with pytest.raises(InfeasibleTimeError) as direct:
            backproject(peaks[1][1], self.r_l, self.pixels[1], self.grid)
        with pytest.raises(InfeasibleTimeError) as info:
            associate_and_localize([peaks[0][:1], peaks[1][1:2]], self.r_l, self.pixels[:2],
                                   self.grid)
        assert str(info.value) == f"no feasible assignment: {direct.value}"

    def test_order_invariance(self):
        truths = [(0.5, 0.9), (1.2, 1.6)]
        a = associate_and_localize(
            self.peaks_for(truths), self.r_l, self.pixels, self.grid, k_targets=2
        )
        swapped = self.peaks_for(truths, order=[(1, 0), (0, 1), (1, 0), (0, 1)])
        b = associate_and_localize(swapped, self.r_l, self.pixels, self.grid, k_targets=2)
        for ta, tb in zip(a, b):
            assert ta.position == pytest.approx(tb.position, rel=1e-9)
            assert ta.target_label == tb.target_label

    def test_too_many_targets(self):
        with pytest.raises(TooManyTargetsError):
            associate_and_localize(
                self.peaks_for([(0.5, 0.9)]), self.r_l, self.pixels, self.grid, k_targets=3
            )

    @pytest.mark.parametrize("k_targets", [1, 2])
    def test_pixel_without_returns_serves_no_target(self, k_targets):
        # A pixel with an empty return list, inserted at any position of the
        # inputs, leaves positions, spreads and fused maps bit-identical; only
        # the pixel numbers of each track's detections, which count it, shift
        # past it.
        rng = np.random.default_rng(k_targets)
        problems = [(self.peaks_for([(0.5, 0.9), (1.2, 1.6)][:k_targets]), self.r_l, self.pixels)]
        problems += [random_problem(rng, k_targets) for _ in range(3)]
        grid = GridSpec(-3, 3, 0, 4, 0.04, 1.0)
        for peaks, r_l, pixels in problems:
            status, tracks, fused, _ = association_outcome(
                associate_and_localize, peaks, r_l, pixels, grid, k_targets)
            assert status == "ok"
            for at in range(len(pixels) + 1):
                got = association_outcome(
                    associate_and_localize, [*peaks[:at], [], *peaks[at:]], r_l,
                    [*pixels[:at], Point3(0.3, 0, 1.0), *pixels[at:]], grid, k_targets)
                assert got[:2] == (status, [
                    dataclasses.replace(t, detections=tuple((i + (i >= at), j)
                                                            for i, j in t.detections))
                    for t in tracks])
                assert len(got[2]) == len(fused)
                for a, b in zip(got[2], fused):
                    np.testing.assert_array_equal(a.values, b.values)

    def test_symmetric_layout_is_ambiguous(self):
        # mirror-symmetric targets and pixels about the laser axis: swapping
        # the association scores identically, which must be flagged
        r_l = Point3(0.0, 0.0, 1.0)
        pixels = [Point3(-0.6, 0, 1.0), Point3(0.6, 0, 1.0)]
        truths = [Point3(-0.8, 1.4, 1.0), Point3(0.8, 1.4, 1.0)]
        peaks = [[peak(tof(r_l, t, pix)) for t in truths] for pix in pixels]
        grid = GridSpec(-2, 2, 0, 3, 0.02, 1.0)
        with pytest.raises(AmbiguousAssociationError) as info:
            associate_and_localize(peaks, r_l, pixels, grid, k_targets=2)
        assert len(info.value.best) == 2
        assert len(info.value.second) == 2
        assert_same_association(
            association_outcome(associate_and_localize, peaks, r_l, pixels, grid, k_targets=2),
            association_outcome(reference_associate, peaks, r_l, pixels, grid, k_targets=2),
        )

    @staticmethod
    def record_fused_maps(monkeypatch):
        # The fused maps localize builds, in call order.
        fused_maps, localize_ = [], localization.localize

        def recording(*args):
            track, fused = localize_(*args)
            fused_maps.append(fused)
            return track, fused

        monkeypatch.setattr(localization, "localize", recording)
        return fused_maps

    @staticmethod
    def count_calls(monkeypatch, name):
        # Association looks these helpers up by their module-level names.
        calls = []
        original = getattr(localization, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(localization, name, counting)
        return calls

    def test_fused_maps_only_for_the_returned_targets(self, monkeypatch):
        normalized = self.count_calls(monkeypatch, "_normalized")
        localized = self.count_calls(monkeypatch, "localize")
        peaks = self.peaks_for([(0.5, 0.9), (1.2, 1.6)])
        tracks = associate_and_localize(peaks, self.r_l, self.pixels, self.grid, k_targets=2)
        assert len(tracks) == 2
        assert len(normalized) == len(localized) == 2  # not one per scored assignment (16 here)
        assert [args[1] for args in localized] == [t.position for t in tracks]

    def test_ambiguous_result_fuses_both_solutions_once(self, monkeypatch):
        normalized = self.count_calls(monkeypatch, "_normalized")
        localized = self.count_calls(monkeypatch, "localize")
        r_l = Point3(0.0, 0.0, 1.0)
        pixels = [Point3(-0.6, 0, 1.0), Point3(0.6, 0, 1.0)]
        truths = [Point3(-0.8, 1.4, 1.0), Point3(0.8, 1.4, 1.0)]
        peaks = [[peak(tof(r_l, t, pix)) for t in truths] for pix in pixels]
        with pytest.raises(AmbiguousAssociationError) as info:
            associate_and_localize(peaks, r_l, pixels, GridSpec(-2, 2, 0, 3, 0.02, 1.0), k_targets=2)
        assert len(info.value.best) + len(info.value.second) == 4
        assert len(normalized) == len(localized) == 4


    def test_heap_stays_within_four_full_grid_arrays(self):
        # One two-target association on the bundled two-person layout, with
        # its path maps cached by a first run: at its peak it holds at most
        # four full-grid float64 arrays beyond what it started with, and it
        # keeps less than a tenth of one once it returns.
        scene, _, grid = sceneio.load_scene(CONFIGS / "two_person.json")
        pixels = list(scene.pixels)
        peaks = [[peak(tof(scene.laser_spot, obj.position, pix)) for obj in scene.objects]
                 for pix in pixels]
        associate_and_localize(peaks, scene.laser_spot, pixels, grid, k_targets=2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = associate_and_localize(peaks, scene.laser_spot, pixels, grid, k_targets=2)
            retained, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full_grid = grid.nx * grid.ny * np.dtype(np.float64).itemsize
        assert len(result) == 2
        assert (peak_bytes - start) / full_grid <= 4.0
        assert (retained - start) / full_grid < 0.1


def reference_associate(peaks_per_pixel, r_l, pixels, grid, k_targets=1):
    # The association as first written: every candidate target is seeded at
    # the argmax of its fused log-density summed over the full grid.
    bands, infeasible = {}, None
    for ipix, (pixel, peaks) in enumerate(zip(pixels, peaks_per_pixel)):
        for ipk, pk in enumerate(peaks):
            try:
                bands[ipix, ipk] = backproject(pk, r_l, pixel, grid)
            except InfeasibleTimeError as exc:
                infeasible = exc

    def log_product(det):
        return functools.reduce(np.add, [bands[pair].log_at() for pair in det])

    xc, yc = grid.x_centers(), grid.y_centers()
    candidates = {}
    for combo in itertools.product(
        *(localization._pixel_assignments(len(p), k_targets) for p in peaks_per_pixel)
    ):
        detections = [
            tuple((ipix, a[t]) for ipix, a in enumerate(combo) if a[t] is not None)
            for t in range(k_targets)
        ]
        key = frozenset(detections)
        if key in candidates or any(len(det) < 2 for det in detections):
            continue
        if any(pair not in bands for det in detections for pair in det):
            continue
        score, targets = 0.0, []
        for det in detections:
            log_prod = log_product(det)
            iy, ix = np.unravel_index(int(np.argmax(log_prod)), log_prod.shape)
            if not np.isfinite(log_prod[iy, ix]):
                break
            pos, log_score = localization._refine_position(
                (float(xc[ix]), float(yc[iy])), [bands[p] for p in det])
            targets.append((pos, det))
            score += log_score
        else:
            candidates[key] = (score, targets)
    if not candidates:
        if infeasible is not None:
            raise InfeasibleTimeError("no feasible assignment: " + str(infeasible))
        raise EmptyIntersectionError("no assignment with every target seen by two pixels")

    def solve(targets):
        tracks = []
        for i, (pos, det) in enumerate(sorted(targets, key=lambda t: t[0])):
            fused = localization._normalized(log_product(det), grid)
            sigma_x, sigma_y = localization._spreads(fused)
            tracks.append(TrackEstimate(pos, sigma_x, sigma_y, float(fused.values.max()),
                                        f"target-{i + 1}", det))
        return tracks

    ranked = sorted(candidates.values(), key=lambda e: e[0], reverse=True)
    pool = [
        e for e in ranked
        if all(math.dist(a, b) > grid.resolution
               for (a, _), (b, _) in itertools.combinations(e[1], 2))
    ] or ranked
    best_score, best = pool[0]
    second_score, second = pool[1] if len(pool) > 1 else (-math.inf, None)
    if best_score - second_score < -math.log1p(-localization.AMBIGUITY_MARGIN):
        raise AmbiguousAssociationError("ambiguous", solve(best), solve(second))
    return solve(best)


def association_outcome(fn, *args, **kwargs):
    # (status, tracks, fused, refined) of one association,
    # exceptions included. fused lists every map _normalized built and
    # refined every _refine_position call, in call order, the latter as
    # (arguments, (position, log_score)).
    refined, fused = [], []
    refine, normalized = localization._refine_position, localization._normalized

    def recording_refine(*call):
        refined.append((call, refine(*call)))
        return refined[-1][1]

    def recording_normalized(*call):
        fused.append(normalized(*call))
        return fused[-1]

    localization._refine_position = recording_refine
    localization._normalized = recording_normalized
    try:
        tracks = fn(*args, **kwargs)
    except AmbiguousAssociationError as exc:
        return "ambiguous", exc.best + exc.second, fused, refined
    except (InfeasibleTimeError, EmptyIntersectionError) as exc:
        return type(exc).__name__, [], fused, refined
    finally:
        localization._refine_position = refine
        localization._normalized = normalized
    return "ok", tracks, fused, refined


def log_score(position, bands, z):
    # The fused log-density -0.5 * sum(r^2) of the bands on the plane at
    # height z, which _refine_position maximizes.
    x, y = position
    r = [
        (math.dist((x, y, z), (b.r_l.x, b.r_l.y, b.r_l.z))
         + math.dist((x, y, z), (b.r_i.x, b.r_i.y, b.r_i.z)) - b.ct) / b.c_sigma
        for b in bands
    ]
    return -0.5 * sum(v * v for v in r)


def refined_position_bound(position, bands, z):
    # Two positions that each score within REFINE_TOLERANCE of the optimum
    # are at most this far apart. Near the optimum the score falls by
    # 0.5 d^T (J^T J) d at an offset d, so each lies within
    # sqrt(2 * tol / lambda_min(J^T J)) of it.
    def unit(focus):  # from a focus toward the position
        offset = np.array([position[0] - focus.x, position[1] - focus.y, z - focus.z])
        return offset / np.linalg.norm(offset)

    jac = np.array([(unit(b.r_l) + unit(b.r_i))[:2] / b.c_sigma for b in bands])
    lambda_min = np.linalg.eigvalsh(jac.T @ jac)[0]
    return 2.0 * math.sqrt(2.0 * localization.REFINE_TOLERANCE / lambda_min)


def assert_same_association(got, want):
    # Each returned target stops within REFINE_TOLERANCE of its optimum's
    # score whatever its seed, so its score agrees within the tolerance and
    # its position within refined_position_bound. Statuses, spreads, peak
    # values, labels, detections and fused maps are bit-identical.
    status, tracks, maps, refined = got
    want_status, want_tracks, want_maps, want_refined = want
    assert status == want_status
    assert len(tracks) == len(want_tracks) and len(maps) == len(want_maps)
    calls = {position: (call, score) for call, (position, score) in refined}
    want_scores = {position: score for _, (position, score) in want_refined}
    for track, ref in zip(tracks, want_tracks):
        (_, bands), score = calls[track.position]
        assert score == pytest.approx(
            want_scores[ref.position], rel=0, abs=localization.REFINE_TOLERANCE)
        assert math.dist(track.position, ref.position) <= refined_position_bound(
            track.position, bands, bands[0].grid.z_plane)
        assert (track.sigma_x, track.sigma_y, track.peak_value, track.target_label,
                track.detections) == (ref.sigma_x, ref.sigma_y, ref.peak_value,
                                      ref.target_label, ref.detections)
    for fused, ref in zip(maps, want_maps):
        np.testing.assert_array_equal(fused.values, ref.values)


def random_problem(rng, k_targets):
    # Peaks of one random scene: jittered pixels, noisy times and widths, and
    # a spurious return at some pixels of one-target scenes.
    r_l = Point3(-0.5, 0, 1.15)
    pixels = [Point3(x + rng.uniform(-0.1, 0.1), 0, 1.0 + rng.uniform(-0.05, 0.05))
              for x in (-0.9, -0.62, -0.38, -0.1)]
    truths = [Point3(rng.uniform(-1.0, 1.5), rng.uniform(0.5, 2.5), 1.0)
              for _ in range(k_targets)]
    peaks = []
    for pix in pixels:
        ps = [peak(tof(r_l, t, pix) + rng.normal(0, 30e-12),
                   sigma_s=rng.uniform(80e-12, 200e-12)) for t in truths]
        if k_targets == 1 and rng.random() < 0.3:
            ps.append(peak(ps[0].t_s + rng.uniform(1e-9, 4e-9)))
        peaks.append(list(rng.permutation(ps)))
    return peaks, r_l, pixels


@pytest.mark.parametrize("res", [0.02, 0.08])
@pytest.mark.parametrize("k_targets", [1, 2])
def test_association_matches_full_grid_seeding(k_targets, res):
    grid = GridSpec(-3, 3, 0, 4, res, 1.0)
    rng = np.random.default_rng([k_targets, round(res * 100)])
    statuses = set()
    for _ in range(12):
        peaks, r_l, pixels = random_problem(rng, k_targets)
        got = association_outcome(associate_and_localize, peaks, r_l, pixels, grid, k_targets)
        want = association_outcome(reference_associate, peaks, r_l, pixels, grid, k_targets)
        assert_same_association(got, want)
        statuses.add(got[0])
    assert "ok" in statuses


def test_refinement_stops_on_its_decrement_not_its_cap(monkeypatch):
    # Over 20 two-target problems, both seedings reach each returned
    # target's score within the tolerance, and no call ends at the iteration
    # cap: each gives the same result with a cap a hundred times higher.
    grid = GridSpec(-3, 3, 0, 4, 0.02, 1.0)
    rng = np.random.default_rng(20)
    calls = []
    for _ in range(20):
        peaks, r_l, pixels = random_problem(rng, 2)
        got = association_outcome(associate_and_localize, peaks, r_l, pixels, grid, 2)
        want = association_outcome(reference_associate, peaks, r_l, pixels, grid, 2)
        assert_same_association(got, want)
        calls += got[3] + want[3]
    monkeypatch.setattr(localization, "_REFINE_MAX_ITER", 100 * localization._REFINE_MAX_ITER)
    assert all(localization._refine_position(*call) == result for call, result in calls)


class TestSeedFallback:
    # Bands 10 fs wide are finite only on the cells their ellipses pass
    # through, so two of them share just the cells around their crossing.
    def setup_method(self):
        self.r_l = Point3(0.0, 0, 1.0)
        self.pixels = [Point3(-1.2, 0, 1.0), Point3(1.2, 0, 1.0)]

    def associate_both_ways(self, truths, grid):
        peaks = [[peak(tof(self.r_l, t, pix), sigma_s=1e-14)]
                 for t, pix in zip(truths, self.pixels)]
        shared = functools.reduce(np.add, [
            backproject(p[0], self.r_l, pix, grid).log_at()
            for p, pix in zip(peaks, self.pixels)
        ])
        got = association_outcome(associate_and_localize, peaks, self.r_l, self.pixels, grid)
        want = association_outcome(reference_associate, peaks, self.r_l, self.pixels, grid)
        assert_same_association(got, want)
        return np.isfinite(shared), got

    def test_target_sharing_cells_only_off_the_seed_lattice_is_kept(self):
        truth = Point3(0.3, 1.1, 1.0)
        grid = centered_grid(truth.x, truth.y)  # truth is cell (25, 25), off the lattice
        finite, (status, tracks, *_) = self.associate_both_ways([truth, truth], grid)
        stride = localization._SEED_STRIDE
        assert finite.any() and not finite[::stride, ::stride].any()
        assert status == "ok"
        assert tracks[0].position == pytest.approx((truth.x, truth.y), abs=1e-9)

    def test_target_sharing_no_cell_is_dropped(self):
        truths = [Point3(0.3, 0.6, 1.0), Point3(0.3, 3.5, 1.0)]
        grid = GridSpec(-3, 3, 0, 4, 0.02, 1.0)
        finite, (status, *_) = self.associate_both_ways(truths, grid)
        assert not finite.any()
        assert status == "EmptyIntersectionError"
        peaks = [[peak(tof(self.r_l, t, pix), sigma_s=1e-14)]
                 for t, pix in zip(truths, self.pixels)]
        with pytest.raises(EmptyIntersectionError) as info:
            associate_and_localize(peaks, self.r_l, self.pixels, grid)
        assert str(info.value) == "no assignment with every target seen by two pixels"


class TestRefinePosition:
    def setup_method(self):
        self.grid = GridSpec(-3, 3, 0, 4, 0.02, 1.0)
        self.r_l = Point3(-0.5, 0, 1.15)
        self.pixels = [Point3(-0.9, 0, 1.0), Point3(-0.38, 0, 0.95), Point3(-0.1, 0, 1.05)]

    def bands(self, truth, grid, delays=(0.0, 0.0, 0.0)):
        # Each pixel's band of a target at ``truth`` on the plane z = 1, its
        # time late by the pixel's delay.
        return [backproject(peak(tof(self.r_l, Point3(*truth, 1.0), pix) + delay),
                            self.r_l, pix, grid)
                for pix, delay in zip(self.pixels, delays)]

    def test_score_is_the_log_density_at_the_returned_position(self):
        # Delay one time so the optimum is not a perfect fit.
        bands = self.bands((0.6, 1.2), self.grid, delays=(0.0, 0.01 / C, 0.0))
        pos, score = localization._refine_position((0.64, 1.16), bands)
        assert pos != (0.64, 1.16)
        assert score < 0.0
        assert score == pytest.approx(log_score(pos, bands, 1.0), rel=1e-12)
        # The seed scores worse than the refined position.
        assert log_score((0.64, 1.16), bands, 1.0) < score

    @pytest.mark.parametrize("truth, axis", [((1.5, 1.0), 0), ((0.3, 2.1), 1)])
    @pytest.mark.parametrize("seed", [(0.5, 1.0), (0.99, 0.01), (0.0, 0.5)])
    def test_optimum_beyond_the_grid_stops_on_its_edge(self, monkeypatch, seed, truth, axis):
        # The density peaks beyond the grid's x_max or y_max: the position
        # stops on that edge, at the best point along it, well before the
        # iteration cap.
        grid = GridSpec(-1, 1, 0, 2, 0.02, 1.0)
        bands = self.bands(truth, grid)
        pos, score = localization._refine_position(seed, bands)
        assert pos[axis] == (grid.x_max, grid.y_max)[axis]
        for d in (-1e-4, 1e-4):
            along = list(pos)
            along[1 - axis] += d
            assert log_score(along, bands, 1.0) < score
        monkeypatch.setattr(localization, "_REFINE_MAX_ITER", 100 * localization._REFINE_MAX_ITER)
        assert localization._refine_position(seed, bands) == (pos, score)

    def test_breakdown_returns_the_seed_and_its_score(self):
        # Seeded on the laser spot itself, with the plane at its height: a
        # path leg has zero length there.
        grid = dataclasses.replace(self.grid, z_plane=self.r_l.z)
        seed = (self.r_l.x, self.r_l.y)
        bands = self.bands((0.6, 1.2), grid)
        pos, score = localization._refine_position(seed, bands)
        assert pos == seed
        assert score == pytest.approx(log_score(seed, bands, grid.z_plane), rel=1e-12)

    def test_position_is_placed_on_its_bands_grid(self):
        # The grid is read off the bands: the same returns back-projected on
        # a narrower grid whose plane is higher stop on that grid's x_max and
        # score at that plane's height.
        bands = self.bands((1.5, 1.0), self.grid)
        pos, score = localization._refine_position((0.5, 1.0), bands)
        assert pos == pytest.approx((1.5, 1.0), abs=1e-6)
        assert score == pytest.approx(log_score(pos, bands, 1.0), rel=1e-12)
        grid = GridSpec(-1, 1, 0, 2, 0.02, 1.2)
        moved = [dataclasses.replace(b, grid=grid) for b in bands]
        pos, score = localization._refine_position((0.5, 1.0), moved)
        assert pos[0] == grid.x_max
        assert score == log_score(pos, moved, grid.z_plane)
        assert score != log_score(pos, moved, self.grid.z_plane)


coord = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


@given(
    lx=coord, ix=coord,
    extra=st.floats(min_value=0.3, max_value=4.0, allow_nan=False),
    sigma=st.floats(min_value=3e-11, max_value=6e-10, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_backproject_formula_property(lx, ix, extra, sigma):
    r_l = Point3(lx, 0.0, 1.1)
    r_i = Point3(ix, 0.0, 0.95)
    grid = GridSpec(-2, 2, 0, 3, 0.1, 1.0)
    t = (r_l.distance_to(r_i) + extra) / C
    pmap = backproject(peak(t, sigma), r_l, r_i, grid)
    assert pmap.values.max() <= 1.0
    xc, yc = grid.x_centers(), grid.y_centers()
    iy, ix_ = 7, 11
    cell = Point3(xc[ix_], yc[iy], 1.0)
    want = math.exp(-((path_length(r_l, cell, r_i) - C * t) ** 2) / (2 * (C * sigma) ** 2))
    assert pmap.values[iy, ix_] == pytest.approx(want, rel=1e-12, abs=5e-324)


@given(
    r_l=st.tuples(coord, coord, coord), r_i=st.tuples(coord, coord, coord),
    x_min=coord, y_min=coord, z=coord,
    res=st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_path_length_map_is_the_broadcast_formula(r_l, r_i, x_min, y_min, z, res):
    r_l, r_i = Point3(*r_l), Point3(*r_i)
    grid = GridSpec(x_min, x_min + 2.0, y_min, y_min + 1.5, res, z)
    x = grid.x_centers()[np.newaxis, :]
    y = grid.y_centers()[:, np.newaxis]
    want = (np.sqrt((x - r_l.x) ** 2 + (y - r_l.y) ** 2 + (z - r_l.z) ** 2)
            + np.sqrt((x - r_i.x) ** 2 + (y - r_i.y) ** 2 + (z - r_i.z) ** 2))
    got = path_length_map(r_l, r_i, grid)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
