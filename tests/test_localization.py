import functools
import itertools
import math

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
    fuse,
    localize,
    path_length,
    tof,
)
from nlostrack import localization
from nlostrack.localization import _EXP_UNDERFLOW, _exp, path_length_map

C = SPEED_OF_LIGHT


def peak(t_s, sigma_s=120e-12, pixel=0):
    return PeakEstimate(t_s=t_s, sigma_s=sigma_s, amplitude=100.0, pixel_index=pixel)


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

    def test_log_values_is_read_only_log(self):
        g = GridSpec(0, 1, 0, 1, 0.1)
        values = np.ones((g.ny, g.nx))
        values[0, 0] = 0.0
        values[1, 1] = 2.5
        m = ProbabilityMap(grid=g, values=values)
        assert m.log_values[0, 0] == -np.inf
        assert m.log_values[1, 1] == np.log(2.5)
        assert not m.log_values.flags.writeable
        assert m.log_values is m.log_values


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
        core, values = band.log_values, band.values
        np.testing.assert_array_equal(np.exp(core), values)
        zero = values == 0.0
        np.testing.assert_array_equal(np.isneginf(core), zero)
        assert sigma > 100e-12 or zero.any()
        # Subnormal values keep too few digits for np.log to round-trip.
        normal = values >= np.finfo(np.float64).tiny
        np.testing.assert_allclose(core[normal], np.log(values[normal]), rtol=1e-12, atol=1e-12)

    def test_band_is_a_read_only_map_built_on_first_read(self):
        grid = GridSpec(-1, 1, 0, 2, 0.05, 1.0)
        band = backproject(peak(3.0 / C), Point3(-0.5, 0.0, 1.15), Point3(0.5, 0.0, 1.0), grid)
        assert isinstance(band, ProbabilityMap) and not band.normalized
        assert "values" not in vars(band)
        assert band.values is band.values
        for arr in (band.values, band.log_values):
            assert not arr.flags.writeable

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
        assert narrow.argmax_cell() == wide.argmax_cell()
        band = narrow.values > 1e-6
        contrast_narrow = narrow.values.max() / narrow.values[band].min()
        contrast_wide = wide.values.max() / wide.values[band].min()
        assert contrast_wide < contrast_narrow

    def test_infeasible_time(self):
        r_l, r_i = Point3(0, 0, 1), Point3(2, 0, 1)
        grid = GridSpec(-1, 1, 0, 2, 0.05, 1.0)
        with pytest.raises(InfeasibleTimeError):
            backproject(peak(1.9 / C), r_l, r_i, grid)


class TestFuse:
    def setup_method(self):
        self.grid = GridSpec(-1, 1, 0, 2, 0.05, 1.0)
        self.r_l = Point3(-0.5, 0, 1.1)
        self.pixels = [Point3(-0.9, 0, 1.0), Point3(-0.1, 0, 1.0), Point3(-0.7, 0, 0.9)]
        self.truth = Point3(0.3, 1.2, 1.0)
        self.maps = [
            backproject(peak(tof(self.r_l, self.truth, pix)), self.r_l, pix, self.grid)
            for pix in self.pixels
        ]

    def test_single_map_normalizes(self):
        out = fuse([self.maps[0]])
        assert out.normalized
        total = out.values.sum() * self.grid.cell_area
        assert total == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            out.values,
            self.maps[0].values / (self.maps[0].values.sum() * self.grid.cell_area),
            rtol=1e-12, atol=1e-300,  # exp(log v) round-trip differs on subnormals
        )

    def test_uniform_map_is_identity_for_argmax(self):
        uniform = ProbabilityMap(grid=self.grid, values=np.full((self.grid.ny, self.grid.nx), 0.37))
        assert fuse(self.maps + [uniform]).argmax_cell() == fuse(self.maps).argmax_cell()

    def test_permutation_invariance(self):
        a = fuse(self.maps).values
        b = fuse(self.maps[::-1]).values
        c = fuse([self.maps[1], self.maps[2], self.maps[0]]).values
        np.testing.assert_allclose(a, b, rtol=1e-12)
        np.testing.assert_allclose(a, c, rtol=1e-12)

    def test_scaling_one_map_changes_nothing(self):
        scaled = ProbabilityMap(grid=self.grid, values=self.maps[0].values * 7.3)
        out0 = fuse(self.maps)
        out1 = fuse([scaled, self.maps[1], self.maps[2]])
        assert out0.argmax_cell() == out1.argmax_cell()
        np.testing.assert_allclose(out0.values, out1.values, rtol=1e-12)
        t0, t1 = localize(out0), localize(out1)
        assert t0.position == pytest.approx(t1.position, rel=1e-12)

    def test_argmax_near_truth(self):
        out = fuse(self.maps)
        iy, ix = out.argmax_cell()
        assert abs(self.grid.x_centers()[ix] - self.truth.x) <= self.grid.resolution
        assert abs(self.grid.y_centers()[iy] - self.truth.y) <= self.grid.resolution

    def test_bands_are_fused_from_their_logs(self):
        bands = [
            backproject(peak(tof(self.r_l, self.truth, pix)), self.r_l, pix, self.grid)
            for pix in self.pixels
        ]
        out = fuse(bands)
        assert all("values" not in vars(band) for band in bands)
        assert out.argmax_cell() == fuse(self.maps).argmax_cell()

    def test_large_valued_maps_fuse_to_uniform(self):
        # the summed log-density (about 921) is far past exp's overflow
        g = GridSpec(0, 1, 0, 1, 0.1)
        m = ProbabilityMap(grid=g, values=np.full((g.ny, g.nx), 1e200))
        out = fuse([m, m])
        assert out.normalized
        np.testing.assert_allclose(out.values, 1.0 / (g.nx * g.ny * g.cell_area), rtol=1e-12)

    def test_inputs_are_left_unchanged(self):
        plain = ProbabilityMap(grid=self.grid, values=self.maps[0].values * 2.0)
        inputs = [plain, *self.maps]
        before = [(m.values.copy(), m.log_values.copy()) for m in inputs]
        fuse(inputs)
        for m, (values, log_values) in zip(inputs, before):
            np.testing.assert_array_equal(m.values, values)
            np.testing.assert_array_equal(m.log_values, log_values)

    def test_grid_mismatch_rejected(self):
        other = GridSpec(-1, 1, 0, 2, 0.1, 1.0)
        m = ProbabilityMap(grid=other, values=np.ones((other.ny, other.nx)))
        with pytest.raises(ValueError, match="same grid"):
            fuse([self.maps[0], m])

    def test_empty_intersection(self):
        left = np.zeros((self.grid.ny, self.grid.nx))
        left[:, : self.grid.nx // 2] = 1.0
        right = np.zeros((self.grid.ny, self.grid.nx))
        right[:, self.grid.nx // 2 :] = 1.0
        with pytest.raises(EmptyIntersectionError):
            fuse([
                ProbabilityMap(grid=self.grid, values=left),
                ProbabilityMap(grid=self.grid, values=right),
            ])


class TestLocalize:
    def test_requires_normalized(self):
        g = GridSpec(0, 1, 0, 1, 0.1)
        m = ProbabilityMap(grid=g, values=np.ones((g.ny, g.nx)))
        with pytest.raises(ValueError, match="normalized"):
            localize(m)

    def test_delta_map(self):
        g = GridSpec(0, 1, 0, 1, 0.1)
        values = np.zeros((g.ny, g.nx))
        values[3, 7] = 1.0 / g.cell_area
        track = localize(ProbabilityMap(grid=g, values=values, normalized=True))
        assert track.position == pytest.approx((g.x_centers()[7], g.y_centers()[3]))
        assert track.sigma_x == pytest.approx(0.0, abs=1e-9)
        assert track.sigma_y == pytest.approx(0.0, abs=1e-9)

    def test_two_lobe_map_follows_argmax_lobe(self):
        g = GridSpec(0, 2, 0, 1, 0.02)
        xx, yy = np.meshgrid(g.x_centers(), g.y_centers())
        lobe1 = np.exp(-((xx - 0.5) ** 2 + (yy - 0.5) ** 2) / (2 * 0.05**2))
        lobe2 = np.exp(-((xx - 1.5) ** 2 + (yy - 0.5) ** 2) / (2 * 0.05**2))
        values = lobe1 + 0.9 * lobe2
        values /= values.sum() * g.cell_area
        track = localize(ProbabilityMap(grid=g, values=values, normalized=True))
        assert track.position[0] == pytest.approx(0.5, abs=0.02)  # not the 1.0 midpoint


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
            ps = [peak(tof(self.r_l, Point3(*t, 1.0), pix), pixel=i) for t in truth]
            if order:
                ps = [ps[j] for j in order[i]]
            out.append(ps)
        return out

    def test_single_target_matches_fuse_localize(self):
        truth = (0.6, 1.2)
        peaks = self.peaks_for([truth])
        tracks, _ = associate_and_localize(peaks, self.r_l, self.pixels, self.grid, k_targets=1)
        maps = [
            backproject(p[0], self.r_l, pix, self.grid)
            for p, pix in zip(peaks, self.pixels)
        ]
        reference = localize(fuse(maps))
        assert len(tracks) == 1
        # the associated track is sharpened on the continuous density, so it
        # agrees with the map-space estimate to within one cell
        assert tracks[0].position[0] == pytest.approx(reference.position[0], abs=self.grid.resolution)
        assert tracks[0].position[1] == pytest.approx(reference.position[1], abs=self.grid.resolution)
        assert tracks[0].sigma_x == pytest.approx(reference.sigma_x, rel=1e-12)
        assert tracks[0].sigma_y == pytest.approx(reference.sigma_y, rel=1e-12)
        assert tracks[0].position == pytest.approx(truth, abs=self.grid.resolution)

    def test_two_targets_correctly_associated(self):
        truths = [(0.5, 0.9), (1.2, 1.6)]
        tracks, _ = associate_and_localize(
            self.peaks_for(truths), self.r_l, self.pixels, self.grid, k_targets=2
        )
        assert len(tracks) == 2
        got = sorted(t.position for t in tracks)
        for (gx, gy), (tx, ty) in zip(got, sorted(truths)):
            assert abs(gx - tx) <= self.grid.resolution
            assert abs(gy - ty) <= self.grid.resolution

    def test_two_target_spreads_and_peaks_match_fuse_localize(self):
        # Each track's spreads and peak value are those of the fused map of
        # its own detections; the map returned with it is that fused map.
        truths = [(0.5, 0.9), (1.2, 1.6)]
        peaks = self.peaks_for(truths)
        tracks, maps = associate_and_localize(peaks, self.r_l, self.pixels, self.grid, k_targets=2)
        assert [t.target_label for t in tracks] == ["target-1", "target-2"]
        for t, (track, fused) in enumerate(zip(tracks, maps)):
            reference_map = fuse([
                backproject(p[t], self.r_l, pix, self.grid)
                for p, pix in zip(peaks, self.pixels)
            ])
            reference = localize(reference_map)
            assert (track.sigma_x, track.sigma_y, track.peak_value) == pytest.approx(
                (reference.sigma_x, reference.sigma_y, reference.peak_value), rel=1e-12)
            np.testing.assert_allclose(fused.values, reference_map.values, rtol=1e-12, atol=0)

    def test_backprojects_each_peak_once_in_the_log_domain(self, monkeypatch):
        # Association resolves the module-level backproject and reads only
        # the bands' logs, so no band's exp is ever built.
        bands = []

        def recording(*args):
            bands.append(backproject(*args))
            return bands[-1]

        monkeypatch.setattr(localization, "backproject", recording)
        peaks = self.peaks_for([(0.5, 0.9), (1.2, 1.6)])
        associate_and_localize(peaks, self.r_l, self.pixels, self.grid, k_targets=2)
        assert len(bands) == sum(len(p) for p in peaks)
        assert not any("values" in vars(b) for b in bands)

    def test_order_invariance(self):
        truths = [(0.5, 0.9), (1.2, 1.6)]
        a, _ = associate_and_localize(
            self.peaks_for(truths), self.r_l, self.pixels, self.grid, k_targets=2
        )
        swapped = self.peaks_for(truths, order=[(1, 0), (0, 1), (1, 0), (0, 1)])
        b, _ = associate_and_localize(swapped, self.r_l, self.pixels, self.grid, k_targets=2)
        for ta, tb in zip(a, b):
            assert ta.position == pytest.approx(tb.position, rel=1e-9)
            assert ta.target_label == tb.target_label

    def test_too_many_targets(self):
        with pytest.raises(TooManyTargetsError):
            associate_and_localize(
                self.peaks_for([(0.5, 0.9)]), self.r_l, self.pixels, self.grid, k_targets=3
            )

    def test_every_pixel_needs_a_peak(self):
        peaks = self.peaks_for([(0.5, 0.9)])
        peaks[2] = []
        with pytest.raises(ValueError, match="at least one peak"):
            associate_and_localize(peaks, self.r_l, self.pixels, self.grid, k_targets=1)

    def test_symmetric_layout_is_ambiguous(self):
        # mirror-symmetric targets and pixels about the laser axis: swapping
        # the association scores identically, which must be flagged
        r_l = Point3(0.0, 0.0, 1.0)
        pixels = [Point3(-0.6, 0, 1.0), Point3(0.6, 0, 1.0)]
        truths = [Point3(-0.8, 1.4, 1.0), Point3(0.8, 1.4, 1.0)]
        peaks = [
            [peak(tof(r_l, t, pix), pixel=i) for t in truths]
            for i, pix in enumerate(pixels)
        ]
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
    def count_normalized(monkeypatch):
        calls = []
        normalized = localization._normalized

        def counting(log_prod, grid):
            calls.append(log_prod.shape)
            return normalized(log_prod, grid)

        monkeypatch.setattr(localization, "_normalized", counting)
        return calls

    def test_fused_maps_only_for_the_returned_targets(self, monkeypatch):
        calls = self.count_normalized(monkeypatch)
        peaks = self.peaks_for([(0.5, 0.9), (1.2, 1.6)])
        tracks, maps = associate_and_localize(peaks, self.r_l, self.pixels, self.grid, k_targets=2)
        assert len(tracks) == len(maps) == 2
        assert len(calls) == 2  # not one per scored assignment (16 here)

    def test_ambiguous_result_fuses_both_solutions_once(self, monkeypatch):
        calls = self.count_normalized(monkeypatch)
        r_l = Point3(0.0, 0.0, 1.0)
        pixels = [Point3(-0.6, 0, 1.0), Point3(0.6, 0, 1.0)]
        truths = [Point3(-0.8, 1.4, 1.0), Point3(0.8, 1.4, 1.0)]
        peaks = [[peak(tof(r_l, t, pix), pixel=i) for t in truths] for i, pix in enumerate(pixels)]
        with pytest.raises(AmbiguousAssociationError) as info:
            associate_and_localize(peaks, r_l, pixels, GridSpec(-2, 2, 0, 3, 0.02, 1.0), k_targets=2)
        assert len(calls) == len(info.value.best) + len(info.value.second) == 4


def reference_associate(peaks_per_pixel, r_l, pixels, grid, k_targets=1):
    # The association as first written: every candidate target is seeded at
    # the argmax of its fused log-density summed over the full grid.
    bands, meas, infeasible = {}, {}, None
    for ipix, (pixel, peaks) in enumerate(zip(pixels, peaks_per_pixel)):
        for ipk, pk in enumerate(peaks):
            try:
                bands[ipix, ipk] = backproject(pk, r_l, pixel, grid).log_values
            except InfeasibleTimeError as exc:
                infeasible = exc
                continue
            meas[ipix, ipk] = (r_l, pixel, C * pk.t_s, C * pk.sigma_s)

    def log_product(det):
        return functools.reduce(np.add, [bands[pair] for pair in det])

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
                (float(xc[ix]), float(yc[iy])), grid.z_plane, [meas[p] for p in det], grid)
            targets.append((pos, det))
            score += log_score
        else:
            candidates[key] = (score, targets)
    if not candidates:
        if infeasible is not None:
            raise InfeasibleTimeError("no feasible assignment: " + str(infeasible))
        raise EmptyIntersectionError("no assignment with every target seen by two pixels")

    def solve(targets):
        tracks, maps = [], []
        for i, (pos, det) in enumerate(sorted(targets, key=lambda t: t[0])):
            fused = localization._normalized(log_product(det), grid)
            sigma_x, sigma_y = localization._spreads(fused)
            tracks.append(TrackEstimate(pos, sigma_x, sigma_y, float(fused.values.max()),
                                        f"target-{i + 1}"))
            maps.append(fused)
        return tracks, maps

    ranked = sorted(candidates.values(), key=lambda e: e[0], reverse=True)
    pool = [
        e for e in ranked
        if all(math.dist(a, b) > grid.resolution
               for (a, _), (b, _) in itertools.combinations(e[1], 2))
    ] or ranked
    best_score, best = pool[0]
    second_score, second = pool[1] if len(pool) > 1 else (-math.inf, None)
    if best_score - second_score < -math.log1p(-localization.AMBIGUITY_MARGIN):
        raise AmbiguousAssociationError(
            "ambiguous", solve(best)[0], solve(second)[0], best_score, second_score)
    return solve(best)


def association_outcome(fn, *args, **kwargs):
    # (status, tracks, maps) of one association, exceptions included.
    try:
        tracks, maps = fn(*args, **kwargs)
    except AmbiguousAssociationError as exc:
        return "ambiguous", exc.best + exc.second, []
    except (InfeasibleTimeError, EmptyIntersectionError) as exc:
        return type(exc).__name__, [], []
    return "ok", tracks, maps


def assert_same_association(got, want):
    # Positions may differ by the refinement's stopping resolution; the
    # statuses, spreads, peak values and fused maps are bit-identical.
    (status, tracks, maps), (want_status, want_tracks, want_maps) = got, want
    assert status == want_status
    assert len(tracks) == len(want_tracks) and len(maps) == len(want_maps)
    for track, ref in zip(tracks, want_tracks):
        assert track.position == pytest.approx(ref.position, rel=0, abs=1e-10)
        assert (track.sigma_x, track.sigma_y, track.peak_value, track.target_label) == (
            ref.sigma_x, ref.sigma_y, ref.peak_value, ref.target_label)
    for fused, ref in zip(maps, want_maps):
        np.testing.assert_array_equal(fused.values, ref.values)


@pytest.mark.parametrize("res", [0.02, 0.08])
@pytest.mark.parametrize("k_targets", [1, 2])
def test_association_matches_full_grid_seeding(k_targets, res):
    # Random scenes: jittered pixels, noisy times, and a spurious return at
    # some pixels of the one-target scenes.
    grid = GridSpec(-3, 3, 0, 4, res, 1.0)
    r_l = Point3(-0.5, 0, 1.15)
    rng = np.random.default_rng([k_targets, round(res * 100)])
    statuses = set()
    for _ in range(12):
        pixels = [Point3(x + rng.uniform(-0.1, 0.1), 0, 1.0 + rng.uniform(-0.05, 0.05))
                  for x in (-0.9, -0.62, -0.38, -0.1)]
        truths = [Point3(rng.uniform(-1.0, 1.5), rng.uniform(0.5, 2.5), 1.0)
                  for _ in range(k_targets)]
        peaks = []
        for i, pix in enumerate(pixels):
            ps = [peak(tof(r_l, t, pix) + rng.normal(0, 30e-12),
                       sigma_s=rng.uniform(80e-12, 200e-12), pixel=i) for t in truths]
            if k_targets == 1 and rng.random() < 0.3:
                ps.append(peak(ps[0].t_s + rng.uniform(1e-9, 4e-9), pixel=i))
            peaks.append(list(rng.permutation(ps)))
        got = association_outcome(associate_and_localize, peaks, r_l, pixels, grid, k_targets)
        want = association_outcome(reference_associate, peaks, r_l, pixels, grid, k_targets)
        assert_same_association(got, want)
        statuses.add(got[0])
    assert "ok" in statuses


class TestSeedFallback:
    # Bands 10 fs wide are finite only on the cells their ellipses pass
    # through, so two of them share just the cells around their crossing.
    def setup_method(self):
        self.r_l = Point3(0.0, 0, 1.0)
        self.pixels = [Point3(-1.2, 0, 1.0), Point3(1.2, 0, 1.0)]

    def associate_both_ways(self, truths, grid):
        peaks = [[peak(tof(self.r_l, t, pix), sigma_s=1e-14, pixel=i)]
                 for i, (t, pix) in enumerate(zip(truths, self.pixels))]
        shared = functools.reduce(np.add, [
            backproject(p[0], self.r_l, pix, grid).log_values
            for p, pix in zip(peaks, self.pixels)
        ])
        got = association_outcome(associate_and_localize, peaks, self.r_l, self.pixels, grid)
        want = association_outcome(reference_associate, peaks, self.r_l, self.pixels, grid)
        assert_same_association(got, want)
        return np.isfinite(shared), got

    def test_target_sharing_cells_only_off_the_seed_lattice_is_kept(self):
        truth = Point3(0.3, 1.1, 1.0)
        grid = centered_grid(truth.x, truth.y)  # truth is cell (25, 25), off the lattice
        finite, (status, tracks, _) = self.associate_both_ways([truth, truth], grid)
        stride = localization._SEED_STRIDE
        assert finite.any() and not finite[::stride, ::stride].any()
        assert status == "ok"
        assert tracks[0].position == pytest.approx((truth.x, truth.y), abs=1e-9)

    def test_target_sharing_no_cell_is_dropped(self):
        truths = [Point3(0.3, 0.6, 1.0), Point3(0.3, 3.5, 1.0)]
        grid = GridSpec(-3, 3, 0, 4, 0.02, 1.0)
        finite, (status, _, _) = self.associate_both_ways(truths, grid)
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

    def measurements(self, truth, sigma_s=120e-12):
        return [
            (self.r_l, pix, C * tof(self.r_l, Point3(*truth, 1.0), pix), C * sigma_s)
            for pix in self.pixels
        ]

    @staticmethod
    def score_at(pos, z, measurements):
        x, y = pos
        r = [
            (math.dist((x, y, z), (m_l.x, m_l.y, m_l.z))
             + math.dist((x, y, z), (m_i.x, m_i.y, m_i.z)) - ct) / c_sigma
            for m_l, m_i, ct, c_sigma in measurements
        ]
        return -0.5 * sum(v * v for v in r)

    def test_score_is_the_log_density_at_the_returned_position(self):
        # Perturb one time so the optimum is not a perfect fit.
        meas = self.measurements((0.6, 1.2))
        meas[1] = meas[1][:2] + (meas[1][2] + 0.01, meas[1][3])
        pos, score = localization._refine_position((0.64, 1.16), 1.0, meas, self.grid)
        assert pos != (0.64, 1.16)
        assert score < 0.0
        assert score == pytest.approx(self.score_at(pos, 1.0, meas), rel=1e-12)
        # The seed scores worse than the refined position.
        assert self.score_at((0.64, 1.16), 1.0, meas) < score

    def test_breakdown_returns_the_seed_and_its_score(self):
        # Seeded on the laser spot itself: a path leg has zero length there.
        z = self.r_l.z
        seed = (self.r_l.x, self.r_l.y)
        meas = self.measurements((0.6, 1.2))
        pos, score = localization._refine_position(seed, z, meas, self.grid)
        assert pos == seed
        assert score == pytest.approx(self.score_at(seed, z, meas), rel=1e-12)


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
