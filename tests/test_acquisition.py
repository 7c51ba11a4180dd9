import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlostrack import (
    AcquisitionParams,
    AliasingError,
    HiddenObject,
    Point3,
    Scene,
    SPEED_OF_LIGHT,
    TransientHistogram,
    calibration_offset_s,
    expected_counts,
    expected_signal_rate,
    simulate_background,
    simulate_histogram,
    tof,
)
from nlostrack import acquisition, sceneio
from nlostrack.acquisition import _add_gaussian_mass
from conftest import same_histogram

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_scene(objects=(), scatterers=(), pixels=None, standoff=2.0):
    return Scene(
        laser_spot=Point3(-0.5, 0.0, 1.15),
        pixels=pixels or (Point3(-0.9, 0.0, 1.0), Point3(-0.1, 0.0, 1.05)),
        objects=tuple(objects),
        background_scatterers=tuple(scatterers),
        standoff_m=standoff,
    )


class TestParams:
    def test_defaults_give_6250_bins(self):
        p = AcquisitionParams()
        assert p.num_bins == 6250
        assert p.window_s == pytest.approx(25e-9, rel=1e-12)

    def test_rejects_non_divisible_window(self):
        with pytest.raises(ValueError, match="integer multiple"):
            AcquisitionParams(rep_rate_hz=4.0e7, bin_width_s=3.9e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            AcquisitionParams(acq_time_s=0.0)
        with pytest.raises(ValueError):
            AcquisitionParams(dark_rate_hz=-1.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="rng_seed"):
            AcquisitionParams(rng_seed=-1)

    def test_integral_float_seed_stored_as_int(self):
        seed = AcquisitionParams(rng_seed=42.0).rng_seed
        assert seed == 42 and type(seed) is int

    @pytest.mark.parametrize("seed", [True, math.inf, math.nan, "7"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="rng_seed"):
            AcquisitionParams(rng_seed=seed)


class TestHistogramType:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            TransientHistogram(np.array([1, -1]), 4e-12, 0.0, 0, 1.0)

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError, match="integers"):
            TransientHistogram(np.array([1.5, 2.0]), 4e-12, 0.0, 0, 1.0)

    @pytest.mark.parametrize("counts", [np.array([], dtype=np.int64), np.ones((2, 3), np.int64)])
    def test_rejects_empty_or_multidimensional_counts(self, counts):
        with pytest.raises(ValueError, match="^counts must be a non-empty 1-D array$"):
            TransientHistogram(counts, 4e-12, 0.0, 0, 1.0)

    def test_integral_float_counts_stored_as_int(self):
        h = TransientHistogram(np.array([1.0, 2.0]), 4e-12, 0.0, 0, 1.0)
        assert h.counts.dtype == np.int64 and h.counts.tolist() == [1, 2]

    def test_histograms_compare_and_hash_by_identity(self):
        a, b = (TransientHistogram(np.array([1, 2]), 4e-12, 0.0, 0, 1.0) for _ in range(2))
        assert a == a and a != b and same_histogram(a, b)
        assert hash(a) != hash(b) and len({a, b, a}) == 2

    def test_counts_are_readonly(self):
        h = TransientHistogram(np.array([1, 2, 3]), 4e-12, 0.0, 0, 1.0)
        with pytest.raises(ValueError):
            h.counts[0] = 9

    @pytest.mark.parametrize("field, value, error", [
        ("bin_width_s", 0.0, "bin_width_s must be > 0"),
        ("bin_width_s", math.inf, "bin_width_s must be > 0"),
        ("t0_offset_s", math.nan, "t0_offset_s must be finite"),
        ("t0_offset_s", -math.inf, "t0_offset_s must be finite"),
        ("acq_time_s", -5.0, "acq_time_s must be > 0"),
        ("acq_time_s", 0.0, "acq_time_s must be > 0"),
        ("acq_time_s", math.nan, "acq_time_s must be > 0"),
    ])
    def test_rejects_non_physical_timing(self, field, value, error):
        timing = {"bin_width_s": 4e-12, "t0_offset_s": 0.0, "acq_time_s": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{error}, got {value!r}"):
            TransientHistogram(np.array([1, 2]), pixel_index=0, **timing)


class TestSignalRate:
    def test_inverse_fourth_power(self):
        # doubling both legs divides the rate by 16
        laser, pixel = Point3(-0.5, 0, 1.0), Point3(0.5, 0, 1.0)
        y1 = math.sqrt(1.25**2 - 0.25)
        y2 = math.sqrt(2.50**2 - 0.25)
        scene = make_scene(
            objects=[HiddenObject(Point3(0, y1, 1.0), 1.0), HiddenObject(Point3(0, y2, 1.0), 1.0)],
            pixels=(pixel,),
        )
        scene = dataclasses.replace(scene, laser_spot=laser)
        p = AcquisitionParams(lambertian=False)
        near = expected_signal_rate(scene, 0, scene.objects[0], p)
        far = expected_signal_rate(scene, 0, scene.objects[1], p)
        assert near / far == pytest.approx(16.0, rel=1e-12)

    def test_zero_reflectivity(self, one_person_scene):
        p = AcquisitionParams()
        ghost = HiddenObject(Point3(0.6, 1.2, 1.0), 0.0)
        assert expected_signal_rate(one_person_scene, 0, ghost, p) == 0.0

    def test_grazing_geometry_kills_rate(self, one_person_scene):
        p = AcquisitionParams(lambertian=True)
        on_wall = HiddenObject(Point3(2.0, 0.0, 1.0), 1.0)  # in the wall plane
        assert expected_signal_rate(one_person_scene, 0, on_wall, p) == 0.0

    def test_lambertian_toggle(self, one_person_scene):
        obj = one_person_scene.objects[0]
        lit = expected_signal_rate(one_person_scene, 0, obj, AcquisitionParams(lambertian=True))
        flat = expected_signal_rate(one_person_scene, 0, obj, AcquisitionParams(lambertian=False))
        assert 0 < lit < flat

    def test_object_on_wall_spot_errors(self, one_person_scene):
        p = AcquisitionParams()
        on_pixel = HiddenObject(one_person_scene.pixels[0], 1.0)
        with pytest.raises(ValueError, match="zero length"):
            expected_signal_rate(one_person_scene, 0, on_pixel, p)


class TestGaussianMass:
    def test_total_mass_conserved(self):
        out = np.zeros(6250)
        _add_gaussian_mass(out, 4e-12, 120e-12, [(12.0e-9, 750.0)])
        assert out.sum() == pytest.approx(750.0, rel=1e-12)

    def test_zero_sigma_single_bin(self):
        out = np.zeros(1000)
        _add_gaussian_mass(out, 4e-12, 0.0, [(500.5 * 4e-12, 42.0)])
        assert out[500] == 42.0
        assert out.sum() == 42.0

    def test_wraps_across_period_edge(self):
        out = np.zeros(6250)
        window = 6250 * 4e-12
        _add_gaussian_mass(out, 4e-12, 120e-12, [(window - 100e-12, 100.0)])
        assert out.sum() == pytest.approx(100.0, rel=1e-12)
        assert out[:200].sum() > 5.0  # tail folded onto the start
        assert out[-200:].sum() > 50.0


def scipy_gaussian_mass(out, bin_width, sigma, pulses):
    """The pulse integral as computed with scipy.special.erf, one pulse at a time."""
    erf = pytest.importorskip("scipy.special").erf
    nbins = out.shape[0]
    for mu, total in pulses:
        if sigma <= 0.0:
            out[int(math.floor(mu / bin_width)) % nbins] += total
            continue
        lo = int(math.floor((mu - 8.0 * sigma) / bin_width))
        hi = int(math.ceil((mu + 8.0 * sigma) / bin_width))
        edges = np.arange(lo, hi + 2, dtype=np.float64) * bin_width
        cdf = erf((edges - mu) / (sigma * math.sqrt(2.0)))
        idx = np.arange(lo, hi + 1, dtype=np.int64) % nbins
        np.add.at(out, idx, 0.5 * total * (cdf[1:] - cdf[:-1]))


def assert_intensities_match_scipy(scene, params):
    # math.erf and scipy's erf differ by a few ulp on some edges, so a bin may
    # move by rounding of its pulses' masses; no Poisson draw of it may move.
    keys = [(i, with_objects) for i in range(scene.num_pixels) for with_objects in (True, False)]
    got = [expected_counts(scene, i, params, with_objects) for i, with_objects in keys]
    totals = []

    def reference(out, bin_width, sigma, pulses):
        totals.append(sum(total for _, total in pulses))
        scipy_gaussian_mass(out, bin_width, sigma, pulses)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(acquisition, "_add_gaussian_mass", reference)
        acquisition._intensity.cache_clear()
        want = [expected_counts(scene, i, params, with_objects) for i, with_objects in keys]
    acquisition._intensity.cache_clear()
    for (i, _), g, w, total in zip(keys, got, want, totals):
        assert np.abs(g - w).max() <= 4 * np.finfo(np.float64).eps * total
        if g.tobytes() == w.tobytes():
            continue  # equal intensities give equal draws
        for seed in range(50):
            for stream in (0, 1):
                draws = [np.random.default_rng([seed, i, stream]).poisson(mu) for mu in (g, w)]
                np.testing.assert_array_equal(*draws)


@pytest.mark.parametrize("name", ["single_person.json", "two_person.json"])
def test_bundled_intensities_match_scipy_erf(name):
    scene, params, _ = sceneio.load_scene(CONFIGS / name)
    assert_intensities_match_scipy(scene, params)


@settings(max_examples=40, deadline=None)
@given(
    targets=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(0.3, 2.5)), min_size=1, max_size=3),
    sigma_ps=st.sampled_from([0.0, 1.0]) | st.floats(5.0, 600.0),
    num_bins=st.integers(800, 12_500),
    seam_offset_sigmas=st.none() | st.floats(-8.0, 8.0),
)
def test_intensities_match_scipy_erf(targets, sigma_ps, num_bins, seam_offset_sigmas):
    params = AcquisitionParams(bin_width_s=25e-9 / num_bins, irf_sigma_s=sigma_ps * 1e-12)
    scene = make_scene([HiddenObject(Point3(x, y, 1.0), 2.0) for x, y in targets],
                       scatterers=[HiddenObject(Point3(0.4, 2.5, 0.8), 0.5)])
    if seam_offset_sigmas is not None:
        # Put the first target's pulse on pixel 0 within 8 sigma of the period seam.
        t = tof(scene.laser_spot, scene.objects[0].position, scene.pixels[0])
        lag = 2.0 * params.window_s + seam_offset_sigmas * params.irf_sigma_s - t
        scene = dataclasses.replace(scene, standoff_m=0.5 * SPEED_OF_LIGHT * lag)
    assert_intensities_match_scipy(scene, params)


class TestSimulate:
    def test_all_rates_zero_gives_empty_histogram(self):
        scene = make_scene()
        p = AcquisitionParams(dark_rate_hz=0.0, rng_seed=1)
        h = simulate_histogram(scene, 0, p)
        assert int(h.counts.sum()) == 0

    def test_dark_only_totals(self):
        # 1000 Hz dark for 1 s: mean total 1000 spread over 6250 bins (0.16 each);
        # check the 100-seed average against the Poisson expectation.
        scene = make_scene()
        totals = []
        for seed in range(100):
            p = AcquisitionParams(dark_rate_hz=1000.0, rng_seed=seed)
            totals.append(int(simulate_histogram(scene, 0, p).counts.sum()))
        se = math.sqrt(1000.0 / 100)
        assert abs(np.mean(totals) - 1000.0) < 3 * se
        mu = expected_counts(scene, 0, AcquisitionParams(dark_rate_hz=1000.0))
        np.testing.assert_allclose(mu, 0.16, rtol=1e-12)

    def test_delta_irf_lands_in_single_bin(self):
        scene = make_scene(objects=[HiddenObject(Point3(0.6, 1.2, 1.0), 3.0)])
        p = AcquisitionParams(irf_sigma_s=0.0, dark_rate_hz=0.0, rng_seed=3,
                              system_throughput=1e5)
        h = simulate_histogram(scene, 0, p)
        assert np.count_nonzero(h.counts) == 1
        t = tof(scene.laser_spot, scene.objects[0].position, scene.pixels[0])
        raw = math.fmod(t + 2 * scene.standoff_m / SPEED_OF_LIGHT, p.window_s)
        assert np.argmax(h.counts) == int(raw / p.bin_width_s)

    def test_peak_at_tof_after_offset(self):
        # argmax of a quiet single-object histogram sits within 1 bin of the
        # flight time once the standoff offset is removed
        scene = make_scene(objects=[HiddenObject(Point3(0.6, 1.2, 1.0), 3.0)])
        p = AcquisitionParams(dark_rate_hz=0.0, rng_seed=5, system_throughput=1e6)
        mu = expected_counts(scene, 0, p)
        t = tof(scene.laser_spot, scene.objects[0].position, scene.pixels[0])
        offset = calibration_offset_s(scene, p)
        center = offset + (np.argmax(mu) + 0.5) * p.bin_width_s
        if center < 0:
            center += p.window_s
        assert abs(center - t) <= p.bin_width_s

    def test_determinism(self):
        scene = make_scene(objects=[HiddenObject(Point3(0.6, 1.2, 1.0), 3.0)])
        p = AcquisitionParams(rng_seed=17)
        assert same_histogram(simulate_histogram(scene, 0, p), simulate_histogram(scene, 0, p))
        assert same_histogram(simulate_background(scene, 0, p), simulate_background(scene, 0, p))

    def test_background_removes_object_contribution(self):
        # Poisson additivity: mean(signal total) - mean(background total)
        # equals the expected object counts, within 3 sigma over 100 seeds.
        obj = HiddenObject(Point3(0.6, 1.2, 1.0), 3.0)
        clutter = HiddenObject(Point3(0.5, 2.6, 1.0), 2.0)
        scene = make_scene(objects=[obj], scatterers=[clutter])
        base = AcquisitionParams(dark_rate_hz=500.0)
        diff = []
        for seed in range(100):
            p = dataclasses.replace(base, rng_seed=seed)
            diff.append(
                int(simulate_histogram(scene, 0, p).counts.sum())
                - int(simulate_background(scene, 0, p).counts.sum())
            )
        expect = expected_signal_rate(scene, 0, obj, base) * base.acq_time_s
        sig_var = expected_counts(scene, 0, base).sum() + expected_counts(
            scene, 0, base, include_objects=False
        ).sum()
        se = math.sqrt(sig_var / 100)
        assert abs(np.mean(diff) - expect) < 3 * se

    def test_energy_scales_with_acq_time_and_reflectivity(self):
        scene1 = make_scene(objects=[HiddenObject(Point3(0.6, 1.2, 1.0), 1.0)])
        scene2 = make_scene(objects=[HiddenObject(Point3(0.6, 1.2, 1.0), 2.5)])
        p1 = AcquisitionParams(dark_rate_hz=0.0)
        p4 = AcquisitionParams(dark_rate_hz=0.0, acq_time_s=4.0)
        e1 = expected_counts(scene1, 0, p1).sum()
        assert expected_counts(scene1, 0, p4).sum() == pytest.approx(4 * e1, rel=1e-9)
        assert expected_counts(scene2, 0, p1).sum() == pytest.approx(2.5 * e1, rel=1e-9)

    def test_intensity_is_shared_across_seeds_and_read_only(self):
        scene = make_scene(objects=[HiddenObject(Point3(0.6, 1.2, 1.0), 3.0)])
        p = AcquisitionParams(rng_seed=3)
        mu = expected_counts(scene, 1, p)
        assert not mu.flags.writeable
        assert expected_counts(scene, 1, dataclasses.replace(p, rng_seed=11)) is mu
        assert expected_counts(scene, 1, p, include_objects=False) is not mu
        assert expected_counts(scene, 0, p) is not mu
        brighter = dataclasses.replace(p, system_throughput=2 * p.system_throughput)
        assert expected_counts(scene, 1, brighter).sum() > mu.sum()

    def test_draws_keep_their_generator_keys(self):
        # Each draw is a Poisson realisation of the (shared) intensity from
        # default_rng([seed, pixel, stream]): stream 0 the signal, 1 the background.
        scene = make_scene(objects=[HiddenObject(Point3(0.6, 1.2, 1.0), 3.0)])
        p = AcquisitionParams(rng_seed=29, system_throughput=1e5)
        mu = expected_counts(scene, 1, p)
        bg = expected_counts(scene, 1, p, include_objects=False)

        def poisson(lam, stream):
            return np.random.default_rng([29, 1, stream]).poisson(lam)

        np.testing.assert_array_equal(simulate_histogram(scene, 1, p).counts, poisson(mu, 0))
        np.testing.assert_array_equal(simulate_background(scene, 1, p).counts, poisson(bg, 1))

    @pytest.mark.parametrize("pixel_index", [-1, 2])
    def test_pixel_index_out_of_range_refused(self, pixel_index):
        with pytest.raises(IndexError, match=f"^pixel_index {pixel_index} out of range$"):
            expected_counts(make_scene(), pixel_index, AcquisitionParams())

    def test_aliasing_refused(self):
        # 10 m of path at 40 MHz exceeds the 7.5 m unambiguous range
        scene = make_scene(objects=[HiddenObject(Point3(0.0, 5.0, 1.0), 1.0)])
        with pytest.raises(AliasingError, match="alias"):
            expected_counts(scene, 0, AcquisitionParams())

    def test_poisson_mean_variance_agree(self):
        # flat-rate histogram over 200 seeds: per-bin sample mean and variance
        # within 5 combined standard errors (short variant; full in acceptance)
        scene = make_scene()
        p = AcquisitionParams(ambient_rate_hz=1.0e5, rep_rate_hz=4.0e7, bin_width_s=1e-10)
        draws = np.stack([
            simulate_histogram(scene, 0, dataclasses.replace(p, rng_seed=s)).counts
            for s in range(200)
        ]).astype(float)
        mean = draws.mean(axis=0)
        var = draws.var(axis=0, ddof=1)
        n = draws.shape[0]
        m4 = ((draws - mean) ** 4).mean(axis=0)
        se = np.sqrt(var / n + np.maximum(m4 - var**2, 0.0) / n)
        assert np.all(np.abs(mean - var) <= 5 * se)


class TestCalibrationOffset:
    def test_calibration_offset_range_and_wrap(self):
        p = AcquisitionParams()
        near = calibration_offset_s(make_scene(standoff=2.0), p)
        assert near == pytest.approx(-2 * 2.0 / SPEED_OF_LIGHT, rel=1e-12)
        far = calibration_offset_s(make_scene(standoff=5.0), p)  # 33.4 ns wraps
        assert -p.window_s < far <= 0.0
        assert far == pytest.approx(-(2 * 5.0 / SPEED_OF_LIGHT - p.window_s), rel=1e-9)
