import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from nlostrack import (
    AcquisitionParams,
    DegenerateFitError,
    HiddenObject,
    PeakEstimate,
    Point3,
    Scene,
    TimeWindow,
    TransientHistogram,
    apply_offset,
    calibration_offset_s,
    crop,
    detect_peaks,
    fit_gaussian_mixture,
    fit_peaks,
    simulate_background,
    simulate_histogram,
    subtract_background,
    tof,
)
from nlostrack.processing import NonConvergenceError, _crop_plan, _find_peaks
from conftest import same_histogram

BW = 4e-12
IRF = 120e-12  # the instrument width every fit and detection here is given


def hist_from(counts, t0=0.0, pixel=0):
    return TransientHistogram(np.asarray(counts, dtype=np.int64), BW, t0, pixel, 1.0)


def gaussian_counts(n_bins, mu_s, sigma_s, amplitude, floor=0.0):
    t = (np.arange(n_bins) + 0.5) * BW
    y = floor + amplitude * np.exp(-0.5 * ((t - mu_s) / sigma_s) ** 2)
    return np.round(y).astype(np.int64)


def quiet_scene():
    return Scene(
        laser_spot=Point3(-0.5, 0.0, 1.15),
        pixels=(Point3(-0.9, 0.0, 1.0), Point3(-0.1, 0.0, 1.05)),
        objects=(HiddenObject(Point3(0.6, 1.2, 1.0), 3.0, "person"),),
        background_scatterers=(HiddenObject(Point3(0.5, 2.6, 1.0), 2.0, "wall"),),
        standoff_m=2.0,
    )


class TestWindow:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            TimeWindow(-1e-9, 1e-9)
        with pytest.raises(ValueError):
            TimeWindow(2e-9, 1e-9)
        for bounds in [(0.0, math.inf), (math.nan, 1e-9)]:
            with pytest.raises(ValueError, match="^window bounds must be finite$"):
                TimeWindow(*bounds)


class TestApplyOffset:
    def test_zero_offset_identity(self):
        h = hist_from([1, 2, 3])
        assert apply_offset(h, 0.0) is h

    def test_offset_roundtrip(self):
        h = hist_from([5, 0, 7, 1], t0=0.0)
        assert same_histogram(apply_offset(apply_offset(h, 3e-12), -3e-12), h)

    def test_offset_bound(self):
        h = hist_from([1] * 10)
        with pytest.raises(ValueError):
            apply_offset(h, 10 * BW)

    def test_simulated_peak_lands_at_tof(self):
        scene = quiet_scene()
        p = AcquisitionParams(dark_rate_hz=0.0, system_throughput=1e6, rng_seed=2)
        h = apply_offset(simulate_histogram(scene, 0, p), calibration_offset_s(scene, p))
        centers = h.bin_centers_s()
        centers = np.where(centers < 0, centers + h.span_s, centers)
        peak_time = centers[np.argmax(h.counts)]
        expect = tof(scene.laser_spot, scene.objects[0].position, scene.pixels[0])
        assert abs(peak_time - expect) < 2 * BW


class TestCrop:
    def test_full_span_unchanged(self):
        h = hist_from([1, 2, 3, 4], t0=1e-9)
        out = crop(h, TimeWindow(1e-9, 1e-9 + 4 * BW))
        assert same_histogram(out, h)

    def test_disjoint_window_errors(self):
        h = hist_from([1, 2, 3, 4])
        with pytest.raises(ValueError, match="does not intersect"):
            crop(h, TimeWindow(1e-6, 2e-6))

    def test_counts_preserved_not_rescaled(self):
        h = hist_from([10, 20, 30, 40, 50])
        out = crop(h, TimeWindow(BW, 4 * BW))
        assert list(out.counts) == [20, 30, 40]
        assert out.bin_width_s == BW
        assert out.t0_offset_s == pytest.approx(BW)

    def test_gaussian_mass_retention(self):
        # +-1 ns window around a 120 ps peak keeps >= 99.9% of the counts
        mu = 10e-9
        h = hist_from(gaussian_counts(6250, mu, 120e-12, 5e4))
        out = crop(h, TimeWindow(mu - 1e-9, mu + 1e-9))
        assert int(out.counts.sum()) >= 0.999 * int(h.counts.sum())

    def test_wrapped_histogram_reassembled(self):
        # calibration offsets leave early bins at negative times; crop must
        # unwrap them to the end of the period, contiguous in time
        n = 1000
        counts = np.zeros(n, dtype=np.int64)
        counts[10] = 100  # raw position near the start: late canonical time
        h = TransientHistogram(counts, BW, -20 * BW, 0, 1.0)
        out = crop(h, TimeWindow(0.0, n * BW))
        assert int(out.counts.sum()) == 100
        centers = out.bin_centers_s()
        assert np.all(np.diff(centers) > 0)
        peak_time = centers[np.argmax(out.counts)]
        assert peak_time == pytest.approx((n - 20 + 10 + 0.5) * BW, rel=1e-9)

    def test_plan_is_read_only_and_its_cache_bounded(self):
        index, _ = _crop_plan(1000, BW, -20 * BW, TimeWindow(0.0, 1000 * BW))
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 0
        for k in range(20):
            _crop_plan(1000, BW, -k * BW, TimeWindow(0.0, 500 * BW))
        info = _crop_plan.cache_info()
        assert info.maxsize == 8 and info.currsize <= 8


def reference_crop(hist, window):
    # The crop algorithm as first written: canonical times, mask, stable sort.
    t = hist.bin_centers_s()
    canon = np.where(t < 0, t + hist.span_s, t)
    mask = (canon >= window.start_s) & (canon < window.end_s)
    if not mask.any():
        raise ValueError(
            f"window [{window.start_s}, {window.end_s}] does not intersect the histogram"
        )
    order = np.argsort(canon[mask], kind="stable")
    times = canon[mask][order]
    gaps = np.diff(times)
    if gaps.size and not np.allclose(gaps, hist.bin_width_s, rtol=1e-9, atol=0.0):
        raise ValueError("selected bins are not contiguous in time")
    return TransientHistogram(
        counts=hist.counts[mask][order], bin_width_s=hist.bin_width_s,
        t0_offset_s=float(times[0] - 0.5 * hist.bin_width_s),
        pixel_index=hist.pixel_index, acq_time_s=hist.acq_time_s,
    )


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 300),
    offset=st.floats(-0.999, 0.999),  # time reference, in spans; negative wraps the seam
    start=st.floats(0.0, 1.2),  # window, in spans
    length=st.floats(1e-3, 1.2),
    seed=st.integers(0, 2**32 - 1),
)
def test_crop_matches_reference_algorithm(n, offset, start, length, seed):
    counts = np.random.default_rng(seed).integers(0, 1000, n)
    hist = hist_from(counts, t0=offset * n * BW)
    window = TimeWindow(start * n * BW, (start + length) * n * BW)
    try:
        expected = reference_crop(hist, window)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            crop(hist, window)
        return
    got = crop(hist, window)
    assert same_histogram(got, expected)
    assert got.t0_offset_s == expected.t0_offset_s  # bit for bit, not approximately
    # the same window again is served from the plan, with the same result
    assert same_histogram(crop(hist, window), expected)


class TestSubtract:
    def test_self_subtraction_zero(self):
        h = hist_from([3, 1, 4, 1, 5])
        out = subtract_background(h, h)
        assert int(out.counts.sum()) == 0

    def test_clamped_at_zero(self):
        out = subtract_background(hist_from([3, 10]), hist_from([5, 4]))
        assert list(out.counts) == [0, 6]

    def test_shape_mismatch_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            subtract_background(hist_from([1, 2]), hist_from([1, 2, 3]))
        with pytest.raises(ValueError, match="time reference"):
            subtract_background(hist_from([1, 2]), hist_from([1, 2], t0=BW))
        wider = dataclasses.replace(hist_from([1, 2]), bin_width_s=2 * BW)
        with pytest.raises(ValueError, match=r"^bin width mismatch: 4e-12 vs 8e-12$"):
            subtract_background(hist_from([1, 2]), wider)
        longer = dataclasses.replace(hist_from([1, 2]), acq_time_s=10.0)
        with pytest.raises(ValueError, match=r"^acquisition time mismatch: 1\.0 vs 10\.0$"):
            subtract_background(hist_from([1, 2]), longer)

    def test_dominant_peak_survives_subtraction(self):
        scene = quiet_scene()
        p = AcquisitionParams(dark_rate_hz=0.0, system_throughput=1e6, rng_seed=4)
        sig = apply_offset(simulate_histogram(scene, 0, p), calibration_offset_s(scene, p))
        bg = apply_offset(simulate_background(scene, 0, p), calibration_offset_s(scene, p))
        out = subtract_background(sig, bg)
        centers = out.bin_centers_s()
        centers = np.where(centers < 0, centers + out.span_s, centers)
        expect = tof(scene.laser_spot, scene.objects[0].position, scene.pixels[0])
        assert abs(centers[np.argmax(out.counts)] - expect) < 2 * BW


class TestDetect:
    def test_empty_histogram_gives_no_peaks(self):
        assert detect_peaks(hist_from(np.zeros(2000)), max_peaks=2, irf_sigma_s=IRF) == []

    def test_two_separated_peaks_found_strongest_first(self):
        counts = gaussian_counts(6250, 8e-9, 120e-12, 300) + gaussian_counts(
            6250, 10e-9, 120e-12, 800
        )
        found = detect_peaks(hist_from(counts), max_peaks=2, irf_sigma_s=IRF)
        assert len(found) == 2
        times = [(b + 0.5) * BW for b, _ in found]
        assert times[0] == pytest.approx(10e-9, abs=0.2e-9)
        assert times[1] == pytest.approx(8e-9, abs=0.2e-9)
        assert found[0][1] > found[1][1]

    def test_close_peaks_merge(self):
        # closer than 3 instrument sigmas: one detection
        counts = gaussian_counts(6250, 10e-9, 120e-12, 500) + gaussian_counts(
            6250, 10e-9 + 250e-12, 120e-12, 500
        )
        found = detect_peaks(hist_from(counts), max_peaks=2, irf_sigma_s=IRF)
        assert len(found) == 1

    def test_max_peaks_validation(self):
        with pytest.raises(ValueError):
            detect_peaks(hist_from([1, 2, 1]), max_peaks=0, irf_sigma_s=IRF)

    @pytest.mark.parametrize("n_bins", [5, 12])
    def test_histogram_shorter_than_smoothing_width_rejected(self, n_bins):
        # A 400-count bin on a 50-count floor, in fewer bins than the 30-bin
        # moving average: the smoothed signal would be 30 bins long and seed
        # the fit past the histogram's end.
        counts = np.full(n_bins, 50)
        counts[n_bins // 2] = 400
        with pytest.raises(ValueError, match=f"{n_bins} bins is shorter than the 30-bin"):
            detect_peaks(hist_from(counts), irf_sigma_s=IRF)

    def test_histogram_as_long_as_smoothing_width_accepted(self):
        counts = np.full(30, 50)
        counts[15] = 400
        assert detect_peaks(hist_from(counts), irf_sigma_s=IRF) == [(15, 400.0)]


@st.composite
def peak_finding_cases(draw):
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["smoothed", "spikes"]))
    if kind == "smoothed":
        # Rounded moving averages of Poisson counts: flat tops of many lengths.
        w = draw(st.integers(1, 5))
        lam = draw(st.sampled_from([0.3, 2.0, 8.0]))
        raw = rng.poisson(lam, n + w - 1)
        x = np.round(np.convolve(raw, np.ones(w) / w, mode="valid"), 1)
    else:
        # Equal-height spikes, often closer together than the distance.
        x = np.zeros(n)
        x[rng.integers(0, n, draw(st.integers(0, 8)))] = 3.0
    edge = draw(st.sampled_from(["none", "start", "end"]))
    m = draw(st.integers(1, n))
    if edge == "start":
        x[:m] = x.max() + 1.0  # a flat top that reaches the first bin
    elif edge == "end":
        x[n - m:] = x.max() + 1.0  # a flat top that reaches the last bin
    height = draw(st.one_of(
        st.just(-np.inf),
        st.sampled_from(sorted(set(x.tolist()))),  # ties with the threshold
        st.floats(0.0, 10.0),
    ))
    distance = draw(st.one_of(st.integers(1, 20), st.floats(1.0, 20.0)))
    return x, height, distance


@settings(max_examples=400, deadline=None)
@given(case=peak_finding_cases())
def test_find_peaks_matches_scipy(case):
    x, height, distance = case
    want = find_peaks(x, height=height, distance=distance)[0]
    got = _find_peaks(x, height, distance)
    np.testing.assert_array_equal(got, want)


class TestFit:
    def test_exact_model_recovered(self):
        # noise-free data drawn from the fit's own model family
        t = (np.arange(2000) + 0.5) * BW
        tau = (t - t[0]) / 1e-9
        y = 20.0 + 500.0 * np.exp(-0.5 * ((tau - 4.0) / 0.12) ** 2)
        p0 = np.array([10.0, 300.0, 3.8, 0.2])
        lower = np.array([0.0, 1e-12, tau[0], 0.004])
        upper = np.array([1e4, np.inf, tau[-1], 1.2])
        params, resid, _ = fit_gaussian_mixture(tau, y, p0, lower, upper)
        assert params[2] == pytest.approx(4.0, abs=1e-6)
        assert params[3] == pytest.approx(0.12, rel=1e-6)
        assert resid < 1e-6 * y.sum()

    def test_covariance_is_the_residual_variance_times_the_inverse_normal_matrix(self):
        # cov = inv(J'J) * cost / dof, the floor-only bins counted in J'J, the cost and the dof.
        from nlostrack.processing import FloorBins, _mixture

        tau = np.linspace(0.0, 2.0, 400)
        noise = np.random.default_rng(5).normal(0.0, 1.0, tau.size)
        y = 3.0 + 80.0 * np.exp(-0.5 * ((tau - 1.0) / 0.12) ** 2) + noise
        far = FloorBins(600, 3.1, 550.0)
        params, resid, cov = fit_gaussian_mixture(
            tau, y, np.array([2.0, 60.0, 0.95, 0.1]), np.array([0.0, 1e-12, 0.0, 0.004]),
            np.array([1e3, np.inf, 2.0, 1.2]), far)
        _, jac = _mixture(tau, params)
        jtj = jac.T @ jac
        jtj[0, 0] += far.count
        dof = tau.size + far.count - params.size
        np.testing.assert_allclose(cov, np.linalg.inv(jtj) * resid**2 / dof, rtol=1e-9)

    def test_integer_rounded_model_residual_bound(self):
        mu, sigma, amp = 5e-9, 120e-12, 1.0e6
        h = hist_from(gaussian_counts(2500, mu, sigma, amp))
        peaks = fit_peaks(h, [(int(mu / BW), amp)], irf_sigma_guess=IRF)
        assert len(peaks) == 1
        assert peaks[0].t_s == pytest.approx(mu, abs=0.1 * BW)
        assert peaks[0].sigma_s == pytest.approx(sigma, rel=0.01)

    def test_noisy_peak_center_within_three_sigma(self):
        # Poisson noise on ~2000 counts: fitted center lands within
        # 3 sigma / sqrt(N) of truth in nearly all of 100 seeds
        mu, sigma = 6e-9, 120e-12
        total = 2000.0
        t = (np.arange(3000) + 0.5) * BW
        density = np.exp(-0.5 * ((t - mu) / sigma) ** 2)
        expect = total * density / density.sum()
        bound = 3 * sigma / math.sqrt(total)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            h = hist_from(rng.poisson(expect))
            seeds = detect_peaks(h, max_peaks=1, irf_sigma_s=IRF)
            got = fit_peaks(h, seeds, IRF)[0]
            if abs(got.t_s - mu) < bound:
                hits += 1
        assert hits >= 95

    def test_two_person_histogram_both_recovered(self):
        scene = Scene(
            laser_spot=Point3(-0.5, 0.0, 1.15),
            pixels=(Point3(-0.9, 0.0, 1.0), Point3(-0.1, 0.0, 1.05)),
            objects=(
                HiddenObject(Point3(0.5, 0.9, 1.0), 5.0, "a"),
                HiddenObject(Point3(1.2, 1.6, 1.0), 5.0, "b"),
            ),
        )
        p = AcquisitionParams(rng_seed=8, system_throughput=1e5)
        off = calibration_offset_s(scene, p)
        sig = apply_offset(simulate_histogram(scene, 0, p), off)
        bg = apply_offset(simulate_background(scene, 0, p), off)
        clean = crop(subtract_background(crop(sig, TimeWindow(1e-9, 24e-9)),
                                         crop(bg, TimeWindow(1e-9, 24e-9))),
                     TimeWindow(1e-9, 24e-9))
        seeds = detect_peaks(clean, max_peaks=2, irf_sigma_s=IRF)
        assert len(seeds) == 2
        got = sorted(fit_peaks(clean, seeds, IRF), key=lambda q: q.t_s)
        want = sorted(
            tof(scene.laser_spot, o.position, scene.pixels[0]) for o in scene.objects
        )
        for est, t_true in zip(got, want):
            assert abs(est.t_s - t_true) < 2 * BW

    def test_degenerate_seeds_raise(self):
        h = hist_from(gaussian_counts(2000, 4e-9, 120e-12, 800))
        with pytest.raises(DegenerateFitError):
            fit_peaks(h, [(1000, 800.0), (1010, 700.0)], IRF)

    def test_nonconvergence_raises(self, monkeypatch):
        from nlostrack import processing

        monkeypatch.setattr(processing, "_FIT_MAX_ITER", 1)
        h = hist_from(gaussian_counts(2000, 4e-9, 120e-12, 800, floor=5))
        with pytest.raises(NonConvergenceError, match="within 1 iterations"):
            fit_peaks(h, [(200, 10.0)], IRF)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            fit_peaks(hist_from([1, 2, 1]), [], IRF)

    @pytest.mark.parametrize("irf_sigma_s", [0.0, 0.2e-12, 0.39e-12])
    def test_empty_width_box_raises(self, irf_sigma_s):
        h = hist_from(gaussian_counts(2000, 4e-9, 120e-12, 800))
        with pytest.raises(ValueError, match=(
                rf"^retrieval needs 10 \* irf_sigma_s >= bin_width_s, "
                rf"got irf_sigma_s {irf_sigma_s!r} and bin_width_s 4e-12$")):
            fit_peaks(h, [(1000, 800.0)], irf_sigma_s)

    def test_peak_estimate_validation(self):
        for args, error in [
            ((1e-9, 0.0, 1.0), "sigma_s must be > 0, got 0.0"),
            ((1e-9, math.inf, 1.0), "sigma_s must be > 0, got inf"),
            ((1e-9, 1e-10, 0.0), "amplitude must be > 0, got 0.0"),
            ((1e-8, 1e-10, math.inf), "amplitude must be > 0, got inf"),
            ((math.nan, 1e-10, 1.0), "t_s must be finite, got nan"),
            ((-math.inf, 1e-10, 1.0), "t_s must be finite, got -inf"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                PeakEstimate(*args)
        # The stderr is keyword-only: a fourth positional value is refused.
        with pytest.raises(TypeError):
            PeakEstimate(1e-9, 1e-10, 1.0, 2)
        assert PeakEstimate(1e-9, 1e-10, 1.0, center_stderr_s=2e-12).center_stderr_s == 2e-12




class _Handed(Exception):
    """Raised by a stand-in fit once it has recorded what fit_peaks handed it."""


@settings(max_examples=50, deadline=None)
@given(irf_sigma_s=st.floats(1e-14, 1e-9), bin_width_s=st.floats(1e-13, 1e-10))
def test_fit_width_bounds_are_the_width_box(irf_sigma_s, bin_width_s):
    # Every peak's width is bounded by processing's box, on the fit's ns axis
    # (an empty box is test_empty_width_box_raises).
    from nlostrack import processing

    assume(10.0 * irf_sigma_s >= bin_width_s)
    handed = []

    def spy(tau, y, p0, lower, upper, floor_bins=processing.FloorBins()):
        handed.append((lower[3::3], upper[3::3]))
        raise _Handed

    lo, hi = processing.width_box(bin_width_s, irf_sigma_s)
    assert (lo, hi) == (bin_width_s, 10.0 * irf_sigma_s)
    h = TransientHistogram(np.ones(64, dtype=np.int64), bin_width_s, 0.0, 0, 1.0)
    with mock.patch.object(processing, "fit_gaussian_mixture", spy), pytest.raises(_Handed):
        fit_peaks(h, [(10, 5.0), (40, 5.0)], irf_sigma_s)
    (lower, upper), = handed
    assert lower.tolist() == [lo / 1e-9] * 2
    assert upper.tolist() == [hi / 1e-9] * 2


def full_window_fit(h, seeds, irf_sigma_guess=IRF):
    # fit_peaks's problem solved the direct way: every bin evaluated, no floor-only bins
    t = h.bin_centers_s()
    tau = (t - t[0]) / 1e-9
    y = h.counts.astype(np.float64)
    bw = BW / 1e-9
    p0, lower, upper = [float(np.median(y))], [0.0], [max(float(y.max()), 1.0)]
    for b, amp in seeds:
        p0 += [max(float(amp), 1.0), float(tau[b]), max(irf_sigma_guess / 1e-9, bw)]
        lower += [1e-12, float(tau[0]), bw]
        upper += [np.inf, float(tau[-1]), 10 * irf_sigma_guess / 1e-9]
    params, _, cov = fit_gaussian_mixture(tau, y, np.array(p0), np.array(lower), np.array(upper))
    peaks = [
        (t[0] + params[2 + 3 * k] * 1e-9, params[3 + 3 * k] * 1e-9, params[1 + 3 * k],
         math.sqrt(cov[2 + 3 * k, 2 + 3 * k]) * 1e-9)
        for k in range(len(seeds))
    ]
    return params[0], peaks


def noisy_histogram(seed, pulses, floor, n_bins=5800):
    # Poisson counts of a floor plus (center, sigma, peak height) Gaussian pulses
    t = (np.arange(n_bins) + 0.5) * BW
    lam = np.full(n_bins, float(floor))
    for mu, sigma, amp in pulses:
        lam += amp * np.exp(-0.5 * ((t - mu) / sigma) ** 2)
    return hist_from(np.random.default_rng(seed).poisson(lam))


class TestFitWindows:
    CASES = {
        "one_peak": ([(8e-9, IRF, 60.0)], 2.0),
        "two_peaks": ([(8e-9, IRF, 60.0), (14e-9, 1.1 * IRF, 40.0)], 1.0),
        "floor_at_zero": ([(8e-9, IRF, 30.0)], 0.0),
        "broad_4x": ([(10e-9, 4 * IRF, 30.0)], 1.0),
        "broad_8x": ([(12e-9, 8 * IRF, 20.0)], 1.0),
        # 400 bins, all within the seed's window: no floor-only bins.
        "covered": ([(0.8e-9, IRF, 60.0)], 2.0, 400),
    }

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_full_window_fit(self, case, seed):
        pulses, floor, *n_bins = self.CASES[case]
        h = noisy_histogram(seed, pulses, floor, *n_bins)
        seeds = detect_peaks(h, max_peaks=len(pulses), irf_sigma_s=IRF)
        assert len(seeds) == len(pulses)
        ref_floor, want = full_window_fit(h, seeds)
        if case == "floor_at_zero" and seed == 1:
            assert ref_floor == 0.0  # the floor sits at its lower bound
        got = fit_peaks(h, seeds, IRF)
        assert len(got) == len(want)
        for est, ref in zip(got, want):
            assert (est.t_s, est.sigma_s, est.amplitude, est.center_stderr_s) == pytest.approx(
                ref, rel=1e-9, abs=0)

    def test_gaussians_evaluated_only_near_seeds(self, monkeypatch):
        from nlostrack import processing

        handed = []

        def spy(tau, y, p0, lower, upper, floor_bins=processing.FloorBins()):
            handed.append((tau.size, floor_bins))
            return fit_gaussian_mixture(tau, y, p0, lower, upper, floor_bins)

        monkeypatch.setattr(processing, "fit_gaussian_mixture", spy)
        h = noisy_histogram(0, self.CASES["two_peaks"][0], 1.0)
        fit_peaks(h, detect_peaks(h, max_peaks=2, irf_sigma_s=IRF), IRF)
        (n_local, far), = handed
        half = math.ceil(10 * IRF / BW)
        assert 2 * (2 * half + 1) <= n_local <= 2 * (2 * half + 3)
        assert n_local + far.count == h.num_bins
        assert far.mean == pytest.approx(1.0, rel=0.1)


class TestEndToEndRecovery:
    def test_tof_recovered_for_snr_10(self):
        # simulate -> offset -> crop -> subtract -> detect -> fit across 100
        # seeds; the fitted time lands within max(2 bins, sigma/3) of the
        # true flight time in >= 95% of them
        scene = quiet_scene()
        base = AcquisitionParams(dark_rate_hz=1000.0, system_throughput=3e4)
        expect = tof(scene.laser_spot, scene.objects[0].position, scene.pixels[0])
        window = TimeWindow(expect - 3e-9, expect + 3e-9)
        hits = 0
        for seed in range(100):
            p = dataclasses.replace(base, rng_seed=seed)
            off = calibration_offset_s(scene, p)
            sig = crop(apply_offset(simulate_histogram(scene, 0, p), off), window)
            bg = crop(apply_offset(simulate_background(scene, 0, p), off), window)
            clean = subtract_background(sig, bg)
            seeds = detect_peaks(clean, max_peaks=1, irf_sigma_s=IRF)
            if not seeds:
                continue
            est = fit_peaks(clean, seeds, IRF)[0]
            if abs(est.t_s - expect) < max(2 * BW, est.sigma_s / 3):
                hits += 1
        assert hits >= 95
