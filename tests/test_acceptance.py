"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines live.
The statistical criteria run against the toolkit's own forward simulator with
fixed seeds, so the suite is deterministic.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import nlostrack as nt
from nlostrack import sceneio
from nlostrack.cli import main as cli_main
from nlostrack.studies import DEFAULT_GRID

C = nt.SPEED_OF_LIGHT
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _verdict(name, ok, detail=""):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_c1_backprojection_matches_closed_form():
    # 1000 random (laser, pixel, time, width, cell) draws: the map value must
    # reproduce the closed-form exponential within 1e-12 relative, in < 5 s.
    rng = np.random.default_rng(2024)
    grid = DEFAULT_GRID
    xc, yc = grid.x_centers(), grid.y_centers()
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        r_l = nt.Point3(rng.uniform(-2, 2), 0.0, rng.uniform(0.8, 1.4))
        r_i = nt.Point3(rng.uniform(-2, 2), 0.0, rng.uniform(0.8, 1.4))
        sigma = rng.uniform(3e-11, 1e-9)
        t = (r_l.distance_to(r_i) + rng.uniform(0.2, 6.0)) / C
        peak = nt.PeakEstimate(t_s=t, sigma_s=sigma, amplitude=1.0)
        band = nt.backproject(peak, r_l, r_i, grid)
        iy = int(rng.integers(0, grid.ny))
        ix = int(rng.integers(0, grid.nx))
        cell = nt.Point3(xc[ix], yc[iy], grid.z_plane)
        want = math.exp(
            -((nt.path_length(r_l, cell, r_i) - C * t) ** 2) / (2 * (C * sigma) ** 2)
        )
        got = float(np.exp(band.log_at())[iy, ix])
        if want > 0.0:
            worst = max(worst, abs(got - want) / want)
        else:
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    _verdict(
        "C1 ellipse-map formula oracle",
        worst < 1e-12 and elapsed < 5.0,
        f"(worst rel err {worst:.2e}, {elapsed:.1f} s)",
    )


def test_c2_noise_free_end_to_end_within_one_cell():
    # 50 random truths in x [-2, 2], y [0.3, 2.5]; dark and ambient off,
    # 120 ps response; recovered position within one 0.02 m cell per axis.
    rng = np.random.default_rng(123)
    base = nt.AcquisitionParams(dark_rate_hz=0.0, system_throughput=1.0e6)
    t0 = time.perf_counter()
    worst = 0.0
    failures = 0
    for k in range(50):
        x = rng.uniform(-2, 2)
        y = rng.uniform(0.3, 2.5)
        scene = nt.corner_scene([(x, y)], reflectivity=1.0)
        params = dataclasses.replace(base, rng_seed=k)
        res = nt.run_scenario(scene, params, DEFAULT_GRID)
        if not res.ok:
            failures += 1
            continue
        err = max(abs(res.tracks[0].position[0] - x), abs(res.tracks[0].position[1] - y))
        worst = max(worst, err)
        if err > DEFAULT_GRID.resolution:
            failures += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "C2 noise-free recovery within one cell",
        failures == 0 and elapsed < 60.0,
        f"(worst {worst * 100:.2f} cm, {failures} misses, {elapsed:.1f} s)",
    )


def test_c3_single_person_study():
    # four hidden depths up to 1.8 m, default noise (dark 1000/s, Poisson,
    # default throughput): >= 90% of 100 trials localize within 0.5 m per axis
    depths = [0.45, 0.9, 1.35, 1.8]
    t0 = time.perf_counter()
    hits = 0
    total = 0
    for d_i, depth in enumerate(depths):
        scene = nt.corner_scene([(0.6, depth)], reflectivity=3.0)
        for trial in range(25):
            params = nt.AcquisitionParams(rng_seed=1000 * d_i + trial)
            res = nt.run_scenario(scene, params, DEFAULT_GRID)
            total += 1
            if not res.ok:
                continue
            ex = abs(res.tracks[0].position[0] - 0.6)
            ey = abs(res.tracks[0].position[1] - depth)
            if ex < 0.5 and ey < 0.5:
                hits += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "C3 single-person localization rate",
        hits >= 90 and total == 100 and elapsed < 300.0,
        f"({hits}/100 within 0.5 m, {elapsed:.0f} s)",
    )


def _fuses_its_persons_returns(result, track, scene):
    # Every (pixel, peak) the track fuses is, of that pixel's returns, the one
    # nearest in time to the time of flight of the person nearest the track.
    person = min(scene.objects,
                 key=lambda o: math.dist(track.position, (o.position.x, o.position.y)))
    for pixel, peak in track.detections:
        tof = nt.tof(scene.laser_spot, person.position, scene.pixels[pixel])
        times = [p.t_s for p in result.peaks_per_pixel[pixel]]
        if int(np.argmin(np.abs(np.subtract(times, tof)))) != peak:
            return False
    return bool(track.detections)


def test_c4_two_person_study():
    # returns separated by >= 1 ns at every pixel; both targets within 0.5 m
    # in >= 85% of 100 trials; the chosen peak association matches the truth
    # in >= 95% of the successful trials: every detection of both tracks is
    # its person's return
    truths = [(0.5, 0.9), (1.2, 1.6)]
    scene = nt.corner_scene(truths, reflectivity=5.0)
    for i, pix in enumerate(scene.pixels):
        t1 = nt.tof(scene.laser_spot, scene.objects[0].position, pix)
        t2 = nt.tof(scene.laser_spot, scene.objects[1].position, pix)
        assert abs(t2 - t1) >= 1e-9, f"pixel {i} separation below 1 ns"

    both_ok = 0
    successes = 0
    correct_assoc = 0
    for trial in range(100):
        params = nt.AcquisitionParams(rng_seed=trial)
        res = nt.run_scenario(scene, params, DEFAULT_GRID, k_targets=2)
        if not res.ok or len(res.tracks) != 2:
            continue
        successes += 1
        got = sorted(t.position for t in res.tracks)
        errs = [
            (abs(gx - tx), abs(gy - ty))
            for (gx, gy), (tx, ty) in zip(got, sorted(truths))
        ]
        if all(ex < 0.5 and ey < 0.5 for ex, ey in errs):
            both_ok += 1
        if all(_fuses_its_persons_returns(res, t, scene) for t in res.tracks):
            correct_assoc += 1
    assoc_rate = correct_assoc / successes if successes else 0.0
    _verdict(
        "C4 two-person localization and association",
        both_ok >= 85 and assoc_rate >= 0.95,
        f"({both_ok}/100 both within 0.5 m, association {assoc_rate:.0%} of {successes})",
    )


def test_c5_baseline_sweep_trends():
    # full 25-step x 4-object x 50-trial sweep from the bundled config in
    # < 10 min; density widths non-increasing up to 1 m within 2 SE, the
    # 1 -> 2 m improvement smaller than 0.2 -> 1 m, and sigma_x < sigma_y at
    # 1 m. Reported values sit beside the published reference magnitudes.
    config = sceneio.load_sweep_config(CONFIG_DIR / "baseline_sweep.json")
    assert config.d2_x_range[2] == 25 and len(config.object_positions) == 4
    assert config.trials_per_point == 50
    t0 = time.perf_counter()
    result = nt.run_baseline_sweep(config)
    elapsed = time.perf_counter() - t0

    def pooled(baseline, field, se_field):
        rows = [r for r in result.rows if abs(r.baseline_m - baseline) < 1e-9 and r.valid]
        assert rows, f"no valid rows at baseline {baseline}"
        mean = float(np.mean([getattr(r, field) for r in rows]))
        se = math.sqrt(sum(getattr(r, se_field) ** 2 for r in rows)) / len(rows)
        return mean, se

    baselines = sorted({round(r.baseline_m, 6) for r in result.rows})
    upto_1m = [b for b in baselines if b <= 1.0 + 1e-9]
    monotone = True
    for field, se_field in (("pdf_sigma_x", "pdf_sigma_x_se"), ("pdf_sigma_y", "pdf_sigma_y_se")):
        series = [pooled(b, field, se_field) for b in upto_1m]
        for (m0, s0), (m1, s1) in zip(series, series[1:]):
            if m1 > m0 + 2.0 * math.hypot(s0, s1):
                monotone = False

    sx_02, _ = pooled(0.2, "pdf_sigma_x", "pdf_sigma_x_se")
    sx_10, _ = pooled(1.0, "pdf_sigma_x", "pdf_sigma_x_se")
    sx_20, _ = pooled(2.0, "pdf_sigma_x", "pdf_sigma_x_se")
    sy_02, _ = pooled(0.2, "pdf_sigma_y", "pdf_sigma_y_se")
    sy_10, _ = pooled(1.0, "pdf_sigma_y", "pdf_sigma_y_se")
    sy_20, _ = pooled(2.0, "pdf_sigma_y", "pdf_sigma_y_se")
    tails_off = (sx_10 - sx_20) < (sx_02 - sx_10) and (sy_10 - sy_20) < (sy_02 - sy_10)
    anisotropy = sx_10 < sy_10

    err_x_10 = float(np.mean([r.error_x for r in result.rows
                              if abs(r.baseline_m - 1.0) < 1e-9 and r.valid]))
    err_y_10 = float(np.mean([r.error_y for r in result.rows
                              if abs(r.baseline_m - 1.0) < 1e-9 and r.valid]))
    print(
        "\n[ACCEPTANCE] C5 values at 1 m baseline vs published reference "
        f"(not gated): error_x {err_x_10:.3f} m (ref ~0.1), error_y {err_y_10:.3f} m "
        f"(ref ~0.25), sigma_x {sx_10:.3f} m (ref ~0.4), sigma_y {sy_10:.3f} m (ref ~0.7)"
    )
    _verdict(
        "C5 baseline sweep trends",
        monotone and tails_off and anisotropy and elapsed < 600.0,
        f"(monotone={monotone}, tails_off={tails_off}, sigma_x<sigma_y at 1 m: "
        f"{sx_10:.3f}<{sy_10:.3f}, {elapsed:.0f} s)",
    )


def test_c6_inverse_fourth_power_counts():
    # doubling both bounce legs cuts the mean detected counts by 16x +- 5%
    laser = nt.Point3(-0.5, 0.0, 1.0)
    pixel = nt.Point3(0.5, 0.0, 1.0)
    d_near = 1.25
    y_near = math.sqrt(d_near**2 - 0.25)
    y_far = math.sqrt((2 * d_near) ** 2 - 0.25)
    base = nt.AcquisitionParams(dark_rate_hz=0.0, lambertian=False, system_throughput=1.0e4)

    def mean_total(y_pos):
        scene = nt.Scene(
            laser_spot=laser, pixels=(pixel,),
            objects=(nt.HiddenObject(nt.Point3(0.0, y_pos, 1.0), 1.0),),
        )
        totals = [
            int(nt.simulate_histogram(scene, 0, dataclasses.replace(base, rng_seed=s)).counts.sum())
            for s in range(200)
        ]
        return float(np.mean(totals))

    ratio = mean_total(y_near) / mean_total(y_far)
    _verdict(
        "C6 inverse-fourth-power signal scaling",
        abs(ratio - 16.0) <= 0.05 * 16.0,
        f"(ratio {ratio:.3f} vs 16)",
    )


def test_c7_poisson_statistics():
    # flat-rate histogram over 200 seeds: per-bin sample mean and variance
    # agree within 5 combined standard errors
    scene = nt.Scene(laser_spot=nt.Point3(-0.5, 0, 1.15), pixels=(nt.Point3(-0.9, 0, 1.0),))
    base = nt.AcquisitionParams(ambient_rate_hz=1.0e5, dark_rate_hz=0.0)
    draws = np.stack([
        nt.simulate_histogram(scene, 0, dataclasses.replace(base, rng_seed=s)).counts
        for s in range(200)
    ]).astype(float)
    n = draws.shape[0]
    mean = draws.mean(axis=0)
    var = draws.var(axis=0, ddof=1)
    m4 = ((draws - mean) ** 4).mean(axis=0)
    se = np.sqrt(var / n + np.maximum(m4 - var**2, 0.0) / n)
    z = np.abs(mean - var) / se
    _verdict(
        "C7 Poisson mean-variance agreement",
        bool(np.all(z <= 5.0)),
        f"(worst z {z.max():.2f} over {draws.shape[1]} bins)",
    )


def test_c8_cli_determinism(tmp_path):
    # every CLI command rerun with the same seed produces byte-identical
    # result files (the manifest carries wall-clock timestamps and is the
    # documented exception)
    runner = CliRunner()
    scene_file = CONFIG_DIR / "single_person.json"
    sweep_doc = {
        "laser_spot": [-0.5, 0.0, 1.15],
        "d1_position": [-0.2, 0.0, 1.0],
        "d2_x": {"min": -0.4, "max": -1.2, "steps": 2},
        "object_positions": [[1.0, 0.8, 1.0]],
        "trials_per_point": 10,
        "acquisition": {"rng_seed": 3, "system_throughput": 1.0e6},
        "grid": {"x_min": -3.0, "x_max": 3.0, "y_min": 0.0, "y_max": 4.0,
                 "resolution": 0.02, "z_plane": 1.0},
    }
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(sweep_doc))

    def results(directory):
        return {
            p.name: p.read_bytes()
            for p in sorted(Path(directory).iterdir())
            if p.name != "manifest.json"
        }

    identical = True
    for cmd, args in (
        ("simulate", lambda out: ["simulate", str(scene_file), "--out", out, "--seed", "5"]),
        ("reconstruct", lambda out: ["reconstruct", str(scene_file), "--out", out,
                                     "--seed", "5", "--maps", "--grid-res", "0.1"]),
        ("sweep", lambda out: ["sweep", str(sweep_file), "--out", out, "--seed", "4"]),
    ):
        out_a = tmp_path / f"{cmd}_a"
        out_b = tmp_path / f"{cmd}_b"
        ra = runner.invoke(cli_main, args(str(out_a)))
        rb = runner.invoke(cli_main, args(str(out_b)))
        assert ra.exit_code == 0 and rb.exit_code == 0, f"{cmd}: {ra.output} {rb.output}"
        if results(out_a) != results(out_b):
            identical = False
    _verdict("C8 CLI rerun determinism", identical, "(all result files byte-identical)")


def test_c9_degradation_direction():
    # same throughput: opposite-corner geometry on two pixels must fail more
    # often than the same-corner four-pixel arrangement (direction check)
    kappa = 3.5e4
    same = nt.corner_scene([(0.5, 0.9), (1.2, 1.6)], reflectivity=3.0)
    opposite = nt.corner_scene(
        [(0.5, 0.9), (-2.8, 0.6)], reflectivity=3.0,
        pixels=(nt.Point3(-1.4, 0, 1.0), nt.Point3(-0.8, 0, 1.05)),
    )

    def failure_count(scene, n=60):
        failures = 0
        for trial in range(n):
            params = nt.AcquisitionParams(system_throughput=kappa, rng_seed=trial)
            try:
                res = nt.run_scenario(scene, params, DEFAULT_GRID, k_targets=2)
            except nt.PipelineError:  # any other exception is a fault, not degradation
                failures += 1
                continue
            if not res.ok or len(res.tracks) != 2:
                failures += 1
        return failures

    f_same = failure_count(same)
    f_opposite = failure_count(opposite)
    _verdict(
        "C9 degradation direction",
        f_opposite > f_same,
        f"(opposite-corner 2px {f_opposite}/60 vs same-corner 4px {f_same}/60 failures)",
    )
