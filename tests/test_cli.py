import contextlib
import dataclasses
import gc
import json
import re
import shutil
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import nlostrack
from nlostrack import (
    SPEED_OF_LIGHT, GridSpec, PeakEstimate, Point3, ProbabilityMap, backproject, localization,
    localize, sceneio, studies,
)
from nlostrack.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
README = CONFIGS.parent / "README.md"

SCENE = {
    "laser_spot": [-0.5, 0.0, 1.15],
    "pixels": [
        [-0.9, 0.0, 1.0], [-0.62, 0.0, 1.08], [-0.38, 0.0, 0.95], [-0.1, 0.0, 1.05],
    ],
    "objects": [{"position": [0.6, 1.2, 1.0], "reflectivity": 3.0, "label": "p1"}],
    "background_scatterers": [],
    "scatter_height_z": 1.0,
    "wall_normal": [0.0, 1.0, 0.0],
    "standoff_m": 2.0,
    "acquisition": {"rng_seed": 7, "system_throughput": 1.0e5},
    "grid": {"x_min": -3.0, "x_max": 3.0, "y_min": 0.0, "y_max": 4.0, "resolution": 0.02},
}


# Mirror-symmetric pixels and targets about the laser axis: swapping the
# association scores identically, so two-target reconstruction is ambiguous.
# AMBIGUOUS_NOTE is its result's note at the scene's seed and grid.
MIRROR_SCENE = dict(
    SCENE,
    laser_spot=[0.0, 0.0, 1.0],
    pixels=[[-0.6, 0.0, 1.0], [0.6, 0.0, 1.0]],
    objects=[
        {"position": [-0.8, 1.4, 1.0], "reflectivity": 3.0, "label": "p1"},
        {"position": [0.8, 1.4, 1.0], "reflectivity": 3.0, "label": "p2"},
    ],
    acquisition={"rng_seed": 0, "system_throughput": 1.0e5},
)
AMBIGUOUS_NOTE = ("ambiguous association; best [(-0.00, 1.45), (0.00, 1.75)] "
                  "vs runner-up [(-0.80, 1.40), (0.80, 1.40)]")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(SCENE))
    return path


def read_bytes_sorted(directory, pattern):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).glob(pattern))}


def map_bytes(tmp_path, pmap):
    path = tmp_path / "map.csv"
    sceneio.write_map_csv(path, pmap)
    return path.read_bytes()


def band_bytes(tmp_path, band):
    # A band's map as the README recipe writes it.
    return map_bytes(tmp_path, ProbabilityMap(band.grid, np.exp(band.log_at())))


def interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def assert_manifest_complete_and_lists_only_written_files(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["outputs"]
    for name in manifest["outputs"]:
        assert (out_dir / name).exists(), name
    return manifest


class TestSimulate:
    def test_four_pixel_scene_writes_eight_csvs(self, runner, scene_file, tmp_path):
        out = tmp_path / "sim"
        result = runner.invoke(main, ["simulate", str(scene_file), "--out", str(out)])
        assert result.exit_code == 0, result.output
        csvs = list(out.glob("*.csv"))
        assert len(csvs) == 8  # 4 signal + 4 background
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["scene_sha256"] == sceneio.sha256_of(scene_file)

    def test_duplicate_pixels_exit_2_names_invariant(self, runner, tmp_path):
        doc = dict(SCENE, pixels=[[-0.9, 0.0, 1.0], [-0.9, 0.0, 1.0]])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["simulate", str(bad), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "pairwise distinct" in result.output

    def test_missing_file_exit_1(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", str(tmp_path / "nope.json"),
                                      "--out", str(tmp_path / "x")])
        assert result.exit_code == 1

    def test_unreadable_scene_exit_1_without_traceback(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", str(tmp_path), "--out", str(tmp_path / "x")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error:")

    def test_same_seed_byte_identical(self, runner, scene_file, tmp_path):
        for name in ("a", "b"):
            result = runner.invoke(
                main, ["simulate", str(scene_file), "--out", str(tmp_path / name), "--seed", "5"]
            )
            assert result.exit_code == 0
        assert read_bytes_sorted(tmp_path / "a", "*.csv") == read_bytes_sorted(tmp_path / "b", "*.csv")

    def test_interrupted_run_leaves_incomplete_manifest(self, runner, scene_file, tmp_path,
                                                         monkeypatch):
        out = tmp_path / "sim"
        monkeypatch.setattr("nlostrack.studies.simulate_background", interrupt)
        result = runner.invoke(main, ["simulate", str(scene_file), "--out", str(out)])
        assert result.exit_code != 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "incomplete"

    def test_integral_float_seed_writes_same_bytes(self, runner, tmp_path):
        for name, seed in (("int", 42), ("float", 42.0)):
            scene = tmp_path / f"{name}.json"
            scene.write_text(json.dumps(dict(SCENE, acquisition={"rng_seed": seed})))
            result = runner.invoke(main, ["simulate", str(scene), "--out", str(tmp_path / name)])
            assert result.exit_code == 0, result.output
        assert read_bytes_sorted(tmp_path / "int", "*.csv") == read_bytes_sorted(
            tmp_path / "float", "*.csv")

    @pytest.mark.parametrize("field, value", [("acquisition", None), ("grid", 5)])
    def test_non_object_section_exit_2_names_field(self, runner, tmp_path, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENE, **{field: value})))
        result = runner.invoke(main, ["simulate", str(bad), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert f"scene.{field} must be a JSON object" in result.output

    def test_manifest_outputs_are_the_files_written(self, runner, scene_file, tmp_path):
        out = tmp_path / "sim"
        result = runner.invoke(main, ["simulate", str(scene_file), "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        written = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert outputs == [f"pixel{i:02d}_{kind}.csv"
                           for i in range(4) for kind in ("signal", "background")]
        assert set(outputs) == written
        assert f"wrote {len(outputs)} histogram files" in result.output

    @pytest.mark.parametrize("obj, message", [
        ({"position": [1, 2]}, "error: scene.objects[0].position must be a [x, y, z] triple"),
        ({"position": [0.6, 1.2, 1.0], "reflectivity": None},
         "error: scene.objects[0].reflectivity must be a number, got None\n"),
        ({"position": [0.6, 1.2, 1.0], "reflectivity": "bright"},
         "error: scene.objects[0].reflectivity must be a number, got 'bright'\n"),
        ({"position": [0.6, 1.2, 1.0], "reflectivity": -1.0},
         "error: scene.objects[0]: reflectivity must be >= 0"),
    ])
    def test_bad_object_exit_2_names_field_once(self, runner, tmp_path, obj, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENE, objects=[obj])))
        result = runner.invoke(main, ["simulate", str(bad), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output.startswith(message)
        assert result.output.count("scene.objects[0]") == 1

    @pytest.mark.parametrize("height", [float("nan"), float("inf")])
    def test_non_finite_plane_height_exit_2(self, runner, tmp_path, height):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENE, scatter_height_z=height)))
        result = runner.invoke(main, ["simulate", str(bad), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output == f"error: scene.scatter_height_z: must be finite, got {height!r}\n"


    @pytest.mark.parametrize("command", ["simulate", "reconstruct"])
    def test_non_finite_grid_bound_exit_2_names_field(self, runner, tmp_path, command):
        # Python's JSON reader accepts Infinity.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENE, grid=dict(SCENE["grid"], x_max=float("inf")))))
        result = runner.invoke(main, [command, str(bad), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output == "error: scene.grid: x_max must be finite, got inf\n"

    def test_non_finite_wall_normal_exit_2(self, runner, tmp_path):
        # Python's JSON reader accepts NaN. With Lambertian losses on, such a
        # normal would give every return a rate of 0 and simulate none.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENE, wall_normal=[float("nan"), 1.0, 0.0])))
        result = runner.invoke(main, ["simulate", str(bad), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output == "error: scene: wall_normal must be finite, got (nan, 1.0, 0.0)\n"

    @pytest.mark.parametrize("field, what", [
        ("scatter_height_z", "scene.scatter_height_z"), ("standoff_m", "scene"),
        ("laser_spot", "scene.laser_spot"),
    ])
    def test_integer_beyond_float_range_exit_2_names_field(self, runner, tmp_path, field, what):
        # Python's JSON reader reads any integer; a float holds none beyond 1.8e308.
        huge = 10 ** 400
        value = [huge, 0.0, 1.0] if field == "laser_spot" else huge
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENE, **{field: value})))
        result = runner.invoke(main, ["simulate", str(bad), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert result.output == f"error: {what}: int too large to convert to float\n"

    def test_simulation_failure_worded_as_reconstruct_words_it(self, runner, tmp_path):
        # At 80 MHz the clutter return of the bundled scene is beyond one period.
        doc = json.loads((CONFIGS / "single_person.json").read_text())
        doc["acquisition"]["rep_rate_hz"] = 8e7
        doc["objects"][0]["position"] = [0.6, 3.9, 1.0]
        scene = tmp_path / "aliased.json"
        scene.write_text(json.dumps(doc))
        for command in ("simulate", "reconstruct"):
            result = runner.invoke(main, [command, str(scene), "--out", str(tmp_path / command)])
            assert result.exit_code == 2
            assert result.output == (
                "error: pixel 0: time of flight 1.916e-08 s of clutter-wall exceeds the "
                "repetition period 1.250e-08 s; returns would alias\n")


class TestReconstruct:
    def test_matches_run_scenario_exactly(self, runner, scene_file, tmp_path):
        sim = tmp_path / "sim"
        rec = tmp_path / "rec"
        assert runner.invoke(
            main, ["simulate", str(scene_file), "--out", str(sim)]
        ).exit_code == 0
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--hist-dir", str(sim), "--out", str(rec)]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((rec / "tracks.json").read_text())

        from nlostrack import run_scenario
        scene, params, grid = sceneio.load_scene(scene_file)
        want = run_scenario(scene, params, grid, k_targets=1)
        assert doc["status"] == "ok"
        assert doc["tracks"][0]["x"] == want.tracks[0].position[0]
        assert doc["tracks"][0]["y"] == want.tracks[0].position[1]
        assert doc["tracks"][0]["sigma_x"] == want.tracks[0].sigma_x

    def test_in_process_simulation_equivalent(self, runner, scene_file, tmp_path):
        via_files = tmp_path / "rec1"
        direct = tmp_path / "rec2"
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", str(scene_file), "--out", str(sim)])
        runner.invoke(main, ["reconstruct", str(scene_file), "--hist-dir", str(sim),
                             "--out", str(via_files)])
        runner.invoke(main, ["reconstruct", str(scene_file), "--out", str(direct)])
        assert (via_files / "tracks.json").read_bytes() == (direct / "tracks.json").read_bytes()

    def test_missing_background_file_exit_2_names_file(self, runner, scene_file, tmp_path):
        sim = tmp_path / "sim"
        assert runner.invoke(main, ["simulate", str(scene_file), "--out", str(sim)]).exit_code == 0
        (sim / "pixel00_background.csv").unlink()
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--hist-dir", str(sim),
                   "--out", str(tmp_path / "rec")]
        )
        assert result.exit_code == 2
        assert result.output == (f"error: no background histogram for pixel 0 in {sim}: "
                                 "pixel00_background.csv is missing\n")

    def test_histogram_without_acquisition_time_exit_2(self, runner, scene_file, tmp_path):
        # acq_time_s is required like every other header line.
        sim = tmp_path / "sim"
        assert runner.invoke(main, ["simulate", str(scene_file), "--out", str(sim)]).exit_code == 0
        path = sim / "pixel01_signal.csv"
        path.write_text(path.read_text().replace("# acq_time_s=1.0\n", ""))
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--hist-dir", str(sim),
                   "--out", str(tmp_path / "rec")]
        )
        assert result.exit_code == 2
        assert result.output == f"error: {path}: missing header line for 'acq_time_s'\n"

    RAW = "a raw acquisition has 6250 bins of 4e-12 s from 0.0 s"

    @pytest.mark.parametrize("edit, files, error", [
        (("# bin_width_s=4e-12\n", "# bin_width_s=5e-12\n"), "pixel*",
         f"pixel 0: signal histogram has 6250 bins of 5e-12 s from t0 0.0 s; {RAW}"),
        (("# t0_offset_s=0.0\n", "# t0_offset_s=1e-09\n"), "pixel00_*",
         f"pixel 0: signal histogram has 6250 bins of 4e-12 s from t0 1e-09 s; {RAW}"),
        ("\n5000,", "pixel*",
         f"pixel 0: signal histogram has 5000 bins of 4e-12 s from t0 0.0 s; {RAW}"),
        *[(("# acq_time_s=1.0\n", f"# acq_time_s={value}\n"), "pixel*",
           f"{{path}}: acq_time_s must be > 0, got {value}") for value in ("-5.0", "nan", "0.0")],
        (("# acq_time_s=1.0\n", "# acq_time_s=10.0\n"), "pixel*_background",
         "pixel 0: acquisition time mismatch: 1.0 vs 10.0"),
        (("# acq_time_s=1.0\n", "# acq_time_s=7.0\n"), "pixel*",
         "pixel 0: signal histogram integrates 7.0 s; the scene's acquisition integrates 1.0 s"),
    ], ids=["bin_width", "t0_offset", "bin_count", "acq_time_negative", "acq_time_nan",
            "acq_time_zero", "acq_time_background", "acq_time_signal"])
    def test_histogram_not_a_raw_acquisition_exit_2(self, runner, tmp_path, edit, files, error):
        # Bins of another width or time reference, or too few of them, would
        # be read on the scene's timebase: a track a metre off with exit 0,
        # or no peak with exit 3. A background of another integration time
        # would be subtracted count for count, and a signal of another one
        # read as the scene's acquisition, both with exit 0. An edit is a
        # header replacement, or a row prefix from which on the rows are
        # dropped.
        scene, sim, rec = CONFIGS / "single_person.json", tmp_path / "sim", tmp_path / "rec"
        assert runner.invoke(
            main, ["simulate", str(scene), "--out", str(sim), "--seed", "3"]).exit_code == 0
        for path in sim.glob(files + ".csv"):
            text = path.read_text()
            edited = text.replace(*edit) if isinstance(edit, tuple) else text[:text.index(edit) + 1]
            assert edited != text
            path.write_text(edited)
        result = runner.invoke(main, ["reconstruct", str(scene), "--hist-dir", str(sim),
                                      "--seed", "3", "--out", str(rec)])
        assert result.exit_code == 2
        assert result.output == f"error: {error.format(path=sim / 'pixel00_signal.csv')}\n"
        assert not rec.exists()

    @pytest.mark.parametrize("kind", ["signal", "background"])
    def test_histogram_of_another_pixel_exit_2_names_file(self, runner, tmp_path, kind):
        # pixel 1's histogram under pixel 0's name would otherwise localize
        # a target from the wrong pixel's return, with status ok.
        scene, sim = CONFIGS / "single_person.json", tmp_path / "sim"
        assert runner.invoke(
            main, ["simulate", str(scene), "--out", str(sim), "--seed", "7"]
        ).exit_code == 0
        wrong = sim / f"pixel00_{kind}.csv"
        wrong.write_bytes((sim / f"pixel01_{kind}.csv").read_bytes())
        result = runner.invoke(
            main, ["reconstruct", str(scene), "--hist-dir", str(sim), "--seed", "7",
                   "--out", str(tmp_path / "rec")]
        )
        assert result.exit_code == 2
        assert result.output == (f"error: {wrong}: header pixel=1 is not the pixel 0 "
                                 "its name gives\n")
        assert not (tmp_path / "rec").exists()

    def test_signal_files_read_without_globbing(self, runner, scene_file, tmp_path,
                                                monkeypatch):
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", str(scene_file), "--out", str(sim)])

        def no_glob(self, pattern):
            raise AssertionError(f"globbed {pattern}")

        monkeypatch.setattr(Path, "glob", no_glob)
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--hist-dir", str(sim),
                   "--out", str(tmp_path / "rec")]
        )
        assert result.exit_code == 0, result.output

    def test_no_signal_histogram_exit_2(self, runner, scene_file, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--hist-dir", str(empty),
                   "--out", str(tmp_path / "rec")]
        )
        assert result.exit_code == 2
        assert result.output == (f"error: no signal histogram for pixel 0 in {empty}: "
                                 "pixel00_signal.csv is missing\n")

    def test_zero_irf_width_exit_2_without_warnings(self, runner, tmp_path):
        scene = tmp_path / "delta.json"
        scene.write_text(json.dumps(dict(
            SCENE, acquisition=dict(SCENE["acquisition"], irf_sigma_s=0.0))))
        sim = tmp_path / "sim"
        assert runner.invoke(main, ["simulate", str(scene), "--out", str(sim)]).exit_code == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["reconstruct", str(scene), "--hist-dir", str(sim),
                                          "--out", str(tmp_path / "rec")])
        assert caught == []
        assert result.exit_code == 2
        assert result.output == ("error: retrieval needs 10 * irf_sigma_s >= bin_width_s, "
                                 "got irf_sigma_s 0.0 and bin_width_s 4e-12\n")

    @pytest.mark.parametrize("hist_dir", [[], ["--hist-dir", "sim"]], ids=["simulated", "read"])
    def test_zero_irf_width_refused_before_any_histogram(self, runner, tmp_path, monkeypatch,
                                                         hist_dir):
        def fail(*args):
            raise AssertionError("read or simulated a histogram")

        monkeypatch.setattr("nlostrack.cli.simulate_scene", fail)
        monkeypatch.setattr("nlostrack.cli._read_pixel_histograms", fail)
        monkeypatch.chdir(tmp_path)
        scene = tmp_path / "delta.json"
        scene.write_text(json.dumps(dict(
            SCENE, acquisition=dict(SCENE["acquisition"], irf_sigma_s=0.0))))
        result = runner.invoke(main, ["reconstruct", str(scene), *hist_dir, "--out", "rec"])
        assert result.exit_code == 2
        assert result.output == ("error: retrieval needs 10 * irf_sigma_s >= bin_width_s, "
                                 "got irf_sigma_s 0.0 and bin_width_s 4e-12\n")
        assert not (tmp_path / "rec").exists()

    def test_irf_width_below_a_tenth_of_a_bin_exit_2(self, runner, tmp_path):
        scene = tmp_path / "narrow.json"
        scene.write_text(json.dumps(dict(
            SCENE, acquisition=dict(SCENE["acquisition"], irf_sigma_s=0.2e-12))))
        out = tmp_path / "rec"
        result = runner.invoke(main, ["reconstruct", str(scene), "--out", str(out)])
        assert result.exit_code == 2
        assert result.output == ("error: retrieval needs 10 * irf_sigma_s >= bin_width_s, "
                                 "got irf_sigma_s 2e-13 and bin_width_s 4e-12\n")
        assert not out.exists()

    def test_three_targets_exit_2(self, runner, scene_file, tmp_path):
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--out", str(tmp_path / "rec"),
                   "--targets", "3"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("targets", ["0", "3"])
    def test_targets_checked_before_any_simulation(self, runner, scene_file, tmp_path,
                                                   monkeypatch, targets):
        def fail(*args):
            raise AssertionError("simulated a scene")

        monkeypatch.setattr("nlostrack.cli.simulate_scene", fail)
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--out", str(tmp_path / "rec"),
                   "--targets", targets]
        )
        assert result.exit_code == 2, result.output

    def test_no_target_exit_3(self, runner, tmp_path):
        doc = dict(SCENE, objects=[{"position": [0.6, 1.2, 1.0], "reflectivity": 0.0}])
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["reconstruct", str(empty), "--out", str(tmp_path / "rec")]
        )
        assert result.exit_code == 3
        assert "no target" in result.output

    def test_manifest_records_grid_and_targets(self, runner, scene_file, tmp_path):
        # reconstruct's manifest names the grid it searched, after --grid-res,
        # and --targets; simulate's, which searches nothing, names neither.
        sim, rec = tmp_path / "sim", tmp_path / "rec"
        assert runner.invoke(main, ["simulate", str(scene_file), "--out", str(sim)]).exit_code == 0
        result = runner.invoke(main, ["reconstruct", str(scene_file), "--hist-dir", str(sim),
                                      "--out", str(rec), "--grid-res", "0.1", "--targets", "1"])
        assert result.exit_code == 0, result.output
        manifest = json.loads((rec / "manifest.json").read_text())
        assert manifest["grid"] == dict(SCENE["grid"], resolution=0.1, z_plane=1.0)
        assert manifest["targets"] == 1
        simulated = json.loads((sim / "manifest.json").read_text())
        assert set(manifest) - set(simulated) == {"grid", "targets"}

    def test_maps_flag_writes_csvs(self, runner, scene_file, tmp_path):
        rec = tmp_path / "rec"
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--out", str(rec),
                   "--maps", "--grid-res", "0.1"]
        )
        assert result.exit_code == 0, result.output
        assert [p.name for p in rec.glob("*map*.csv")] == ["fused_map_target-1.csv"]
        assert not list(rec.glob("pixel*_peak*_map.csv"))

    def test_ambiguous_maps_manifest_lists_only_written_files(self, runner, tmp_path):
        # mirror-symmetric pixels and targets: the association is ambiguous,
        # so no fused map is written and the manifest must not name one
        scene = tmp_path / "mirror.json"
        scene.write_text(json.dumps(MIRROR_SCENE))
        rec = tmp_path / "rec"
        result = runner.invoke(
            main, ["reconstruct", str(scene), "--out", str(rec), "--targets", "2", "--maps"]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((rec / "tracks.json").read_text())
        assert doc["status"] == "ambiguous"
        assert doc["diagnostics"] == [AMBIGUOUS_NOTE]
        assert_manifest_complete_and_lists_only_written_files(rec)
        # The tracks go to stdout; stderr names the status in the CLI's own
        # words, then the note, and holds no warning text.
        assert [line.split(":")[0] for line in result.stdout.splitlines()] == [
            "target-1", "target-2"]
        assert result.stderr == ("ambiguous association: two assignments score within 1% of "
                                 f"each other\n  {AMBIGUOUS_NOTE}\n")

    def test_maps_skip_infeasible_peaks(self, runner, tmp_path):
        # histograms of the bundled scene read with a 1.4 m standoff error:
        # one pixel's corrected return time is too short to reach its pixel,
        # so it has no ellipse; tracks.json lists it with no track, and no
        # map is written
        sim, rec = tmp_path / "sim", tmp_path / "rec"
        assert runner.invoke(
            main, ["simulate", str(CONFIGS / "single_person.json"), "--out", str(sim),
                   "--seed", "3"]
        ).exit_code == 0
        doc = json.loads((CONFIGS / "single_person.json").read_text())
        miscalibrated = tmp_path / "standoff.json"
        miscalibrated.write_text(json.dumps(dict(doc, standoff_m=3.4)))
        result = runner.invoke(
            main, ["reconstruct", str(miscalibrated), "--hist-dir", str(sim), "--out", str(rec),
                   "--seed", "3", "--grid-res", "0.1", "--maps"]
        )
        assert result.exit_code == 3, result.output
        assert "no feasible assignment" in result.output
        manifest = assert_manifest_complete_and_lists_only_written_files(rec)
        assert manifest["outputs"] == ["tracks.json"]
        detections = json.loads((rec / "tracks.json").read_text())["detections"]
        laser = Point3(*doc["laser_spot"])
        infeasible = [d for d in detections if SPEED_OF_LIGHT * d["t_s"]
                      <= laser.distance_to(Point3(*doc["pixels"][d["pixel"]]))]
        assert len(infeasible) == 1 and infeasible[0]["track"] is None

    @pytest.mark.parametrize("case", ["ok", "two_target", "ambiguous", "infeasible"])
    def test_tracks_json_rebuilds_every_map(self, runner, tmp_path, monkeypatch, case):
        # tracks.json lists every return association was given, with the
        # label of the returned track that fuses it, and --maps writes each
        # track's fused map and no other map. tracks.json and the scene file
        # alone rebuild, byte for byte, every band map (one per return with
        # an ellipse, named by scene pixel and peak index) as built from
        # association's inputs, and each fused map, from the returns listed
        # with its track's label.
        calls = []
        associate = studies.associate_and_localize

        def recording_associate(peaks_per_pixel, r_l, pixels, grid, **kwargs):
            calls.append([peaks_per_pixel, r_l, pixels, grid, None])
            calls[-1][-1] = associate(peaks_per_pixel, r_l, pixels, grid, **kwargs)
            return calls[-1][-1]

        monkeypatch.setattr(studies, "associate_and_localize", recording_associate)
        scene, rec = tmp_path / "scene.json", tmp_path / "rec"
        grid_res = 0.1
        if case == "infeasible":
            # the histograms and 1.4 m standoff error of test_maps_skip_infeasible_peaks
            doc = json.loads((CONFIGS / "single_person.json").read_text())
            sim = tmp_path / "sim"
            assert runner.invoke(main, ["simulate", str(CONFIGS / "single_person.json"),
                                        "--out", str(sim), "--seed", "3"]).exit_code == 0
            doc = dict(doc, standoff_m=3.4)
            args, status = ["--hist-dir", str(sim), "--seed", "3"], "no_target"
        elif case == "two_target":
            doc = json.loads((CONFIGS / "two_person.json").read_text())
            args, status, grid_res = ["--targets", "2"], "ok", 0.05
        elif case == "ambiguous":
            doc, args, status, grid_res = MIRROR_SCENE, ["--targets", "2"], "ambiguous", 0.02
        else:
            doc, args, status = SCENE, [], "ok"
        scene.write_text(json.dumps(doc))
        runner.invoke(main, ["reconstruct", str(scene), "--out", str(rec), "--maps",
                             "--grid-res", str(grid_res), *args])
        tracks_doc = json.loads((rec / "tracks.json").read_text())
        assert tracks_doc["status"] == status
        written = read_bytes_sorted(rec, "*map*.csv")
        assert sorted(written) == sorted(f"fused_map_{t['label']}.csv"
                                         for t in tracks_doc["tracks"] if status == "ok")

        # The record and the band maps from association's recorded inputs.
        assert len(calls) == 1
        peaks_per_pixel, r_l, pixels, grid, returned = calls[0]
        assert (returned is not None) == (status == "ok")
        labels = {pair: track.target_label
                  for track in returned or () for pair in track.detections}
        assert pixels == [Point3(*p) for p in doc["pixels"]]
        records, want = [], {}
        for i, (pixel, peaks) in enumerate(zip(pixels, peaks_per_pixel)):
            for j, pk in enumerate(peaks):
                records.append({"pixel": i, "peak": j, "t_s": pk.t_s, "sigma_s": pk.sigma_s,
                                "amplitude": pk.amplitude, "track": labels.get((i, j))})
                with contextlib.suppress(localization.InfeasibleTimeError):
                    want[f"pixel{i:02d}_peak{j}_map.csv"] = band_bytes(
                        tmp_path, localization.backproject(pk, r_l, pixel, grid))
        assert tracks_doc["detections"] == records
        want.update(written)

        # The same maps from tracks.json, the grid manifest.json records and
        # the scene file alone.
        loaded, _, _ = sceneio.load_scene(scene)
        grid = GridSpec(**json.loads((rec / "manifest.json").read_text())["grid"])
        assert grid == dataclasses.replace(sceneio.load_scene(scene)[2], resolution=grid_res)
        got, bands = {}, {}
        for d in tracks_doc["detections"]:
            peak = PeakEstimate(d["t_s"], d["sigma_s"], d["amplitude"])
            try:
                bands[d["pixel"], d["peak"]] = backproject(
                    peak, loaded.laser_spot, loaded.pixels[d["pixel"]], grid)
            except localization.InfeasibleTimeError:
                assert d["track"] is None
                continue
            got[f"pixel{d['pixel']:02d}_peak{d['peak']}_map.csv"] = band_bytes(
                tmp_path, bands[d["pixel"], d["peak"]])
        for t in tracks_doc["tracks"]:
            track_bands = [bands[d["pixel"], d["peak"]]
                           for d in tracks_doc["detections"] if d["track"] == t["label"]]
            assert bool(track_bands) == (status == "ok")
            if track_bands:
                track, fused_map = localize(track_bands, (t["x"], t["y"]))
                assert (track.sigma_x, track.sigma_y, track.peak_value) == (
                    t["sigma_x"], t["sigma_y"], t["peak_value"])
                got[f"fused_map_{t['label']}.csv"] = map_bytes(tmp_path, fused_map)
        assert got == want
        assert (len(bands) < len(tracks_doc["detections"])) == (case == "infeasible")

    def test_interrupted_run_leaves_incomplete_manifest(self, runner, scene_file, tmp_path,
                                                         monkeypatch):
        rec = tmp_path / "rec"
        monkeypatch.setattr("nlostrack.sceneio.write_tracks_json", interrupt)
        result = runner.invoke(main, ["reconstruct", str(scene_file), "--out", str(rec)])
        assert result.exit_code != 0
        assert json.loads((rec / "manifest.json").read_text())["status"] == "incomplete"

    def test_map_in_place_of_histogram_exit_2_names_file(self, runner, scene_file, tmp_path):
        sim, rec = tmp_path / "sim", tmp_path / "rec"
        assert runner.invoke(main, ["simulate", str(scene_file), "--out", str(sim)]).exit_code == 0
        assert runner.invoke(main, ["reconstruct", str(scene_file), "--out", str(rec),
                                    "--maps", "--grid-res", "0.1"]).exit_code == 0
        signal = sim / "pixel00_signal.csv"
        signal.write_bytes((rec / "fused_map_target-1.csv").read_bytes())
        result = runner.invoke(main, ["reconstruct", str(scene_file), "--hist-dir", str(sim),
                                      "--out", str(tmp_path / "rec2")])
        assert result.exit_code == 2
        assert str(signal) in result.output
        assert sceneio.HISTOGRAM_FORMAT in result.output

    @pytest.mark.parametrize("targets", ["0", "-1"])
    def test_nonpositive_targets_exit_2(self, runner, scene_file, tmp_path, targets):
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--out", str(tmp_path / "rec"),
                   "--targets", targets]
        )
        assert result.exit_code == 2
        assert "error: k_targets must be >= 1" in result.output
        assert "pixel" not in result.output

    def test_deterministic_rerun(self, runner, scene_file, tmp_path):
        for name in ("r1", "r2"):
            result = runner.invoke(
                main, ["reconstruct", str(scene_file), "--out", str(tmp_path / name),
                       "--seed", "9"]
            )
            assert result.exit_code == 0
        assert (tmp_path / "r1/tracks.json").read_bytes() == (tmp_path / "r2/tracks.json").read_bytes()


SWEEP_DOC = {
    "laser_spot": [-0.5, 0.0, 1.15],
    "d1_position": [-0.2, 0.0, 1.0],
    "d2_x": {"min": -0.4, "max": -1.2, "steps": 2},
    "object_positions": [[1.0, 0.8, 1.0]],
    "trials_per_point": 10,
    "acquisition": {"rng_seed": 3, "system_throughput": 1.0e6},
    "grid": {"x_min": -3.0, "x_max": 3.0, "y_min": 0.0, "y_max": 4.0,
             "resolution": 0.02, "z_plane": 1.0},
}
BUNDLED_SWEEP = json.loads((CONFIGS / "baseline_sweep.json").read_text())


class TestInProcessRuns:
    @staticmethod
    def runner_streams():
        # Live stream objects of the kinds CliRunner makes for each call.
        gc.collect()
        kinds = {"_NamedTextIOWrapper", "BytesIOCopy"}
        return sum(type(obj).__name__ in kinds for obj in gc.get_objects())

    def test_repeated_runs_leave_no_streams_behind(self, runner, scene_file, tmp_path):
        # Each invocation gives the command new sys.stdout and sys.stderr
        # streams; an echo must not keep them alive once the call returns.
        sim, rec = str(tmp_path / "sim"), str(tmp_path / "rec")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENE, grid=5)))
        runs = [
            (["simulate", str(scene_file), "--out", sim], 0),
            (["reconstruct", str(scene_file), "--hist-dir", sim, "--out", rec,
              "--grid-res", "0.1"], 0),
            (["reconstruct", str(scene_file), "--out", rec, "--targets", "0"], 2),
            (["simulate", str(bad), "--out", str(tmp_path / "x")], 2),
            (["reconstruct", str(scene_file), "--hist-dir", sim, "--out", rec,
              "--grid-res", "0.1", "--maps"], 0),
        ]
        assert runner.invoke(main, runs[0][0]).exit_code == 0
        before = self.runner_streams()
        for args, code in runs:
            assert runner.invoke(main, args).exit_code == code
        assert self.runner_streams() == before


class TestSweep:
    def test_emits_rows_and_manifest(self, runner, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(SWEEP_DOC))
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = [
            l for l in (out / "sweep.csv").read_text().splitlines()
            if not l.startswith("#") and not l.startswith("baseline")
        ]
        assert len(rows) == 2  # steps x objects
        assert json.loads((out / "manifest.json").read_text())["status"] == "complete"

    def test_rerun_byte_identical(self, runner, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(SWEEP_DOC))
        for name in ("s1", "s2"):
            assert runner.invoke(
                main, ["sweep", str(config), "--out", str(tmp_path / name), "--seed", "4"]
            ).exit_code == 0
        assert (tmp_path / "s1/sweep.csv").read_bytes() == (tmp_path / "s2/sweep.csv").read_bytes()

    def test_interrupted_run_leaves_incomplete_manifest(self, runner, tmp_path, monkeypatch):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(SWEEP_DOC))
        out = tmp_path / "out"

        monkeypatch.setattr("nlostrack.cli.run_baseline_sweep", interrupt)
        result = runner.invoke(main, ["sweep", str(config), "--out", str(out)])
        assert result.exit_code != 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "incomplete"

    def test_invalid_config_exit_2(self, runner, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(dict(SWEEP_DOC, trials_per_point=1)))
        result = runner.invoke(main, ["sweep", str(config), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("field, value", [("acquisition", None), ("d2_x", [-0.4, -1.2, 2])])
    def test_non_object_section_exit_2_names_field(self, runner, tmp_path, field, value):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(dict(SWEEP_DOC, **{field: value})))
        result = runner.invoke(main, ["sweep", str(config), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert f"sweep.{field} must be a JSON object" in result.output

    def test_min_snr_is_an_unknown_field(self, runner, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(dict(SWEEP_DOC, min_snr=4.0)))
        result = runner.invoke(main, ["sweep", str(config), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "unknown field(s) ['min_snr']" in result.output

    @pytest.mark.parametrize("doc", [
        dict(SWEEP_DOC, trials_per_point=10.7),
        dict(SWEEP_DOC, d2_x=dict(SWEEP_DOC["d2_x"], steps=True)),
    ])
    def test_non_integer_count_exit_2(self, runner, tmp_path, doc):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(doc))
        result = runner.invoke(main, ["sweep", str(config), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "must be an integer" in result.output

    @pytest.mark.parametrize("doc, message", [
        (dict(SWEEP_DOC, acquisition=dict(SWEEP_DOC["acquisition"], irf_sigma_s=0.0)),
         "sweep: retrieval needs 10 * irf_sigma_s >= bin_width_s, "
         "got irf_sigma_s 0.0 and bin_width_s 4e-12"),
        (dict(SWEEP_DOC, acquisition=dict(SWEEP_DOC["acquisition"], irf_sigma_s=0.2e-12)),
         "sweep: retrieval needs 10 * irf_sigma_s >= bin_width_s, "
         "got irf_sigma_s 2e-13 and bin_width_s 4e-12"),
        (dict(SWEEP_DOC, d2_x={"min": -0.2, "max": -1.2, "steps": 2}),
         "sweep: wall spots must be pairwise distinct: pixel 0 coincides with pixel 1"),
        # The bundled sweep with its object where the two-bounce flight time
        # exceeds the 25 ns period, or its grid beyond every pixel's 7.49 m
        # unambiguous range: every trial of every cell would fail.
        (dict(BUNDLED_SWEEP, object_positions=[[1.0, 4.5, 1.0]]),
         "sweep: time of flight 3.137e-08 s of target exceeds the repetition period "
         "2.500e-08 s; returns would alias"),
        (dict(BUNDLED_SWEEP, grid=dict(BUNDLED_SWEEP["grid"], y_min=9.0, y_max=12.0)),
         "sweep: grid lies entirely beyond the unambiguous range for this pixel"),
    ], ids=["irf_sigma_zero", "irf_sigma_below_a_tenth_of_a_bin", "d2_on_d1",
            "object_aliases", "grid_beyond_range"])
    def test_invalid_setting_is_no_failed_trial(self, runner, tmp_path, doc, message):
        # A setting no trial can run with exits 2 when the document is read,
        # before the output directory is made; it is not a row of failed trials.
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(doc))
        with pytest.raises(sceneio.SceneFormatError) as caught:
            sceneio.load_sweep_config(config)
        assert str(caught.value) == message
        out = tmp_path / "x"
        result = runner.invoke(main, ["sweep", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("object_reflectivity", -1, "reflectivity must be >= 0, got -1"),
        ("standoff_m", -2, "standoff_m must be > 0, got -2"),
        ("object_reflectivity", 10**400, "int too large to convert to float"),
    ])
    def test_setting_a_cell_scene_refuses_exit_2_before_the_manifest(self, runner, tmp_path,
                                                                     field, value, message):
        # Every cell's scene is built when the document is read, so these
        # are refused before the output directory is made.
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(dict(SWEEP_DOC, **{field: value})))
        out = tmp_path / "x"
        result = runner.invoke(main, ["sweep", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert result.output == f"error: sweep: {message}\n"
        assert not out.exists()

    def test_non_finite_plane_height_exit_2(self, runner, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(
            dict(SWEEP_DOC, grid=dict(SWEEP_DOC["grid"], z_plane=float("nan")))))
        out = tmp_path / "x"
        result = runner.invoke(main, ["sweep", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert result.output == "error: sweep.grid: z_plane must be finite, got nan\n"
        assert not out.exists()


class TestExitCodes:
    """One mapping from a failure inside any command to its exit code."""

    @pytest.fixture
    def inputs(self, tmp_path):
        (tmp_path / "scene.json").write_text(json.dumps(SCENE))
        (tmp_path / "sweep.json").write_text(json.dumps(SWEEP_DOC))
        return tmp_path

    @pytest.mark.parametrize("command, source, callee", [
        ("simulate", "scene.json", "nlostrack.cli.simulate_scene"),
        ("reconstruct", "scene.json", "nlostrack.cli.reconstruct_from_histograms"),
        ("reconstruct", "scene.json", "nlostrack.sceneio.write_tracks_json"),
        ("sweep", "sweep.json", "nlostrack.cli.run_baseline_sweep"),
    ])
    @pytest.mark.parametrize("error, code", [
        (OSError, 1), (ValueError, 2), (studies.PipelineError, 2),
    ])
    def test_failure_in_body_prints_one_line(self, runner, inputs, monkeypatch,
                                             command, source, callee, error, code):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(callee, fail)
        result = runner.invoke(main, [command, str(inputs / source),
                                      "--out", str(inputs / "out")])
        assert result.exit_code == code
        assert isinstance(result.exception, SystemExit)
        assert result.output == "error: boom\n"

    def test_interrupt_is_not_an_error(self, runner, inputs, monkeypatch):
        monkeypatch.setattr("nlostrack.cli.run_baseline_sweep", interrupt)
        result = runner.invoke(main, ["sweep", str(inputs / "sweep.json"),
                                      "--out", str(inputs / "out")])
        assert result.exit_code != 0
        assert "error:" not in result.output


def test_readme_cli_section_names_exactly_the_cli_options():
    # Every option of simulate, reconstruct and sweep is documented in the
    # README's CLI section, and that section names no option the CLI lacks.
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    options = {opt for command in main.commands.values() for param in command.params
               if isinstance(param, click.Option) for opt in param.opts}
    assert sorted(main.commands) == ["reconstruct", "simulate", "sweep"]
    assert named == options


def test_readme_band_rebuild_recipe(runner, tmp_path, monkeypatch):
    # README's rebuild block, run on a fresh output of the CLI section's
    # simulate and reconstruct --maps commands, writes one band map per
    # detection with an ellipse, then, with localize on each track's bands
    # in listed order, the fused maps reconstruct --maps wrote, byte for byte.
    (block,) = [b for b in re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
                if "backproject(" in b]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "configs").mkdir()
    shutil.copy(CONFIGS / "single_person.json", tmp_path / "configs")
    scene = "configs/single_person.json"
    assert runner.invoke(main, ["simulate", scene, "--out", "runs/sim",
                                "--seed", "7"]).exit_code == 0
    assert runner.invoke(main, ["reconstruct", scene, "--hist-dir", "runs/sim",
                                "--out", "runs/rec", "--maps"]).exit_code == 0

    # The maps the block writes, by path, the bands it builds, in order, and
    # the arguments of each localize call.
    written, bands, localized = {}, [], []
    write_map_csv = sceneio.write_map_csv

    def recording_write(path, pmap):
        written[path] = pmap
        write_map_csv(path, pmap)

    def recording_backproject(*args):
        bands.append(backproject(*args))
        return bands[-1]

    def recording_localize(*args):
        localized.append(args)
        return localize(*args)

    monkeypatch.setattr(sceneio, "write_map_csv", recording_write)
    monkeypatch.setattr(nlostrack, "backproject", recording_backproject)
    monkeypatch.setattr(nlostrack, "localize", recording_localize)
    exec(block, {})
    monkeypatch.setattr(sceneio, "write_map_csv", write_map_csv)
    monkeypatch.setattr(nlostrack, "backproject", backproject)
    monkeypatch.setattr(nlostrack, "localize", localize)

    doc = json.loads(Path("runs/rec/tracks.json").read_text())
    loaded, _, _ = sceneio.load_scene(scene)
    feasible = [d for d in doc["detections"] if SPEED_OF_LIGHT * d["t_s"]
                > loaded.laser_spot.distance_to(loaded.pixels[d["pixel"]])]
    names = [f"pixel{d['pixel']:02d}_peak{d['peak']}_map.csv" for d in feasible]
    fused_names = [f"fused_map_{t['label']}.csv" for t in doc["tracks"]]
    assert list(written) == names + fused_names and len(bands) == len(names)
    for pmap, band in zip(written.values(), bands):
        assert pmap.values.tobytes() == np.exp(band.log_at()).tobytes() and not pmap.normalized
    assert sorted(p.name for p in tmp_path.glob("pixel*_map.csv")) == sorted(names)
    assert doc["status"] == "ok" and doc["tracks"]
    assert localized == [([band for band, d in zip(bands, feasible) if d["track"] == t["label"]],
                          (t["x"], t["y"])) for t in doc["tracks"]]
    for name in fused_names:
        assert written[name].normalized
        assert Path(name).read_bytes() == Path("runs/rec", name).read_bytes()
