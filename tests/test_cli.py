import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from nlostrack import sceneio
from nlostrack.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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

    def test_frames_mode(self, runner, scene_file, tmp_path):
        out = tmp_path / "frames"
        result = runner.invoke(
            main, ["simulate", str(scene_file), "--out", str(out), "--frames", "4"]
        )
        assert result.exit_code == 0
        assert len(list(out.glob("pixel00_frame*.csv"))) == 4
        assert (out / "pixel00_background.csv").exists()

    def test_interrupted_run_leaves_incomplete_manifest(self, runner, scene_file, tmp_path,
                                                         monkeypatch):
        out = tmp_path / "sim"
        monkeypatch.setattr("nlostrack.cli.simulate_background", interrupt)
        result = runner.invoke(main, ["simulate", str(scene_file), "--out", str(out)])
        assert result.exit_code != 0
        assert json.loads((out / "manifest.json").read_text())["status"] == "incomplete"

    @pytest.mark.parametrize("field, value", [("acquisition", None), ("grid", 5)])
    def test_non_object_section_exit_2_names_field(self, runner, tmp_path, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SCENE, **{field: value})))
        result = runner.invoke(main, ["simulate", str(bad), "--out", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert f"scene.{field} must be a JSON object" in result.output


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

    def test_median_fallback_with_frames(self, runner, scene_file, tmp_path):
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", str(scene_file), "--out", str(sim), "--frames", "5"])
        for bg in sim.glob("*_background.csv"):
            bg.unlink()
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--hist-dir", str(sim),
                   "--out", str(tmp_path / "rec"), "--background", "median"]
        )
        assert result.exit_code == 0, result.output

    def test_median_without_enough_frames_exit_2(self, runner, scene_file, tmp_path):
        sim = tmp_path / "sim"
        runner.invoke(main, ["simulate", str(scene_file), "--out", str(sim)])
        for bg in sim.glob("*_background.csv"):
            bg.unlink()
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--hist-dir", str(sim),
                   "--out", str(tmp_path / "rec")]
        )
        assert result.exit_code == 2
        assert "3 signal frames" in result.output

    def test_three_targets_exit_2(self, runner, scene_file, tmp_path):
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--out", str(tmp_path / "rec"),
                   "--targets", "3"]
        )
        assert result.exit_code == 2

    def test_no_target_exit_3(self, runner, tmp_path):
        doc = dict(SCENE, objects=[{"position": [0.6, 1.2, 1.0], "reflectivity": 0.0}])
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["reconstruct", str(empty), "--out", str(tmp_path / "rec")]
        )
        assert result.exit_code == 3
        assert "no target" in result.output

    def test_maps_flag_writes_csvs(self, runner, scene_file, tmp_path):
        rec = tmp_path / "rec"
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--out", str(rec),
                   "--maps", "--grid-res", "0.1"]
        )
        assert result.exit_code == 0, result.output
        assert (rec / "fused_map_target-1.csv").exists()
        assert len(list(rec.glob("pixel*_peak*_map.csv"))) == 4

    def test_ambiguous_maps_manifest_lists_only_written_files(self, runner, tmp_path):
        # mirror-symmetric pixels and targets: the association is ambiguous,
        # so no fused map is written and the manifest must not name one
        doc = dict(
            SCENE,
            laser_spot=[0.0, 0.0, 1.0],
            pixels=[[-0.6, 0.0, 1.0], [0.6, 0.0, 1.0]],
            objects=[
                {"position": [-0.8, 1.4, 1.0], "reflectivity": 3.0, "label": "p1"},
                {"position": [0.8, 1.4, 1.0], "reflectivity": 3.0, "label": "p2"},
            ],
            acquisition={"rng_seed": 0, "system_throughput": 1.0e5},
        )
        scene = tmp_path / "mirror.json"
        scene.write_text(json.dumps(doc))
        rec = tmp_path / "rec"
        with pytest.warns(UserWarning, match="top assignments score within 1%"):
            result = runner.invoke(
                main, ["reconstruct", str(scene), "--out", str(rec), "--targets", "2", "--maps"]
            )
        assert result.exit_code == 0, result.output
        assert json.loads((rec / "tracks.json").read_text())["status"] == "ambiguous"
        assert_manifest_complete_and_lists_only_written_files(rec)

    def test_maps_skip_infeasible_peaks(self, runner, tmp_path):
        # histograms of the bundled scene read with a 1.4 m standoff error:
        # one pixel's corrected return time is too short to reach its pixel,
        # so it has no ellipse, no map and no place in the manifest
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
        assert len(manifest["outputs"]) < 1 + len(doc["pixels"])

    def test_interrupted_run_leaves_incomplete_manifest(self, runner, scene_file, tmp_path,
                                                         monkeypatch):
        rec = tmp_path / "rec"
        monkeypatch.setattr("nlostrack.sceneio.write_tracks_json", interrupt)
        result = runner.invoke(main, ["reconstruct", str(scene_file), "--out", str(rec)])
        assert result.exit_code != 0
        assert json.loads((rec / "manifest.json").read_text())["status"] == "incomplete"

    def test_bad_window_exit_2(self, runner, scene_file, tmp_path):
        result = runner.invoke(
            main, ["reconstruct", str(scene_file), "--out", str(tmp_path / "rec"),
                   "--window", "oops"]
        )
        assert result.exit_code == 2

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
