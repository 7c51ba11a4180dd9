import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import nlostrack
from nlostrack import (
    AcquisitionParams, GridSpec, Point3, ProbabilityMap, TransientHistogram, backproject,
    simulate_histogram,
)
from nlostrack.processing import PeakEstimate
from nlostrack import sceneio
from nlostrack.cli import main
from nlostrack.sceneio import SceneFormatError
from nlostrack.studies import ScenarioResult, SweepResult, SweepRow
from conftest import same_histogram

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def scene_doc():
    return {
        "laser_spot": [-0.5, 0.0, 1.15],
        "pixels": [[-0.9, 0.0, 1.0], [-0.1, 0.0, 1.05]],
        "objects": [{"position": [0.6, 1.2, 1.0], "reflectivity": 3.0, "label": "p1"}],
        "background_scatterers": [],
        "scatter_height_z": 1.0,
        "wall_normal": [0.0, 1.0, 0.0],
        "standoff_m": 2.0,
        "acquisition": {"rng_seed": 7, "dark_rate_hz": 500.0},
        "grid": {"x_min": -3.0, "x_max": 3.0, "y_min": 0.0, "y_max": 4.0, "resolution": 0.02},
    }


class TestSceneDocument:
    def test_roundtrip_identity(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_doc()))
        assert sceneio.load_scene(path) == sceneio.scene_from_dict(scene_doc())

    def test_plane_height_is_the_grids(self):
        # Objects keep their own z; scatter_height_z only places the search plane.
        doc = dict(scene_doc(), scatter_height_z=1.3)
        scene, _, grid = sceneio.scene_from_dict(doc)
        assert grid.z_plane == 1.3
        assert scene.objects[0].position.z == 1.0

    def test_numbers_keep_their_json_type(self):
        # Grid and acquisition numbers reach the map headers and the manifest
        # as written; the plane height becomes the grid's float z_plane.
        doc = dict(scene_doc(), scatter_height_z=1, grid=dict(scene_doc()["grid"], x_min=-3),
                   acquisition={"dark_rate_hz": 500, "rng_seed": 7.0})
        _, params, grid = sceneio.scene_from_dict(doc)
        values = (grid.x_min, grid.z_plane, params.dark_rate_hz, params.rng_seed)
        assert [(v, type(v)) for v in values] == [(-3, int), (1.0, float), (500, int), (7, int)]

    def test_unknown_field_rejected(self):
        doc = scene_doc()
        doc["lazer_spot"] = [0, 0, 0]
        with pytest.raises(SceneFormatError, match="lazer_spot"):
            sceneio.scene_from_dict(doc)

    def test_unknown_acquisition_field_rejected(self):
        doc = scene_doc()
        doc["acquisition"]["darkrate"] = 1.0
        with pytest.raises(SceneFormatError, match="darkrate"):
            sceneio.scene_from_dict(doc)

    def test_missing_required_field(self):
        doc = scene_doc()
        del doc["scatter_height_z"]
        with pytest.raises(SceneFormatError, match="scatter_height_z"):
            sceneio.scene_from_dict(doc)

    def test_bad_point_shape(self):
        doc = scene_doc()
        doc["laser_spot"] = [1.0, 2.0]
        with pytest.raises(SceneFormatError, match="triple"):
            sceneio.scene_from_dict(doc)

    def test_invariant_violation_surfaces(self):
        doc = scene_doc()
        doc["pixels"] = [[-0.9, 0.0, 1.0], [-0.9, 0.0, 1.0]]
        with pytest.raises(SceneFormatError, match="pairwise distinct"):
            sceneio.scene_from_dict(doc)

    def test_not_json(self, tmp_path):
        bad = tmp_path / "scene.json"
        bad.write_text("{nope")
        with pytest.raises(SceneFormatError, match="not valid JSON"):
            sceneio.load_scene(bad)

    def test_not_an_object(self, tmp_path):
        bad = tmp_path / "scene.json"
        bad.write_text("[1, 2]")
        with pytest.raises(SceneFormatError, match=r"^scene must be a JSON object, got \[1, 2\]$"):
            sceneio.load_scene(bad)


class TestSweepDocument:
    def doc(self):
        return {
            "laser_spot": [-0.5, 0.0, 1.15],
            "d1_position": [-0.2, 0.0, 1.0],
            "d2_x": {"min": -0.3, "max": -2.7, "steps": 5},
            "object_positions": [[1.0, 0.8, 1.0]],
            "trials_per_point": 10,
            "acquisition": {"rng_seed": 3},
            "grid": {"x_min": -3.0, "x_max": 3.0, "y_min": 0.0, "y_max": 4.0,
                     "resolution": 0.02, "z_plane": 1.0},
        }

    def test_parses(self):
        config = sceneio.sweep_config_from_dict(self.doc())
        assert config.d2_x_range == (-0.3, -2.7, 5)
        assert config.trials_per_point == 10
        assert len(config.d2_positions()) == 5

    @pytest.mark.parametrize("value", [10.7, True])
    @pytest.mark.parametrize("field", ["trials_per_point", "d2_x.steps"])
    def test_non_integer_count_rejected(self, field, value):
        doc = self.doc()
        if field == "trials_per_point":
            doc["trials_per_point"] = value
        else:
            doc["d2_x"]["steps"] = value
        with pytest.raises(SceneFormatError, match=f"sweep.{field} must be an integer"):
            sceneio.sweep_config_from_dict(doc)

    def test_unknown_field_rejected(self):
        doc = self.doc()
        doc["d2_y"] = {}
        with pytest.raises(SceneFormatError, match="d2_y"):
            sceneio.sweep_config_from_dict(doc)


NUMBER, INTEGER, BOOL, STRING, POINT, LIST, OBJECT = (
    "a number", "an integer", "true or false", "a string", "a [x, y, z] triple", "a list",
    "a JSON object",
)

# (field path, bad value, what the field must be) for the two sections both
# documents hold.
ACQUISITION_FIELDS = [
    ("rep_rate_hz", "4e7", NUMBER), ("bin_width_s", None, NUMBER), ("acq_time_s", [1.0], NUMBER),
    ("irf_sigma_s", {}, NUMBER), ("dark_rate_hz", True, NUMBER),
    ("ambient_rate_hz", False, NUMBER), ("system_throughput", "1e4", NUMBER),
    ("lambertian", "false", BOOL), ("lambertian", 0, BOOL), ("lambertian", None, BOOL),
    ("rng_seed", 4.5, INTEGER), ("rng_seed", True, INTEGER), ("rng_seed", "42", INTEGER),
]
GRID_FIELDS = [
    ("x_min", "a", NUMBER), ("x_max", None, NUMBER), ("y_min", [0.0], NUMBER),
    ("y_max", False, NUMBER), ("resolution", True, NUMBER),
]
# (document, field path, bad value, what the field must be): every leaf
# field of the scene and sweep documents, set in a bundled config.
FIELD_CASES = [
    ("scene", "laser_spot", "far", POINT), ("scene", "laser_spot", [0.0, 1.0], POINT),
    ("scene", "laser_spot[1]", "a", NUMBER),
    ("scene", "pixels", 3, LIST), ("scene", "pixels[0]", 7, POINT),
    ("scene", "pixels[3][2]", True, NUMBER),
    ("scene", "objects", 3, LIST), ("scene", "objects[0]", [], OBJECT),
    ("scene", "objects[0].position", [1, 2], POINT),
    ("scene", "objects[0].position[0]", None, NUMBER),
    ("scene", "objects[0].reflectivity", "bright", NUMBER),
    ("scene", "objects[0].reflectivity", True, NUMBER),
    ("scene", "objects[0].label", 5, STRING),
    ("scene", "background_scatterers", {}, LIST),
    ("scene", "background_scatterers[0].position", "wall", POINT),
    ("scene", "background_scatterers[0].reflectivity", "2", NUMBER),
    ("scene", "background_scatterers[0].label", None, STRING),
    ("scene", "scatter_height_z", "1", NUMBER), ("scene", "scatter_height_z", True, NUMBER),
    ("scene", "wall_normal", 5, LIST), ("scene", "wall_normal", [0.0, 1.0], "a list of 3 items"),
    ("scene", "wall_normal[1]", "1", NUMBER),
    ("scene", "standoff_m", "far", NUMBER), ("scene", "standoff_m", True, NUMBER),
    ("scene", "acquisition", None, OBJECT), ("scene", "grid", 5, OBJECT),
    ("sweep", "laser_spot", [1.0], POINT), ("sweep", "d1_position", "here", POINT),
    ("sweep", "d1_position[2]", "z", NUMBER),
    ("sweep", "d2_x", [-0.3, -2.7, 25], OBJECT), ("sweep", "d2_x.min", "a", NUMBER),
    ("sweep", "d2_x.max", None, NUMBER), ("sweep", "d2_x.steps", 2.5, INTEGER),
    ("sweep", "object_positions", 3, LIST), ("sweep", "object_positions[1]", [1.6], POINT),
    ("sweep", "object_positions[0][0]", "1", NUMBER),
    ("sweep", "trials_per_point", "50", INTEGER),
    ("sweep", "object_reflectivity", "bright", NUMBER),
    ("sweep", "standoff_m", True, NUMBER),
    ("sweep", "acquisition", [], OBJECT), ("sweep", "grid", "fine", OBJECT),
    ("sweep", "grid.z_plane", "1", NUMBER),
    *((doc, f"acquisition.{field}", value, kind)
      for doc in ("scene", "sweep") for field, value, kind in ACQUISITION_FIELDS),
    *((doc, f"grid.{field}", value, kind)
      for doc in ("scene", "sweep") for field, value, kind in GRID_FIELDS),
]
DOCUMENTS = {
    "scene": ("single_person.json", sceneio.scene_from_dict, "simulate"),
    "sweep": ("baseline_sweep.json", sceneio.sweep_config_from_dict, "sweep"),
}


def set_field(doc, path, value):
    """Set the field at ``path`` (``objects[0].label``) of the JSON document ``doc``."""
    *keys, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    for key in keys:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("document, path, value, kind", FIELD_CASES)
def test_each_field_refusal_names_its_path(tmp_path, document, path, value, kind):
    config, parse, command = DOCUMENTS[document]
    doc = json.loads((CONFIGS / config).read_text())
    set_field(doc, path, value)
    message = f"{document}.{path} must be {kind}, got {value!r}"
    with pytest.raises(SceneFormatError) as caught:
        parse(doc)
    assert str(caught.value) == message
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, [command, str(bad), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert result.output == f"error: {message}\n"


def test_readme_scene_block_and_every_config_parse():
    # README's scene block is the bundled single-person scene without its clutter.
    (block,) = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    scene, params, grid = sceneio.load_scene(CONFIGS / "single_person.json")
    assert sceneio.scene_from_dict(json.loads(block)) == (
        dataclasses.replace(scene, background_scatterers=()), params, grid)
    configs = sorted(CONFIGS.glob("*.json"))
    assert [p.name for p in configs] == ["baseline_sweep.json", "single_person.json",
                                         "two_person.json"]
    assert sceneio.load_sweep_config(configs[0]).d2_x_range == (-0.3, -2.7, 25)
    for path in configs[1:]:
        assert sceneio.load_scene(path)[0].objects


def five_bin_histogram():
    return TransientHistogram(
        counts=np.array([0, 3, 1, 0, 7], dtype=np.int64),
        bin_width_s=4e-12, t0_offset_s=-1.3342563807926082e-08,
        pixel_index=2, acq_time_s=1.0,
    )


class TestHistogramCsv:
    def test_roundtrip(self, tmp_path):
        h = five_bin_histogram()
        path = tmp_path / "h.csv"
        sceneio.write_histogram_csv(path, h)
        assert same_histogram(sceneio.read_histogram_csv(path), h)
        text = path.read_text()
        assert text.startswith(f"# {sceneio.HISTOGRAM_FORMAT}\n")
        assert "# bin_width_s=4e-12" in text
        assert "# pixel=2" in text

    def test_wrong_column_line_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        sceneio.write_histogram_csv(path, five_bin_histogram())
        path.write_text(path.read_text().replace("bin_index,counts", "bin,counts"))
        with pytest.raises(ValueError, match="missing header line 'bin_index,counts'"):
            sceneio.read_histogram_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("bin_index,counts\n0,1\n")
        with pytest.raises(ValueError, match="missing header"):
            sceneio.read_histogram_csv(path)

    def test_crlf_and_trailing_blank_lines_accepted(self, tmp_path):
        h = five_bin_histogram()
        path = tmp_path / "h.csv"
        sceneio.write_histogram_csv(path, h)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n") + b"\r\n\n")
        assert same_histogram(sceneio.read_histogram_csv(path), h)

    @settings(max_examples=50, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 2**40), min_size=1, max_size=40),
        bin_width_s=st.floats(1e-15, 1e-6),
        t0_offset_s=st.floats(-1e-6, 1e-6, allow_subnormal=False),
        pixel_index=st.integers(0, 10_000),
        acq_time_s=st.floats(1e-3, 1e4),
    )
    def test_roundtrip_property(self, tmp_path_factory, counts, bin_width_s, t0_offset_s,
                                pixel_index, acq_time_s):
        h = TransientHistogram(np.array(counts, dtype=np.int64), bin_width_s, t0_offset_s,
                               pixel_index, acq_time_s)
        path = tmp_path_factory.mktemp("prop") / "h.csv"
        sceneio.write_histogram_csv(path, h)
        assert same_histogram(sceneio.read_histogram_csv(path), h)


class TestReaderRefusals:
    """What the histogram reader refuses, and the loose text it still accepts."""

    HEADER = "# nlostrack-histogram v1\n# bin_width_s=4e-12\n# t0_offset_s=0.0\n# pixel=0\n" \
             "# acq_time_s=1.0\nbin_index,counts\n"

    @pytest.mark.parametrize("rows, message", [
        ("0,1\n2,3\n", "non-contiguous bin indices"),
        ("0,1\n1,2,3\n", "requires 2 columns but 3 were found"),
        ("0,1\n1\n", "requires 2 columns but 1 were found"),
        ("0,1.5\n", "could not convert string '1.5'"),
        ("0,a\n", "could not convert string 'a'"),
        ("0,4\n1,-1\n", "counts must be non-negative"),
        ("", "no histogram rows"),
        ("\n  \n", "no histogram rows"),
    ])
    def test_refused_naming_the_file(self, tmp_path, rows, message):
        path = tmp_path / "h.csv"
        path.write_text(self.HEADER + rows)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
            sceneio.read_histogram_csv(path)

    @pytest.mark.parametrize("rows", [
        "0,4\n\n1,2\n",
        " 0 , 4 \n1,\t2\n",
        "0,4\n   \n1,2\n\t\n",
        "\n\n0,4\r\n1,2",
    ])
    def test_blank_lines_and_padded_cells_accepted(self, tmp_path, rows):
        path = tmp_path / "h.csv"
        path.write_text(self.HEADER + rows)
        assert sceneio.read_histogram_csv(path).counts.tolist() == [4, 2]


def reference_table(fmt, meta, columns, rows) -> bytes:
    # The table writer as first written: every line joined, rows included.
    header = [f"# {fmt}", *(f"# {key}={sceneio._text(value)}" for key, value in meta.items())]
    return ("\n".join([*header, ",".join(columns), *rows]) + "\n").encode()


def reference_write_histogram(hist) -> bytes:
    # The histogram rows as first written: one f-string per bin.
    meta = {"bin_width_s": hist.bin_width_s, "t0_offset_s": hist.t0_offset_s,
            "pixel": hist.pixel_index, "acq_time_s": hist.acq_time_s}
    rows = (f"{i},{c}" for i, c in enumerate(hist.counts.tolist()))
    return reference_table(sceneio.HISTOGRAM_FORMAT, meta, ("bin_index", "counts"), rows)


def reference_write_map(pmap) -> bytes:
    # The map rows as first written: one f-string per cell, centres and value by str.
    g = pmap.grid
    xs = list(map(str, g.x_centers().tolist()))
    rows = (
        f"{x},{y},{v}"
        for y, values in zip(map(str, g.y_centers().tolist()), pmap.values.tolist())
        for x, v in zip(xs, values)
    )
    meta = {**dataclasses.asdict(g), "normalized": pmap.normalized}
    return reference_table(sceneio.MAP_FORMAT, meta, ("x", "y", "value"), rows)


def assert_one_cache_entry():
    info = sceneio._rows_template.cache_info()
    assert info.maxsize == 1 and info.currsize <= 1


class TestWritersMatchReference:
    """The template writers give the bytes of the row-by-row writers."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 7000),
        high=st.sampled_from([0, 1, 9, 1000, 2**31, 2**40]),
        head=st.lists(st.integers(0, 2**40), max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_histogram_property(self, tmp_path_factory, n, high, head, seed):
        counts = np.random.default_rng(seed).integers(0, high, n, endpoint=True)
        counts[:len(head)] = head[:n]
        h = TransientHistogram(counts, 4e-12, -1.3e-8, 3, 1.0)
        path = tmp_path_factory.mktemp("hist") / "h.csv"
        sceneio.write_histogram_csv(path, h)
        assert path.read_bytes() == reference_write_histogram(h)
        assert_one_cache_entry()

    @settings(max_examples=100, deadline=None)
    @given(
        x_min=st.floats(-3.0, 2.0),
        y_min=st.floats(-2.0, 2.0),
        resolution=st.sampled_from([0.05, 0.06, 0.08, 0.1]),
        nx=st.integers(2, 40),
        ny=st.integers(2, 40),
        values=st.lists(
            st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 1e16]) | st.floats(0.0, 1e300),
            min_size=1, max_size=50,
        ),
    )
    def test_map_property(self, tmp_path_factory, x_min, y_min, resolution, nx, ny, values):
        grid = GridSpec(x_min, x_min + nx * resolution, y_min, y_min + ny * resolution,
                        resolution, 1.0)
        pmap = ProbabilityMap(grid, np.resize(values, (grid.ny, grid.nx)))
        path = tmp_path_factory.mktemp("map") / "m.csv"
        sceneio.write_map_csv(path, pmap)
        assert path.read_bytes() == reference_write_map(pmap)
        assert_one_cache_entry()

    def test_simulated_histogram_and_band(self, tmp_path):
        scene, params, grid = sceneio.load_scene(
            Path(__file__).resolve().parent.parent / "configs" / "single_person.json")
        hist = simulate_histogram(scene, 0, params)
        assert hist.num_bins == 6250
        sceneio.write_histogram_csv(tmp_path / "h.csv", hist)
        assert (tmp_path / "h.csv").read_bytes() == reference_write_histogram(hist)

        grid = dataclasses.replace(grid, resolution=0.05)
        peak = PeakEstimate(t_s=9e-9, sigma_s=120e-12, amplitude=5.0)
        band = backproject(peak, scene.laser_spot, scene.pixels[0], grid)
        pmap = ProbabilityMap(grid, np.exp(band.log_at()))
        assert 0 < np.count_nonzero(pmap.values) < pmap.values.size
        sceneio.write_map_csv(tmp_path / "m.csv", pmap)
        assert (tmp_path / "m.csv").read_bytes() == reference_write_map(pmap)
        assert_one_cache_entry()


class TestMapAndTracks:
    def test_map_csv_shape(self, tmp_path):
        grid = GridSpec(0, 0.1, 0, 0.1, 0.02, 1.0)
        peak = PeakEstimate(t_s=10e-9, sigma_s=120e-12, amplitude=5.0)
        band = backproject(peak, Point3(-0.5, 0, 1.0), Point3(0.5, 0, 1.0), grid)
        pmap = ProbabilityMap(grid, np.exp(band.log_at()))
        path = tmp_path / "map.csv"
        sceneio.write_map_csv(path, pmap)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# {sceneio.MAP_FORMAT}"
        data = [l for l in lines if not l.startswith("#") and l != "x,y,value"]
        assert len(data) == grid.nx * grid.ny
        x, y, v = data[0].split(",")
        assert float(v) >= 0.0

    def test_tracks_json(self, tmp_path):
        from nlostrack import TrackEstimate

        # Pixel 1 has no return and pixel 2 two, of which the track fuses the
        # second; the result and tracks.json number pixels alike. Floats are
        # written by repr, so a time of many digits reads back exactly.
        path = tmp_path / "tracks.json"
        tracks = [TrackEstimate(position=(0.5, 1.0), sigma_x=0.1, sigma_y=0.2,
                                peak_value=3.0, target_label="target-1",
                                detections=((0, 0), (2, 1)))]
        peaks = [[PeakEstimate(4e-9, 1.2e-10, 30.0)], [],
                 [PeakEstimate(5e-9, 1.1e-10, 20.0), PeakEstimate(1e-8 / 3, 1e-10, 9.5)]]
        result = ScenarioResult(tracks=tracks, peaks_per_pixel=peaks, status="ok",
                                notes=["note"])
        sceneio.write_tracks_json(path, result)
        doc = json.loads(path.read_text())
        assert list(doc) == ["status", "tracks", "detections", "diagnostics"]
        assert doc["status"] == "ok"
        assert doc["tracks"][0]["x"] == 0.5
        assert doc["detections"] == [
            {"pixel": 0, "peak": 0, "t_s": 4e-9, "sigma_s": 1.2e-10, "amplitude": 30.0,
             "track": "target-1"},
            {"pixel": 2, "peak": 0, "t_s": 5e-9, "sigma_s": 1.1e-10, "amplitude": 20.0,
             "track": None},
            {"pixel": 2, "peak": 1, "t_s": 1e-8 / 3, "sigma_s": 1e-10, "amplitude": 9.5,
             "track": "target-1"},
        ]
        assert doc["diagnostics"] == ["note"]


class TestGoldenBytes:
    """The exact on-disk text of each CSV layout."""

    def test_histogram(self, tmp_path):
        path = tmp_path / "h.csv"
        sceneio.write_histogram_csv(path, five_bin_histogram())
        assert path.read_bytes() == (
            b"# nlostrack-histogram v1\n"
            b"# bin_width_s=4e-12\n"
            b"# t0_offset_s=-1.3342563807926082e-08\n"
            b"# pixel=2\n"
            b"# acq_time_s=1.0\n"
            b"bin_index,counts\n"
            b"0,0\n1,3\n2,1\n3,0\n4,7\n"
        )

    @pytest.mark.parametrize("normalized, values, rows", [
        (False, [[0.0, 1.5], [2.25, 1e-300]],
         b"-0.05,0.55,0.0\n0.05000000000000002,0.55,1.5\n"
         b"-0.05,0.65,2.25\n0.05000000000000002,0.65,1e-300\n"),
        (True, [[10.0, 20.0], [30.0, 40.0]],
         b"-0.05,0.55,10.0\n0.05000000000000002,0.55,20.0\n"
         b"-0.05,0.65,30.0\n0.05000000000000002,0.65,40.0\n"),
    ])
    def test_map(self, tmp_path, normalized, values, rows):
        grid = GridSpec(-0.1, 0.1, 0.5, 0.7, 0.1, 1.0)
        path = tmp_path / "m.csv"
        sceneio.write_map_csv(path, ProbabilityMap(grid, np.array(values), normalized))
        assert path.read_bytes() == (
            b"# nlostrack-map v1\n"
            b"# x_min=-0.1\n# x_max=0.1\n# y_min=0.5\n# y_max=0.7\n"
            b"# resolution=0.1\n# z_plane=1.0\n"
            + (b"# normalized=true\n" if normalized else b"# normalized=false\n")
            + b"x,y,value\n" + rows
        )

    def test_sweep(self, tmp_path):
        rows = (
            SweepRow(0.1, 0, 1.0, 0.8, 0.001, 0.25, 0.119, 0.263, 0.05, 0.07,
                     0.002, 0.003, 10, 1, True),
            SweepRow(2.5, 1, -0.5, 2.0, *[math.nan] * 8, 10, 10, False),
        )
        path = tmp_path / "sweep.csv"
        sceneio.write_sweep_csv(path, SweepResult(rows))
        assert path.read_bytes() == (
            b"# nlostrack-sweep v1\n"
            b"baseline_m,object_index,truth_x,truth_y,error_x,error_y,"
            b"sigma_x,sigma_y,pdf_sigma_x,pdf_sigma_y,pdf_sigma_x_se,pdf_sigma_y_se,"
            b"n_trials,n_failed,valid\n"
            b"0.1,0,1.0,0.8,0.001,0.25,0.119,0.263,0.05,0.07,0.002,0.003,10,1,true\n"
            b"2.5,1,-0.5,2.0,nan,nan,nan,nan,nan,nan,nan,nan,10,10,false\n"
        )


class TestManifest:
    def test_incomplete_then_complete(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc()))
        manifest = tmp_path / "out" / "manifest.json"
        with sceneio.run_manifest(manifest.parent, scene, AcquisitionParams(), ["a.csv"]):
            doc = json.loads(manifest.read_text())
            assert doc["status"] == "incomplete"
            assert doc["scene_sha256"] == sceneio.sha256_of(scene)
        assert json.loads(manifest.read_text())["status"] == "complete"

    def test_version_is_the_packages(self, tmp_path):
        (version,) = re.findall(r'^version = "(.+)"$', (ROOT / "pyproject.toml").read_text(),
                                re.M)
        with sceneio.run_manifest(tmp_path, None, AcquisitionParams(), []):
            pass
        written = json.loads((tmp_path / "manifest.json").read_text())["version"]
        assert written == nlostrack.__version__ == version == "0.1.0"

    def test_digest_is_of_the_scene_as_the_run_started(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(scene_doc()))
        digest = sceneio.sha256_of(scene)
        with sceneio.run_manifest(tmp_path / "out", scene, AcquisitionParams(), []):
            scene.write_text(json.dumps(dict(scene_doc(), standoff_m=3.0)))
        doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert doc["status"] == "complete"
        assert doc["scene_sha256"] == digest != sceneio.sha256_of(scene)
