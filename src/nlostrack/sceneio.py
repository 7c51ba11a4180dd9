"""File formats: scene JSON, histogram/map/sweep CSV, track JSON, run manifest.

The only module that touches the filesystem. Every CSV has one layout: a
versioned ``# <format>`` line, ``# key=value`` header lines, the column line,
then comma-separated rows with '.' decimals (Python float repr) and
``true``/``false`` booleans. The reader checks the format and column lines.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import functools
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .acquisition import AcquisitionParams, TransientHistogram
from .geometry import HiddenObject, Point3, Scene
from .localization import GridSpec, ProbabilityMap
from .studies import ScenarioResult, SweepConfig, SweepResult, SweepRow

HISTOGRAM_FORMAT = "nlostrack-histogram v1"
MAP_FORMAT = "nlostrack-map v1"
SWEEP_FORMAT = "nlostrack-sweep v1"
TOOL_VERSION = "0.1.0"


class SceneFormatError(ValueError):
    """The scene/config document is malformed; the message names the field."""


def _require_keys(doc: dict, allowed: set[str], required: set[str], what: str):
    if not isinstance(doc, dict):
        raise SceneFormatError(f"{what} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise SceneFormatError(f"{what}: unknown field(s) {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise SceneFormatError(f"{what}: missing required field(s) {sorted(missing)}")


@contextlib.contextmanager
def _format_errors(what: str = ""):
    """Re-raise a TypeError or ValueError of the body as SceneFormatError."""
    try:
        yield
    except SceneFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(f"{what}: {exc}" if what else str(exc)) from exc


def _point(raw, what: str) -> Point3:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 3):
        raise SceneFormatError(f"{what} must be a [x, y, z] triple")
    with _format_errors(what):
        return Point3(*[float(v) for v in raw])


def _integer(raw, what: str) -> int:
    """A count: an int, or a float with no fractional part; never a bool."""
    if not (type(raw) is int or type(raw) is float and raw.is_integer()):
        raise SceneFormatError(f"{what} must be an integer, got {raw!r}")
    return int(raw)


def _hidden_object(raw, what: str) -> HiddenObject:
    _require_keys(raw, {"position", "reflectivity", "label"}, {"position"}, what)
    position = _point(raw["position"], f"{what}.position")
    with _format_errors(f"{what}.reflectivity"):
        reflectivity = float(raw.get("reflectivity", 1.0))
    with _format_errors(what):
        return HiddenObject(position, reflectivity, str(raw.get("label", "")))


_SCENE_KEYS = {
    "laser_spot", "pixels", "objects", "background_scatterers",
    "scatter_height_z", "wall_normal", "standoff_m", "acquisition", "grid",
}
_ACQ_KEYS = {f.name for f in dataclasses.fields(AcquisitionParams)}
_GRID_KEYS = {f.name for f in dataclasses.fields(GridSpec)}


def _acquisition(doc: dict, what: str) -> AcquisitionParams:
    """The optional ``acquisition`` section of a scene or sweep document."""
    raw = doc.get("acquisition", {})
    _require_keys(raw, _ACQ_KEYS, set(), f"{what}.acquisition")
    return AcquisitionParams(**raw)


def _grid(doc: dict, what: str, **fixed) -> GridSpec:
    """The ``grid`` section; fields in ``fixed`` come from elsewhere and may not appear."""
    raw = doc["grid"]
    _require_keys(raw, _GRID_KEYS - fixed.keys(), {"x_min", "x_max", "y_min", "y_max"},
                  f"{what}.grid")
    return GridSpec(**raw, **fixed)


def scene_from_dict(doc: dict) -> tuple[Scene, AcquisitionParams, GridSpec]:
    """Parse a scene document; unknown fields are rejected to catch typos."""
    _require_keys(doc, _SCENE_KEYS, {"laser_spot", "pixels", "scatter_height_z", "grid"}, "scene")
    with _format_errors("scene.scatter_height_z"):
        z_plane = float(doc["scatter_height_z"])
        if not math.isfinite(z_plane):
            raise ValueError(f"must be finite, got {z_plane!r}")
    with _format_errors():
        params = _acquisition(doc, "scene")
        grid = _grid(doc, "scene", z_plane=z_plane)
        scene = Scene(
            laser_spot=_point(doc["laser_spot"], "scene.laser_spot"),
            pixels=tuple(_point(p, f"scene.pixels[{i}]") for i, p in enumerate(doc["pixels"])),
            objects=tuple(
                _hidden_object(o, f"scene.objects[{i}]")
                for i, o in enumerate(doc.get("objects", []))
            ),
            background_scatterers=tuple(
                _hidden_object(o, f"scene.background_scatterers[{i}]")
                for i, o in enumerate(doc.get("background_scatterers", []))
            ),
            wall_normal=tuple(float(v) for v in doc.get("wall_normal", (0.0, 1.0, 0.0))),
            standoff_m=float(doc.get("standoff_m", 2.0)),
        )
    return scene, params, grid


def scene_to_dict(scene: Scene, params: AcquisitionParams, grid: GridSpec) -> dict:
    def obj_dict(o: HiddenObject) -> dict:
        return {
            "position": list(o.position.as_tuple()),
            "reflectivity": o.reflectivity,
            "label": o.label,
        }

    return {
        "laser_spot": list(scene.laser_spot.as_tuple()),
        "pixels": [list(p.as_tuple()) for p in scene.pixels],
        "objects": [obj_dict(o) for o in scene.objects],
        "background_scatterers": [obj_dict(o) for o in scene.background_scatterers],
        "scatter_height_z": grid.z_plane,
        "wall_normal": list(scene.wall_normal),
        "standoff_m": scene.standoff_m,
        "acquisition": dataclasses.asdict(params),
        "grid": {k: v for k, v in dataclasses.asdict(grid).items() if k != "z_plane"},
    }


def _write_json(path, doc: dict):
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _load_json_object(path, what: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SceneFormatError(f"{path}: {what} must be a JSON object")
    return doc


def load_scene(path) -> tuple[Scene, AcquisitionParams, GridSpec]:
    return scene_from_dict(_load_json_object(path, "scene document"))


def save_scene(path, scene: Scene, params: AcquisitionParams, grid: GridSpec):
    _write_json(path, scene_to_dict(scene, params, grid))


_SWEEP_KEYS = {
    "laser_spot", "d1_position", "d2_x", "object_positions", "trials_per_point",
    "object_reflectivity", "standoff_m", "acquisition", "grid",
}


def sweep_config_from_dict(doc: dict) -> SweepConfig:
    _require_keys(
        doc, _SWEEP_KEYS,
        {"laser_spot", "d1_position", "d2_x", "object_positions", "grid"},
        "sweep",
    )
    d2 = doc["d2_x"]
    _require_keys(d2, {"min", "max", "steps"}, {"min", "max", "steps"}, "sweep.d2_x")
    with _format_errors():
        return SweepConfig(
            laser_spot=_point(doc["laser_spot"], "sweep.laser_spot"),
            d1_position=_point(doc["d1_position"], "sweep.d1_position"),
            d2_x_range=(float(d2["min"]), float(d2["max"]),
                        _integer(d2["steps"], "sweep.d2_x.steps")),
            object_positions=tuple(
                _point(p, f"sweep.object_positions[{i}]")
                for i, p in enumerate(doc["object_positions"])
            ),
            acquisition=_acquisition(doc, "sweep"),
            grid=_grid(doc, "sweep"),
            trials_per_point=_integer(doc.get("trials_per_point", 50), "sweep.trials_per_point"),
            object_reflectivity=float(doc.get("object_reflectivity", 3.0)),
            standoff_m=float(doc.get("standoff_m", 2.0)),
        )


def load_sweep_config(path) -> SweepConfig:
    return sweep_config_from_dict(_load_json_object(path, "sweep config"))


def tracks_to_dict(result: ScenarioResult) -> dict:
    """The ``tracks.json`` document; ``detections`` lists every fitted return.

    Returns come in (pixel, peak) order, pixels numbered as in the scene
    and in ``result``, each with the label of the track that fuses it or None.
    """
    fused_by = {pair: track.target_label
                for track, det in zip(result.tracks, result.detections) for pair in det}
    return {
        "status": result.status,
        "tracks": [
            {"label": t.target_label, "x": t.position[0], "y": t.position[1],
             "sigma_x": t.sigma_x, "sigma_y": t.sigma_y, "peak_value": t.peak_value}
            for t in result.tracks
        ],
        "detections": [
            {"pixel": i, "peak": j, "t_s": p.t_s, "sigma_s": p.sigma_s,
             "amplitude": p.amplitude, "track": fused_by.get((i, j))}
            for i, peaks in enumerate(result.peaks_per_pixel) for j, p in enumerate(peaks)
        ],
        "diagnostics": list(result.notes),
    }


def write_tracks_json(path, result: ScenarioResult):
    _write_json(path, tracks_to_dict(result))


# ---------------------------------------------------------------------------
# CSV tables: histogram, probability map, sweep
# ---------------------------------------------------------------------------


def _text(value) -> str:
    """A header value or cell: ``true``/``false`` for a bool, else ``str`` (float repr)."""
    return ("true" if value else "false") if isinstance(value, bool) else str(value)


def _write_table(path, fmt: str, meta: dict, columns, data: str):
    """Write the CSV layout; ``data`` is the data lines, each ending in a newline."""
    header = [f"# {fmt}", *(f"# {key}={_text(value)}" for key, value in meta.items())]
    Path(path).write_text("\n".join([*header, ",".join(columns)]) + "\n" + data)


def _read_table(path, fmt: str, columns) -> tuple[dict[str, str], list[str]]:
    """Check the format and column lines; return the header values and the data lines.

    Blank lines are skipped and lines stripped only up to the column line; the
    data lines are returned as read, for ``np.loadtxt`` to parse.
    """
    lines = Path(path).read_text().splitlines()
    head, rows = [], []
    for i, line in enumerate(map(str.strip, lines)):
        if line:
            head.append(line)
            if not line.startswith("#"):
                rows = lines[i + 1:]
                break
    end = next((i for i, line in enumerate(head) if not line.startswith("#")), len(head))
    for at, expected in ((0, f"# {fmt}"), (end, ",".join(columns))):
        found = head[at] if at < len(head) else None
        if found != expected:
            raise ValueError(f"{path}: missing header line {expected!r}, found {found!r}")
    pairs = (line[1:].partition("=") for line in head[1:end])
    return {key.strip(): value.strip() for key, _, value in pairs}, rows


_HISTOGRAM_COLUMNS = ("bin_index", "counts")


@functools.lru_cache(maxsize=1)
def _rows_template(num_bins: int) -> str:
    """The data lines of a ``num_bins`` histogram, with a ``%d`` for each count."""
    return "".join(f"{i},%d\n" for i in range(num_bins))


def write_histogram_csv(path, hist: TransientHistogram):
    meta = {"bin_width_s": hist.bin_width_s, "t0_offset_s": hist.t0_offset_s,
            "pixel": hist.pixel_index, "acq_time_s": hist.acq_time_s}
    data = _rows_template(hist.counts.size) % tuple(hist.counts.tolist())
    _write_table(path, HISTOGRAM_FORMAT, meta, _HISTOGRAM_COLUMNS, data)


def read_histogram_csv(path) -> TransientHistogram:
    meta, rows = _read_table(path, HISTOGRAM_FORMAT, _HISTOGRAM_COLUMNS)
    # np.loadtxt skips empty lines but refuses ones holding only whitespace;
    # the reader accepts both as blank.
    rows = list(itertools.filterfalse(str.isspace, rows))
    if not any(rows):
        raise ValueError(f"{path}: no histogram rows")
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1,
                           dtype=[(name, np.int64) for name in _HISTOGRAM_COLUMNS])
        if not np.array_equal(table["bin_index"], np.arange(table.size)):
            raise ValueError("non-contiguous bin indices")
        return TransientHistogram(
            counts=table["counts"], bin_width_s=float(meta["bin_width_s"]),
            t0_offset_s=float(meta["t0_offset_s"]), pixel_index=int(meta["pixel"]),
            acq_time_s=float(meta.get("acq_time_s", 1.0)),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing header line for {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@functools.lru_cache(maxsize=1)
def _cells_template(grid: GridSpec) -> tuple[str, ...]:
    """The data lines of a map on ``grid``, one template per row of cells.

    Each cell's line holds its centre and a ``%r`` for its value; ``%r`` of a
    Python float is its ``str``, the shortest round-trip repr.
    """
    xs = [f"{x}," for x in grid.x_centers().tolist()]
    return tuple("".join(f"{x}{y},%r\n" for x in xs) for y in grid.y_centers().tolist())


def write_map_csv(path, pmap: ProbabilityMap):
    # Formatting row by row and joining once sizes the text in one allocation;
    # one % over the whole map grows its buffer step by step, which raised
    # the peak RSS of a long run of map writes.
    rows = zip(_cells_template(pmap.grid), pmap.values.tolist())
    data = "".join(template % tuple(values) for template, values in rows)
    meta = {**dataclasses.asdict(pmap.grid), "normalized": pmap.normalized}
    _write_table(path, MAP_FORMAT, meta, ("x", "y", "value"), data)


_SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


def write_sweep_csv(path, result: SweepResult):
    data = "".join(",".join(map(_text, dataclasses.astuple(r))) + "\n" for r in result.rows)
    _write_table(path, SWEEP_FORMAT, {}, _SWEEP_COLUMNS, data)


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(path, scene_file, scene_sha256, params: dict, master_seed: int,
                   outputs: list[str], status: str = "incomplete", **settings):
    """Write the run manifest; ``run_manifest`` brackets a run with two calls."""
    doc = {
        "tool": "nlostrack",
        "version": TOOL_VERSION,
        "scene_file": str(scene_file) if scene_file else None,
        "scene_sha256": scene_sha256,
        "params": params,
        **settings,
        "master_seed": master_seed,
        "status": status,
        "written_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": list(outputs),
    }
    _write_json(path, doc)


@contextlib.contextmanager
def run_manifest(out_dir, source_file, params: AcquisitionParams, outputs: list[str], **settings):
    """Create ``out_dir`` and bracket the body with its manifest.

    The manifest says ``incomplete`` while the body runs and ``complete``
    only once it finishes, so an interrupted or failed run stays visible.
    Both carry the digest of ``source_file`` as it was when the run started,
    and the command's own ``settings`` after ``params``.
    """
    path = Path(out_dir) / "manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = sha256_of(source_file) if source_file else None
    args = (path, source_file, digest, dataclasses.asdict(params), params.rng_seed, outputs)
    write_manifest(*args, **settings)
    yield
    write_manifest(*args, status="complete", **settings)
