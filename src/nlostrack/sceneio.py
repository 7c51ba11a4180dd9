"""File formats: scene JSON, histogram/map/sweep CSV, track JSON, run manifest.

The only module that touches the filesystem. All CSVs use '.' decimals
regardless of locale (Python float repr) and carry a versioned header.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import hashlib
import json
from pathlib import Path

import numpy as np

from .acquisition import AcquisitionParams, TransientHistogram
from .geometry import HiddenObject, Point3, Scene
from .localization import GridSpec, ProbabilityMap, TrackEstimate
from .studies import SweepConfig, SweepResult

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


def _point(raw, what: str) -> Point3:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 3):
        raise SceneFormatError(f"{what} must be a [x, y, z] triple")
    try:
        return Point3(*[float(v) for v in raw])
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(f"{what}: {exc}") from exc


def _hidden_object(raw, what: str) -> HiddenObject:
    _require_keys(raw, {"position", "reflectivity", "label"}, {"position"}, what)
    try:
        return HiddenObject(
            position=_point(raw["position"], f"{what}.position"),
            reflectivity=float(raw.get("reflectivity", 1.0)),
            label=str(raw.get("label", "")),
        )
    except ValueError as exc:
        raise SceneFormatError(f"{what}: {exc}") from exc


_SCENE_KEYS = {
    "laser_spot", "pixels", "objects", "background_scatterers",
    "scatter_height_z", "wall_normal", "standoff_m", "acquisition", "grid",
}
_ACQ_KEYS = {f.name for f in dataclasses.fields(AcquisitionParams)}
_GRID_KEYS = {"x_min", "x_max", "y_min", "y_max", "resolution"}


def scene_from_dict(doc: dict) -> tuple[Scene, AcquisitionParams, GridSpec]:
    """Parse a scene document; unknown fields are rejected to catch typos."""
    _require_keys(doc, _SCENE_KEYS, {"laser_spot", "pixels", "scatter_height_z", "grid"}, "scene")
    acq_doc = doc.get("acquisition", {})
    _require_keys(acq_doc, _ACQ_KEYS, set(), "scene.acquisition")
    grid_doc = doc["grid"]
    _require_keys(grid_doc, _GRID_KEYS, {"x_min", "x_max", "y_min", "y_max"}, "scene.grid")
    try:
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
            scatter_height_z=float(doc["scatter_height_z"]),
            wall_normal=tuple(float(v) for v in doc.get("wall_normal", (0.0, 1.0, 0.0))),
            standoff_m=float(doc.get("standoff_m", 2.0)),
        )
        params = AcquisitionParams(**acq_doc)
        grid = GridSpec(z_plane=scene.scatter_height_z, **grid_doc)
    except SceneFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(str(exc)) from exc
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
        "scatter_height_z": scene.scatter_height_z,
        "wall_normal": list(scene.wall_normal),
        "standoff_m": scene.standoff_m,
        "acquisition": dataclasses.asdict(params),
        "grid": {
            "x_min": grid.x_min, "x_max": grid.x_max,
            "y_min": grid.y_min, "y_max": grid.y_max,
            "resolution": grid.resolution,
        },
    }


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
    Path(path).write_text(json.dumps(scene_to_dict(scene, params, grid), indent=2) + "\n")


_SWEEP_KEYS = {
    "laser_spot", "d1_position", "d2_x", "object_positions", "trials_per_point",
    "object_reflectivity", "standoff_m", "acquisition", "grid",
}
_SWEEP_GRID_KEYS = _GRID_KEYS | {"z_plane"}


def sweep_config_from_dict(doc: dict) -> SweepConfig:
    _require_keys(
        doc, _SWEEP_KEYS,
        {"laser_spot", "d1_position", "d2_x", "object_positions", "grid"},
        "sweep",
    )
    d2 = doc["d2_x"]
    _require_keys(d2, {"min", "max", "steps"}, {"min", "max", "steps"}, "sweep.d2_x")
    acq_doc = doc.get("acquisition", {})
    _require_keys(acq_doc, _ACQ_KEYS, set(), "sweep.acquisition")
    grid_doc = doc["grid"]
    _require_keys(grid_doc, _SWEEP_GRID_KEYS, {"x_min", "x_max", "y_min", "y_max"}, "sweep.grid")
    try:
        return SweepConfig(
            laser_spot=_point(doc["laser_spot"], "sweep.laser_spot"),
            d1_position=_point(doc["d1_position"], "sweep.d1_position"),
            d2_x_range=(float(d2["min"]), float(d2["max"]), int(d2["steps"])),
            object_positions=tuple(
                _point(p, f"sweep.object_positions[{i}]")
                for i, p in enumerate(doc["object_positions"])
            ),
            acquisition=AcquisitionParams(**acq_doc),
            grid=GridSpec(**grid_doc),
            trials_per_point=int(doc.get("trials_per_point", 50)),
            object_reflectivity=float(doc.get("object_reflectivity", 3.0)),
            standoff_m=float(doc.get("standoff_m", 2.0)),
        )
    except SceneFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise SceneFormatError(str(exc)) from exc


def load_sweep_config(path) -> SweepConfig:
    return sweep_config_from_dict(_load_json_object(path, "sweep config"))


# ---------------------------------------------------------------------------
# Histogram CSV
# ---------------------------------------------------------------------------


def write_histogram_csv(path, hist: TransientHistogram):
    lines = [
        f"# {HISTOGRAM_FORMAT}",
        f"# bin_width_s={hist.bin_width_s!r}",
        f"# t0_offset_s={hist.t0_offset_s!r}",
        f"# pixel={hist.pixel_index}",
        f"# acq_time_s={hist.acq_time_s!r}",
        "bin_index,counts",
    ]
    lines += [f"{i},{c}" for i, c in enumerate(hist.counts)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_histogram_csv(path) -> TransientHistogram:
    meta = {}
    counts = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, val = body.split("=", 1)
                meta[key.strip()] = val.strip()
            continue
        if line.startswith("bin_index"):
            continue
        idx, val = line.split(",")
        counts.append(int(val))
        if int(idx) != len(counts) - 1:
            raise ValueError(f"{path}: non-contiguous bin indices")
    if not counts:
        raise ValueError(f"{path}: no histogram rows")
    try:
        return TransientHistogram(
            counts=np.array(counts, dtype=np.int64),
            bin_width_s=float(meta["bin_width_s"]),
            t0_offset_s=float(meta["t0_offset_s"]),
            pixel_index=int(meta["pixel"]),
            acq_time_s=float(meta.get("acq_time_s", 1.0)),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing header line for {exc}") from exc


# ---------------------------------------------------------------------------
# Probability-map CSV, track JSON, sweep CSV
# ---------------------------------------------------------------------------


def write_map_csv(path, pmap: ProbabilityMap):
    g = pmap.grid
    lines = [
        f"# {MAP_FORMAT}",
        f"# x_min={g.x_min!r}",
        f"# x_max={g.x_max!r}",
        f"# y_min={g.y_min!r}",
        f"# y_max={g.y_max!r}",
        f"# resolution={g.resolution!r}",
        f"# z_plane={g.z_plane!r}",
        f"# normalized={'true' if pmap.normalized else 'false'}",
        "x,y,value",
    ]
    xc, yc = g.x_centers(), g.y_centers()
    for iy in range(g.ny):
        for ix in range(g.nx):
            lines.append(f"{float(xc[ix])!r},{float(yc[iy])!r},{float(pmap.values[iy, ix])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def tracks_to_dict(tracks: list[TrackEstimate], notes: list[str], status: str) -> dict:
    return {
        "status": status,
        "tracks": [
            {
                "label": t.target_label,
                "x": t.position[0],
                "y": t.position[1],
                "sigma_x": t.sigma_x,
                "sigma_y": t.sigma_y,
                "peak_value": t.peak_value,
            }
            for t in tracks
        ],
        "diagnostics": list(notes),
    }


def write_tracks_json(path, tracks, notes, status):
    Path(path).write_text(json.dumps(tracks_to_dict(tracks, notes, status), indent=2) + "\n")


def write_sweep_csv(path, result: SweepResult):
    lines = [
        f"# {SWEEP_FORMAT}",
        "baseline_m,object_index,truth_x,truth_y,error_x,error_y,"
        "sigma_x,sigma_y,pdf_sigma_x,pdf_sigma_y,pdf_sigma_x_se,pdf_sigma_y_se,"
        "n_trials,n_failed,valid",
    ]
    for r in result.rows:
        lines.append(
            f"{r.baseline_m!r},{r.object_index},{r.truth_x!r},{r.truth_y!r},"
            f"{r.error_x!r},{r.error_y!r},{r.sigma_x!r},{r.sigma_y!r},"
            f"{r.pdf_sigma_x!r},{r.pdf_sigma_y!r},{r.pdf_sigma_x_se!r},{r.pdf_sigma_y_se!r},"
            f"{r.n_trials},{r.n_failed},{'true' if r.valid else 'false'}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(
    path,
    scene_file,
    params: dict,
    master_seed: int,
    outputs: list[str],
    status: str = "incomplete",
):
    """Write the run manifest; ``run_manifest`` brackets a run with two calls."""
    doc = {
        "tool": "nlostrack",
        "version": TOOL_VERSION,
        "scene_file": str(scene_file) if scene_file else None,
        "scene_sha256": sha256_of(scene_file) if scene_file else None,
        "params": params,
        "master_seed": master_seed,
        "status": status,
        "written_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": list(outputs),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


@contextlib.contextmanager
def run_manifest(out_dir, source_file, params: AcquisitionParams, outputs: list[str]):
    """Create ``out_dir`` and bracket the body with its manifest.

    The manifest says ``incomplete`` while the body runs and ``complete``
    only once it finishes, so an interrupted or failed run stays visible.
    """
    path = Path(out_dir) / "manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    args = (path, source_file, dataclasses.asdict(params), params.rng_seed, outputs)
    write_manifest(*args)
    yield
    write_manifest(*args, status="complete")
