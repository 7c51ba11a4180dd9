"""File formats: scene JSON, histogram/map/sweep CSV, track JSON, run manifest.

Every file is read and written here; the CLI only checks that a histogram
file it expects exists, to name it. Scene and sweep documents are
read field by field as the dataclasses they build annotate them (``_value``
lists the JSON kinds), and every refusal names the field's path in the
document, such as ``scene.objects[0].reflectivity``. Every CSV has one layout: a
versioned ``# <format>`` line, ``# key=value`` header lines, the column line,
then comma-separated rows with '.' decimals (Python float repr) and
``true``/``false`` booleans. The reader checks the format and column lines and
refuses a file missing a header line it reads. Histogram and map data rows are
built, and histogram rows parsed, with whole-array operations or one ``%`` per
row, not with Python work per bin or cell.
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
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .acquisition import AcquisitionParams, TransientHistogram
from .geometry import Point3, Scene
from .localization import GridSpec, ProbabilityMap
from .studies import ScenarioResult, SweepConfig, SweepResult, SweepRow

HISTOGRAM_FORMAT = "nlostrack-histogram v1"
MAP_FORMAT = "nlostrack-map v1"
SWEEP_FORMAT = "nlostrack-sweep v1"


class SceneFormatError(ValueError):
    """The scene/config document is malformed; the message names the field."""


def _require_keys(doc, what: str, required, allowed=None):
    """Check ``doc`` is a JSON object holding ``required`` and, if given, only ``allowed``."""
    if not isinstance(doc, dict):
        raise SceneFormatError(f"{what} must be a JSON object, got {doc!r}")
    unknown = doc.keys() - allowed if allowed is not None else ()
    if unknown:
        raise SceneFormatError(f"{what}: unknown field(s) {sorted(unknown)}")
    missing = required - doc.keys()
    if missing:
        raise SceneFormatError(f"{what}: missing required field(s) {sorted(missing)}")


def _build(cls, what: str, *args, **kwargs):
    """``cls(*args, **kwargs)``; a check of ``cls`` that fails is reported under ``what``.

    An OverflowError is a JSON integer too large for a float.
    """
    try:
        return cls(*args, **kwargs)
    except (OverflowError, ValueError) as exc:
        raise SceneFormatError(f"{what}: {exc}") from exc


@functools.cache
def _schema(cls) -> tuple[dict, frozenset]:
    """Each field's annotated kind, and the fields without a default, of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = frozenset(f.name for f in fields if f.default is dataclasses.MISSING
                         and f.default_factory is dataclasses.MISSING)
    return {f.name: hints[f.name] for f in fields}, required


def _value(kind, raw, what: str):
    """Read the JSON value ``raw`` as a field annotated ``kind``; a refusal names ``what``.

    A ``float`` is any JSON number, kept as given; an ``int`` a whole number
    (``42.0`` reads as ``42``); neither is ever a bool. A ``Point3`` is an
    ``[x, y, z]`` list, a dataclass a JSON object, and a tuple a list.
    """
    if kind is float:
        if type(raw) is float or type(raw) is int:
            return raw
        raise SceneFormatError(f"{what} must be a number, got {raw!r}")
    if kind is int:
        if type(raw) is int or type(raw) is float and raw.is_integer():
            return int(raw)
        raise SceneFormatError(f"{what} must be an integer, got {raw!r}")
    if kind is bool or kind is str:
        if type(raw) is kind:
            return raw
        expected = "true or false" if kind is bool else "a string"
        raise SceneFormatError(f"{what} must be {expected}, got {raw!r}")
    if kind is Point3:
        if not (isinstance(raw, (list, tuple)) and len(raw) == 3):
            raise SceneFormatError(f"{what} must be a [x, y, z] triple, got {raw!r}")
        return _build(Point3, what, *[_value(float, v, f"{what}[{i}]") for i, v in enumerate(raw)])
    if dataclasses.is_dataclass(kind):
        return _record(kind, raw, what)
    # The remaining kinds are tuples: tuple[X, ...] of any length, or tuple[X, Y, Z].
    if not isinstance(raw, (list, tuple)):
        raise SceneFormatError(f"{what} must be a list, got {raw!r}")
    kinds = typing.get_args(kind)
    if kinds[1:] == (...,):
        kinds = kinds[:1] * len(raw)
    if len(kinds) != len(raw):
        raise SceneFormatError(f"{what} must be a list of {len(kinds)} items, got {raw!r}")
    return tuple(_value(k, v, f"{what}[{i}]") for i, (k, v) in enumerate(zip(kinds, raw)))


def _record(cls, raw, what: str, **fixed):
    """Build the dataclass ``cls`` from the JSON object ``raw``, each field read as annotated.

    Fields without a default are required; fields in ``fixed`` come from
    elsewhere in the document and may not appear in ``raw``.
    """
    kinds, required = _schema(cls)
    _require_keys(raw, what, required - fixed.keys(), kinds.keys() - fixed.keys())
    values = {name: _value(kinds[name], v, f"{what}.{name}") for name, v in raw.items()}
    return _build(cls, what, **values, **fixed)


def scene_from_dict(doc: dict) -> tuple[Scene, AcquisitionParams, GridSpec]:
    """Parse a scene document: the fields of ``Scene``, ``scatter_height_z`` (the grid's
    ``z_plane``), the ``grid`` without it and an optional ``acquisition``."""
    _require_keys(doc, "scene", {"scatter_height_z", "grid"})
    doc = dict(doc)
    what = "scene.scatter_height_z"
    z_plane = _build(float, what, _value(float, doc.pop("scatter_height_z"), what))
    if not math.isfinite(z_plane):
        raise SceneFormatError(f"{what}: must be finite, got {z_plane!r}")
    params = _record(AcquisitionParams, doc.pop("acquisition", {}), "scene.acquisition")
    grid = _record(GridSpec, doc.pop("grid"), "scene.grid", z_plane=z_plane)
    return _record(Scene, doc, "scene"), params, grid


def _write_json(path, doc: dict):
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"{path}: not valid JSON ({exc})") from exc


def load_scene(path) -> tuple[Scene, AcquisitionParams, GridSpec]:
    return scene_from_dict(_load_json(path))


def sweep_config_from_dict(doc: dict) -> SweepConfig:
    """Parse a sweep document: the fields of ``SweepConfig``, with ``d2_x`` as
    ``{min, max, steps}`` for ``d2_x_range`` and ``acquisition`` optional."""
    _require_keys(doc, "sweep", {"d2_x"})
    doc = {"acquisition": {}, **doc}
    d2, keys = doc.pop("d2_x"), ("min", "max", "steps")
    _require_keys(d2, "sweep.d2_x", set(keys), set(keys))
    kinds = typing.get_args(_schema(SweepConfig)[0]["d2_x_range"])
    d2_x_range = tuple(_value(k, d2[key], f"sweep.d2_x.{key}") for key, k in zip(keys, kinds))
    return _record(SweepConfig, doc, "sweep", d2_x_range=d2_x_range)


def load_sweep_config(path) -> SweepConfig:
    return sweep_config_from_dict(_load_json(path))


def tracks_to_dict(result: ScenarioResult) -> dict:
    """The ``tracks.json`` document; ``detections`` lists every fitted return.

    Returns come in (pixel, peak) order, pixels numbered as in the scene
    and in ``result``, each with the label of the track that fuses it or None.
    """
    fused_by = {pair: t.target_label for t in result.tracks for pair in t.detections}
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


def _write_table(path, fmt: str, meta: dict, columns, data: bytes):
    """Write the CSV layout; ``data`` is the data lines, each ending in a newline."""
    header = [f"# {fmt}", *(f"# {key}={_text(value)}" for key, value in meta.items())]
    with open(path, "wb") as f:
        f.write(("\n".join([*header, ",".join(columns)]) + "\n").encode())
        f.write(data)


def _split_head(text: str) -> tuple[list[str], list[str]]:
    """The stripped non-blank lines up to and including the first not starting
    with '#', and the lines after that one, as read."""
    lines = text.splitlines()
    head = []
    for i, line in enumerate(map(str.strip, lines)):
        if line:
            head.append(line)
            if not line.startswith("#"):
                return head, lines[i + 1:]
    return head, []


def _read_table(path, fmt: str, columns) -> tuple[dict[str, str], bytes | list[str]]:
    """Check the format and column lines; return the header values and the data.

    Blank lines are skipped and lines stripped only up to the column line. In
    an ASCII file whose column line is exactly the expected one between two
    '\n', only the lines before it are split, and the data comes back as the
    bytes after it. Any other file is split whole, and the data comes back as
    its lines, as read, for ``np.loadtxt`` to parse.
    """
    raw = Path(path).read_bytes()
    column_line = f"\n{','.join(columns)}\n".encode()
    cut = raw.find(column_line) + len(column_line)
    head, rows = _split_head(raw[:cut].decode() if cut >= len(column_line) and raw.isascii()
                             else "")
    # No line after the first one not starting with '#': that line is the column line found.
    if head and not rows:
        rows = raw[cut:]
    else:
        head, rows = _split_head(Path(path).read_text())
    end = next((i for i, line in enumerate(head) if not line.startswith("#")), len(head))
    for at, expected in ((0, f"# {fmt}"), (end, ",".join(columns))):
        found = head[at] if at < len(head) else None
        if found != expected:
            raise ValueError(f"{path}: missing header line {expected!r}, found {found!r}")
    pairs = (line[1:].partition("=") for line in head[1:end])
    return {key.strip(): value.strip() for key, _, value in pairs}, rows


_HISTOGRAM_COLUMNS = ("bin_index", "counts")
# 10**k at index k: 10**18 bounds an 18-digit number, the most an int64 always holds.
_TENS = 10 ** np.arange(19, dtype=np.int64)
_NEWLINE, _COMMA, _ZERO = b"\n,0"  # as byte values


@functools.lru_cache(maxsize=1)
def _zero_rows(num_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """The data lines of an all-zero ``num_bins`` histogram as read-only bytes,
    and the index of each line's count digit."""
    rows = np.frombuffer("".join(f"{i},0\n" for i in range(num_bins)).encode(), np.uint8)
    return rows, np.flatnonzero(rows == _NEWLINE) - 1


def write_histogram_csv(path, hist: TransientHistogram):
    """Write ``hist``; its data rows are the cached zero rows with the counts' digits set."""
    meta = {"bin_width_s": hist.bin_width_s, "t0_offset_s": hist.t0_offset_s,
            "pixel": hist.pixel_index, "acq_time_s": hist.acq_time_s}
    zero_rows, at = _zero_rows(hist.counts.size)
    rows = zero_rows.copy()
    rows[at] += (hist.counts % 10).astype(np.uint8)
    lead = hist.counts // 10
    big = np.flatnonzero(lead)
    if big.size:
        # A count >= 10 gets the digits of count // 10 put in before its last digit.
        lead = lead[big]
        width = np.searchsorted(_TENS, lead, side="right")
        # Each digit's power of ten, most significant first.
        place = np.repeat(np.cumsum(width), width) - np.arange(width.sum()) - 1
        digits = np.repeat(lead, width) // _TENS[place] % 10
        rows = np.insert(rows, np.repeat(at[big], width), digits.astype(np.uint8) + _ZERO)
    _write_table(path, HISTOGRAM_FORMAT, meta, _HISTOGRAM_COLUMNS, rows.tobytes())


def _canonical_columns(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The two columns of ``data`` if it is the writer's rows, else None.

    The writer's rows are ``<digits>,<digits>\\n``, each field of 1 to 18
    digits, the last row ending in its newline. Each column is parsed one
    digit place at a time, over all its fields at once.
    """
    b = np.frombuffer(data, np.uint8)
    if b.size == 0 or b[-1] != _NEWLINE or b.max() > _ZERO + 9:
        return None
    ends = np.flatnonzero(b < _ZERO)  # the comma or newline after each field
    if ends.size % 2 or np.any(b[ends[0::2]] != _COMMA) or np.any(b[ends[1::2]] != _NEWLINE):
        return None
    widths = np.diff(ends, prepend=-1) - 1
    if widths.min() < 1 or widths.max() > 18:
        return None
    digits, columns = b - np.uint8(_ZERO), []
    for end, width in zip(ends.reshape(-1, 2).T, widths.reshape(-1, 2).T):
        values = digits[end - 1].astype(np.int64)
        for place in range(1, width.max()):
            values += np.where(width > place, digits[end - 1 - place], 0) * _TENS[place]
        columns.append(values)
    return tuple(columns)


def read_histogram_csv(path) -> TransientHistogram:
    """Read a histogram file. Rows as the writer writes them are parsed in one
    pass and any others by ``np.loadtxt``; both give the same histogram or the
    same refusal, which names the file."""
    meta, rows = _read_table(path, HISTOGRAM_FORMAT, _HISTOGRAM_COLUMNS)
    try:
        if isinstance(rows, bytes):
            index, counts = _canonical_columns(rows) or _loose_columns(rows.decode().splitlines())
        else:
            index, counts = _loose_columns(rows)
        if not np.array_equal(index, np.arange(index.size)):
            raise ValueError("non-contiguous bin indices")
        return TransientHistogram(
            counts=counts, bin_width_s=float(meta["bin_width_s"]),
            t0_offset_s=float(meta["t0_offset_s"]), pixel_index=int(meta["pixel"]),
            acq_time_s=float(meta["acq_time_s"]),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing header line for {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _loose_columns(rows: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of any data lines ``np.loadtxt`` reads as whole numbers."""
    # np.loadtxt skips empty lines but refuses ones holding only whitespace;
    # the reader accepts both as blank.
    rows = list(itertools.filterfalse(str.isspace, rows))
    if not any(rows):
        raise ValueError("no histogram rows")
    table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1,
                       dtype=[(name, np.int64) for name in _HISTOGRAM_COLUMNS])
    return table["bin_index"], table["counts"]


def write_map_csv(path, pmap: ProbabilityMap):
    """Write ``pmap``, one ``x,y,value`` line per cell, the value by its
    shortest round-trip repr.

    One template per write holds a row's lines, with a NUL for the row's y
    and a ``%r`` for each value.
    """
    template = "".join([f"{x},\0,%r\n" for x in pmap.grid.x_centers().tolist()])
    rows = zip(map(str, pmap.grid.y_centers().tolist()), pmap.values.tolist())
    data = "".join([template.replace("\0", y) % tuple(values) for y, values in rows])
    meta = {**dataclasses.asdict(pmap.grid), "normalized": pmap.normalized}
    _write_table(path, MAP_FORMAT, meta, ("x", "y", "value"), data.encode())


_SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))


def write_sweep_csv(path, result: SweepResult):
    data = "".join(",".join(map(_text, dataclasses.astuple(r))) + "\n" for r in result.rows)
    _write_table(path, SWEEP_FORMAT, {}, _SWEEP_COLUMNS, data.encode())


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
        "version": __version__,
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
