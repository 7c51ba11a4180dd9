"""Spans and counters recorded from outside nlostrack.

A traced run swaps timing wrappers in, in memory, at the module attributes
the package's own callers look up (``studies.fit_peaks`` is the name
``studies._process_pixel`` resolves, ``localization.backproject`` the one
``associate_and_localize`` resolves, and so on). Nothing under ``src/`` is
edited, and untraced runs install nothing.

Each span records name, start, end, parent and op id. A span's self time is
its duration minus that of its children. Counters are computed from call
arguments and return values only, so they describe the work handed to a
layer, whatever the layer does inside.

A site whose module or attribute no longer exists is reported as ``absent``
(value ``None``), never as 0.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Value of a back-projected cell 6 sigma off the ellipse: exp(-0.5 * 6**2).
BAND_FLOOR = math.exp(-18.0)
# Half-width of the fit window a peak needs, in instrument-response sigmas.
FIT_HALF_WIDTH_SIGMAS = 8.0


# --- counting hooks: (tracer, bound arguments, return value, exception) ----


def _no_seed(params):
    return dataclasses.replace(params, rng_seed=0)


def _expected_counts(t, a, result, exc):
    scene = a["scene"]
    if not a["include_objects"]:
        # The target-free intensity does not depend on where the targets are.
        scene = dataclasses.replace(scene, objects=())
    t.count("acquisition.expected_counts_calls")
    t.repeat("acquisition.expected_counts", (
        scene, a["pixel_index"], _no_seed(a["params"]), a["include_objects"],
    ))


def _simulate(t, a, result, exc):
    if result is not None:
        t.count("acquisition.bins_drawn", result.num_bins)


def _window(t, a, result, exc):
    grid = a["grid"]
    t.count("studies.auto_time_window_calls")
    t.count("studies.window_cells", grid.nx * grid.ny)
    t.repeat("studies.window", (a["r_l"], a["r_i"], grid, _no_seed(a["params"])))


def _fit(t, a, result, exc):
    hist = a["hist"]
    n = hist.num_bins
    half = math.ceil(FIT_HALF_WIDTH_SIGMAS * a["irf_sigma_guess"] / hist.bin_width_s)
    useful, reach = 0, 0
    for lo, hi in sorted((max(0, b - half), min(n, b + half + 1)) for b, _ in a["seeds"]):
        lo = max(lo, reach)
        if hi > lo:
            useful += hi - lo
            reach = hi
    t.count("processing.fit_bins", n)
    t.count("processing.fit_useful_bins", useful)
    if result is not None:
        t.count("processing.peaks_fitted", len(result))


def _backproject(t, a, result, exc):
    grid = a["grid"]
    t.count("localization.backproject_calls")
    t.count("localization.backproject_cells", grid.nx * grid.ny)
    if result is not None:
        t.count("localization.band_cells", int((result.values >= BAND_FLOOR).sum()))


def _associate(t, a, result, exc):
    k = a["k_targets"]
    combos = 1
    for peaks in a["peaks_per_pixel"]:
        n = len(peaks)
        combos *= math.perm(n, k) if n >= k else math.perm(k, n)
    t.count("localization.assignments", combos)
    t.count("localization.ambiguous",
            int(exc is not None and type(exc).__name__ == "AmbiguousAssociationError"))


def _file_size(path) -> int:
    return Path(path).stat().st_size


def _wrote(t, a, result, exc):
    if exc is None:
        t.count("sceneio.bytes_written", _file_size(a["path"]))


def _read(t, a, result, exc):
    if exc is None:
        t.count("sceneio.bytes_read", _file_size(a["path"]))


# (module, attribute the callers look up, span name, counting hook)
SITES = [
    ("nlostrack.studies", "run_baseline_sweep", "studies.run_baseline_sweep", None),
    ("nlostrack.studies", "run_two_person", "studies.run_two_person", None),
    ("nlostrack.studies", "run_scenario", "studies.run_scenario", None),
    ("nlostrack.studies", "reconstruct_from_histograms", "studies.reconstruct", None),
    ("nlostrack.studies", "auto_time_window", "studies.auto_time_window", _window),
    ("nlostrack.studies", "simulate_histogram", "acquisition.simulate", _simulate),
    ("nlostrack.studies", "simulate_background", "acquisition.simulate", _simulate),
    ("nlostrack.studies", "crop", "processing.crop", None),
    ("nlostrack.studies", "subtract_background", "processing.subtract", None),
    ("nlostrack.studies", "detect_peaks", "processing.detect", None),
    ("nlostrack.studies", "fit_peaks", "processing.fit", _fit),
    ("nlostrack.studies", "associate_and_localize", "localization.associate", _associate),
    ("nlostrack.acquisition", "expected_counts", "acquisition.expected_counts", _expected_counts),
    ("nlostrack.localization", "backproject", "localization.backproject", _backproject),
    ("nlostrack.localization", "localize", "localization.localize", None),
    ("nlostrack.cli", "simulate_histogram", "acquisition.simulate", _simulate),
    ("nlostrack.cli", "simulate_background", "acquisition.simulate", _simulate),
    ("nlostrack.cli", "reconstruct_from_histograms", "studies.reconstruct", None),
    ("nlostrack.cli", "backproject", "localization.backproject", _backproject),
    ("nlostrack.sceneio", "write_histogram_csv", "sceneio.write_histogram", _wrote),
    ("nlostrack.sceneio", "read_histogram_csv", "sceneio.read_histogram", _read),
    ("nlostrack.sceneio", "write_map_csv", "sceneio.write_map", _wrote),
    ("nlostrack.sceneio", "write_manifest", "sceneio.manifest", _wrote),
    ("nlostrack.sceneio", "write_tracks_json", "sceneio.other", _wrote),
    ("nlostrack.sceneio", "load_scene", "sceneio.other", _read),
    ("perfbench.workloads", "invoke_cli", "cli.command", None),
]

# Per-layer time metrics: summed self time of these spans, per traced op.
TIME_METRICS = {
    "acquisition.simulate_ms": ("acquisition.simulate", "acquisition.expected_counts"),
    "studies.auto_time_window_ms": ("studies.auto_time_window",),
    "studies.self_ms": ("studies.run_baseline_sweep", "studies.run_two_person",
                        "studies.run_scenario", "studies.reconstruct"),
    "processing.crop_ms": ("processing.crop",),
    "processing.subtract_ms": ("processing.subtract",),
    "processing.detect_ms": ("processing.detect",),
    "processing.fit_ms": ("processing.fit",),
    "localization.associate_ms": ("localization.associate",),
    "localization.backproject_ms": ("localization.backproject",),
    "localization.localize_ms": ("localization.localize",),
    "sceneio.write_histogram_ms": ("sceneio.write_histogram",),
    "sceneio.read_histogram_ms": ("sceneio.read_histogram",),
    "sceneio.write_map_ms": ("sceneio.write_map",),
    "sceneio.manifest_ms": ("sceneio.manifest",),
    "sceneio.other_ms": ("sceneio.other",),
    "cli.self_ms": ("cli.command",),
}

# Per-layer counts, per traced op: counter -> (unit, span whose hook feeds it).
COUNT_METRICS = {
    "acquisition.expected_counts_calls": ("count", "acquisition.expected_counts"),
    "acquisition.bins_drawn": ("count", "acquisition.simulate"),
    "studies.auto_time_window_calls": ("count", "studies.auto_time_window"),
    "studies.window_cells": ("count", "studies.auto_time_window"),
    "processing.peaks_fitted": ("count", "processing.fit"),
    "processing.fit_bins": ("count", "processing.fit"),
    "localization.backproject_calls": ("count", "localization.backproject"),
    "localization.backproject_cells": ("count", "localization.backproject"),
    "localization.assignments": ("count", "localization.associate"),
    "localization.ambiguous": ("count", "localization.associate"),
    "sceneio.bytes_written": ("B", "sceneio.write_histogram"),
    "sceneio.bytes_read": ("B", "sceneio.read_histogram"),
}

# Ratios over the whole counted prefix: metric -> (numerator, denominator, span).
RATIO_METRICS = {
    "acquisition.expected_counts_repeat_ratio": (
        "acquisition.expected_counts.repeats", "acquisition.expected_counts_calls",
        "acquisition.expected_counts"),
    "studies.window_repeat_ratio": (
        "studies.window.repeats", "studies.auto_time_window_calls", "studies.auto_time_window"),
    "processing.fit_useful_bin_ratio": (
        "processing.fit_useful_bins", "processing.fit_bins", "processing.fit"),
    "localization.band_cell_ratio": (
        "localization.band_cells", "localization.backproject_cells", "localization.backproject"),
}


class Tracer:
    """In-memory span recorder with counting hooks; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._seen: defaultdict = defaultdict(set)
        self._stack: list[int] = []
        self._op = None
        self._restore: list[tuple] = []

    # -- counters ----------------------------------------------------------

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def repeat(self, kind: str, key):
        """Count a call whose geometry key already appeared earlier in the run."""
        seen = self._seen[kind]
        self.counts[kind + ".repeats"] += key in seen
        seen.add(key)

    # -- installation ------------------------------------------------------

    def install(self):
        present: set[str] = set()
        for module_name, attr, span, hook in SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(fn, span, hook))
            self._restore.append((module, attr, fn))
            present.add(span)
        self.absent = {span for _, _, span, _ in SITES} - present

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name, hook):
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                tracer._close(idx)
                if hook is not None:
                    # Counting cost is kept out of every layer's self time.
                    h = tracer._open("trace.hook")
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(tracer, bound.arguments, result, exc)
                    tracer._close(h)

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int):
        self._op = op_id
        self._open("op")

    def end_op(self):
        self._close(self._stack[-1])
        self._op = None

    def self_times(self) -> Counter:
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer, traced_ops: int, counts: Counter, counted_ops: int) -> dict:
    """Per-layer metrics: self ms per traced op; counts per op over the counted prefix."""
    out = {}
    self_s = tracer.self_times()
    for metric, spans in TIME_METRICS.items():
        if all(s in tracer.absent for s in spans):
            value = None
        else:
            value = 1000.0 * sum(self_s[s] for s in spans) / traced_ops
        out[metric] = (value, "ms")
    for metric, (unit, span) in COUNT_METRICS.items():
        value = None if span in tracer.absent else counts[metric] / counted_ops
        out[metric] = (value, unit)
    for metric, (num, den, span) in RATIO_METRICS.items():
        value = None
        if span not in tracer.absent and counts[den]:
            value = counts[num] / counts[den]
        out[metric] = (value, "ratio")
    return out
