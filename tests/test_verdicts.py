"""Verdict table: what the retrieval reports for each kind of scene.

One row per kind of scene. Each row runs its scene over fixed seeds and
classifies every run: ``ok-right`` (the right number of tracks, min(k,
persons), each under 0.1 m from its own person), ``ok-near`` (the same under
0.5 m), ``ok-wrong`` (any other ``ok`` result), ``ambiguous``, ``no_target``
or ``PipelineError``. A row whose wanted verdict holds today is a plain
test; a row whose wanted verdict does not hold is a strict xfail naming the
ROADMAP item that should deliver it, so the fix turns it into a pass.
Runs are deterministic given a seed, so the counts are exact.

Run with `pytest tests/test_verdicts.py -v -s` to see the [VERDICT] lines.
"""

import dataclasses
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from nlostrack import (
    AcquisitionParams,
    PipelineError,
    Point3,
    calibration_offset_s,
    corner_scene,
    run_scenario,
    sceneio,
    studies,
)
from nlostrack.studies import DEFAULT_GRID

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RIGHT_M, NEAR_M = 0.1, 0.5


@dataclass(frozen=True)
class Outcome:
    kind: str
    tracks: int
    notes: tuple[str, ...]


def _classify(result, persons, k):
    if result.status != "ok":
        return result.status
    tracks = [t.position for t in result.tracks]
    if len(tracks) != min(k, len(persons)):
        return "ok-wrong"
    worst = min(max(map(math.dist, tracks, perm))
                for perm in itertools.permutations(persons, len(tracks)))
    return "ok-right" if worst < RIGHT_M else "ok-near" if worst < NEAR_M else "ok-wrong"


@functools.lru_cache(maxsize=None)
def _bundled(config):
    return sceneio.load_scene(CONFIGS / config)


def _persons(scene):
    return tuple((o.position.x, o.position.y) for o in scene.objects)


def _scenario(scene, params, grid):
    # A scene and the same instrument for simulation and retrieval.
    return lambda seed, k: (
        run_scenario(scene, dataclasses.replace(params, rng_seed=seed), grid, k_targets=k),
        _persons(scene))


def _bundled_scenario(config):
    return _scenario(*_bundled(config))


def _target_free(throughput):
    # The bundled single-person scene with its person removed: its clutter
    # scatterer is in the signal and the background alike.
    scene, params, grid = _bundled("single_person.json")
    params = dataclasses.replace(params, system_throughput=throughput)
    return _scenario(dataclasses.replace(scene, objects=()), params, grid)


def _instrument_width(irf_sigma_s):
    # The bundled single-person scene, acquired and retrieved at another instrument width.
    scene, params, grid = _bundled("single_person.json")
    return _scenario(scene, dataclasses.replace(params, irf_sigma_s=irf_sigma_s), grid)


def _off_plane(z):
    scene = corner_scene([(0.6, 1.2)])
    person = dataclasses.replace(scene.objects[0], position=Point3(0.6, 1.2, z))
    return _scenario(dataclasses.replace(scene, objects=(person,)), AcquisitionParams(),
                     DEFAULT_GRID)


def _believed(pixels, standoff_m, resolution):
    # The bundled single-person histograms, retrieved with an instrument
    # believed to differ from the one that recorded them: ``pixels`` maps
    # each pixel used to where it is believed to be.
    scene, params, grid = _bundled("single_person.json")
    believed = dataclasses.replace(scene, standoff_m=standoff_m)
    grid = dataclasses.replace(grid, resolution=resolution)

    def run(seed, k):
        p = dataclasses.replace(params, rng_seed=seed)
        signal, background = studies.simulate_scene(scene, p)
        return studies.reconstruct_from_histograms(
            [signal[i] for i in pixels], [background[i] for i in pixels], scene.laser_spot,
            list(pixels.values()), grid, p, offset_s=calibration_offset_s(believed, p),
            k_targets=k,
        ), _persons(scene)
    return run


def _clock_error(standoff_m):
    scene, _, _ = _bundled("single_person.json")
    return _believed(dict(enumerate(scene.pixels[:3])), standoff_m, 0.1)


def _misplaced_pixel(dx):
    scene, _, grid = _bundled("single_person.json")
    pixels = dict(enumerate(scene.pixels))
    pixels[0] = dataclasses.replace(pixels[0], x=pixels[0].x + dx)
    return _believed(pixels, scene.standoff_m, grid.resolution)


def _opposite_corner():
    # C9's opposite-corner scene: one person beside the pixels, one across
    # the corner, seen by two pixels.
    scene = corner_scene([(0.5, 0.9), (-2.8, 0.6)], reflectivity=3.0,
                         pixels=(Point3(-1.4, 0, 1.0), Point3(-0.8, 0, 1.05)))
    return _scenario(scene, AcquisitionParams(system_throughput=3.5e4), DEFAULT_GRID)


def _is(*kinds):
    return lambda outcome: outcome.kind in kinds


@dataclass(frozen=True)
class Row:
    name: str
    k: int
    seeds: range
    run: Callable  # (seed, k) -> (ScenarioResult, true (x, y) of each person)
    wanted: str
    holds: Callable[[Outcome], bool]  # of one run
    need: int | None = None  # runs the wanted verdict must hold in; all when None
    item: str | None = None  # the ROADMAP item that should deliver it, when it does not hold

    def outcome(self, seed):
        try:
            result, persons = self.run(seed, self.k)
        except PipelineError:
            return Outcome("PipelineError", 0, ())
        return Outcome(_classify(result, persons, self.k), len(result.tracks),
                       tuple(result.notes))


ROWS = [
    Row("single_person.json", 1, range(60), _bundled_scenario("single_person.json"),
        "ok-right", _is("ok-right")),
    Row("two_person.json", 2, range(60), _bundled_scenario("two_person.json"),
        "ok-right", _is("ok-right")),
    Row("single_person without the person, throughput 1e4", 1, range(60),
        _target_free(1e4), "no_target", _is("no_target")),
    Row("single_person without the person, throughput 1e4", 2, range(60),
        _target_free(1e4), "no_target", _is("no_target")),
    Row("single_person without the person, throughput 1e6", 1, range(60),
        _target_free(1e6), "no ok track", _is("ambiguous", "no_target", "PipelineError"),
        item="3: the detection threshold (4.26 here) does not grow with the local counts; "
             "the clutter's subtraction residual smooths to 11.3-16.8 at seed 0 and reaches "
             "association"),
    Row("single_person.json", 2, range(60), _bundled_scenario("single_person.json"),
        "one track", _is("ok-right"),
        item="7: two tracks split the one person's four returns 2+2"),
    Row("two_person.json", 1, range(60), _bundled_scenario("two_person.json"),
        "one track and a note on the unused returns",
        lambda o: o.kind == "ok-right" and any("unused" in n for n in o.notes),
        item="7: the second person's returns are dropped without a note"),
    Row("person at z 1.6 m, search plane at 1.0 m", 1, range(20), _off_plane(1.6),
        "rejected or flagged", lambda o: not o.kind.startswith("ok") or bool(o.notes),
        item="1: no consistency gate; the off-plane track is reported ok"),
    Row("standoff read as 3.4 m instead of 2.0, pixels 0-2, grid 0.1 m", 1, range(20),
        _clock_error(3.4), "rejected in at least 19 of 20", _is("no_target"), need=19,
        item="1: no consistency gate; the clock error gives a confident wrong track"),
    Row("single_person pixel 0 believed 10 cm along the wall from where it is", 1, range(20),
        _misplaced_pixel(0.1), "rejected", _is("no_target"),
        item="1: no consistency gate; the misplaced pixel's track is reported ok"),
    Row("single_person.json at irf_sigma_s 3.6 ps, 0.9 of a 4 ps bin", 1, range(20),
        _instrument_width(3.6e-12), "ok-right", _is("ok-right"),
        item="9: a peak model that integrates over each bin; the model sampled at bin "
             "centres leaves pixel 0's fit without convergence in every seed"),
    Row("C9 opposite-corner scene, 2 pixels, throughput 3.5e4", 2, range(60),
        _opposite_corner(), "two tracks", _is("ok-right", "ok-near"),
        item="3: the detector misses the across-the-corner person's weak return"),
]


def _param(row):
    marks = ()
    if row.item:
        marks = pytest.mark.xfail(strict=True, raises=AssertionError,
                                  reason=f"ROADMAP item {row.item}")
    return pytest.param(row, id=f"{row.name}-k{row.k}", marks=marks)


@pytest.mark.parametrize("row", map(_param, ROWS))
def test_verdict(row):
    outcomes = [row.outcome(seed) for seed in row.seeds]
    kinds = Counter(o.kind for o in outcomes)
    tracks = Counter(o.tracks for o in outcomes)
    held = sum(map(row.holds, outcomes))
    need = len(outcomes) if row.need is None else row.need
    counts = ", ".join(f"{kind} {kinds[kind]}" for kind in (
        "ok-right", "ok-near", "ok-wrong", "ambiguous", "no_target", "PipelineError"))
    print(f"\n[VERDICT] {row.name}, k={row.k}, seeds {row.seeds.start}-{row.seeds.stop - 1}: "
          f"{counts}; tracks {dict(sorted(tracks.items()))}; wanted {row.wanted}: "
          f"{held}/{len(outcomes)} (need {need})"
          + (f"; ROADMAP item {row.item.split(':')[0]}" if row.item else ""))
    assert held >= need, f"{row.name}: wanted {row.wanted} in {need} runs, got {held}"
