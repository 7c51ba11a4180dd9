"""The benchmark's workloads: seeded inputs, the timed op, and output checks.

Each workload is driven in a closed loop by one process, one op at a time.
``make_input(i)`` builds op ``i`` from ``(seed, i)`` alone and runs untimed
(it may write input files); ``run`` is the timed op; ``check`` verifies the
outputs untimed. Index -1 is the untimed warm-up op.

- ``sweep``: small ``run_baseline_sweep`` calls on the bundled sweep
  geometry. The geometry repeats across trials, so geometry-keyed caches and
  trial batching would be exercised. Association is light: 2 pixels, 1 target.
- ``two_person``: ``run_two_person`` on the bundled layout with both targets
  and all four pixels moved for every scene, so no geometry repeats. Stresses
  fit and association (2 peaks x 4 pixels).
- ``cli_files``: ``simulate`` then ``reconstruct --hist-dir ... --maps``
  through click's CliRunner, in-process: the write-and-read path.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from nlostrack import cli, sceneio, studies
from nlostrack.geometry import Point3, tof

# A reported track farther than this from the true target fails the check.
MAX_ERROR_M = 0.5


@dataclass
class Outcome:
    """What ``check`` found for one op."""

    errors_m: list[float]  # distance from each true target to its nearest track
    failure: str | None  # reason the op failed, or None
    record: str  # canonical text of the op's tracks or sweep rows (for the digest)
    failed_trials: int = 0  # trials run_baseline_sweep dropped inside an op


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index + 1])


def _nearest_errors(truths, positions) -> list[float]:
    if not positions:
        return []
    return [min(math.dist(t, p) for p in positions) for t in truths]


def invoke_cli(runner: CliRunner, args: list[str]):
    """One CLI command, in-process. Tracing wraps this name as the cli layer."""
    return runner.invoke(cli.main, args)


class Sweep:
    name = "sweep"
    prefix_ops = 4
    scenarios_per_op = 20  # 2 baselines x 1 object x 10 trials

    def __init__(self, root: Path, seed: int, work_dir: Path):
        self.seed = seed
        self.base = sceneio.load_sweep_config(root / "configs" / "baseline_sweep.json")

    def make_input(self, index: int):
        rng = _rng(self.seed, index)
        lo, hi, _ = self.base.d2_x_range
        # Objects are taken in turn so every run holds the same mix.
        obj = self.base.object_positions[index % len(self.base.object_positions)]
        acquisition = dataclasses.replace(
            self.base.acquisition, rng_seed=int(rng.integers(2**31)))
        return dataclasses.replace(
            self.base, d2_x_range=(lo, hi, 2), object_positions=(obj,),
            trials_per_point=10, acquisition=acquisition,
        )

    def run(self, config):
        return studies.run_baseline_sweep(config)

    def check(self, config, result) -> Outcome:
        errors, failure, failed_trials = [], None, 0
        for row in result.rows:
            failed_trials += row.n_failed
            if not row.valid:
                failure = failure or "invalid_row"
                continue
            errors.append(math.hypot(row.error_x, row.error_y))
            if errors[-1] > MAX_ERROR_M:
                failure = failure or "off_target"
        record = "\n".join(repr(dataclasses.astuple(row)) for row in result.rows)
        return Outcome(errors, failure, record, failed_trials)

    def close(self):
        pass


class TwoPerson:
    name = "two_person"
    prefix_ops = 20
    scenarios_per_op = 1
    PIXEL_JITTER_M = 0.05
    TARGET_JITTER_M = 0.25
    MIN_SEPARATION_M = 0.5
    # The two-person study's resolvability condition: at every pixel the two
    # returns are at least 1 ns apart (the bundled scene's C4 precondition).
    MIN_RETURN_GAP_S = 1e-9

    def __init__(self, root: Path, seed: int, work_dir: Path):
        self.seed = seed
        self.scene, self.params, self.grid = sceneio.load_scene(
            root / "configs" / "two_person.json")

    def make_input(self, index: int):
        rng = _rng(self.seed, index)
        j = self.PIXEL_JITTER_M
        pixels = tuple(
            Point3(p.x + rng.uniform(-j, j), p.y, p.z + rng.uniform(-j, j))
            for p in self.scene.pixels
        )
        laser = self.scene.laser_spot
        while True:
            spots = [
                Point3(o.position.x + rng.uniform(-self.TARGET_JITTER_M, self.TARGET_JITTER_M),
                       o.position.y + rng.uniform(-self.TARGET_JITTER_M, self.TARGET_JITTER_M),
                       o.position.z)
                for o in self.scene.objects
            ]
            a, b = spots
            if a.distance_to(b) < self.MIN_SEPARATION_M:
                continue
            if all(abs(tof(laser, a, p) - tof(laser, b, p)) >= self.MIN_RETURN_GAP_S
                   for p in pixels):
                break
        scene = dataclasses.replace(
            self.scene, pixels=pixels,
            objects=tuple(dataclasses.replace(o, position=s)
                          for o, s in zip(self.scene.objects, spots)),
        )
        return scene, dataclasses.replace(self.params, rng_seed=int(rng.integers(2**31)))

    def run(self, inp):
        scene, params = inp
        return studies.run_two_person(scene, params, self.grid)

    def check(self, inp, result) -> Outcome:
        scene, _ = inp
        truths = [(o.position.x, o.position.y) for o in scene.objects]
        errors = _nearest_errors(truths, [t.position for t in result.tracks])
        failure = None
        if result.status != "ok":
            failure = result.status
        elif len(result.tracks) != 2 or max(errors) > MAX_ERROR_M:
            failure = "off_target"
        record = result.status + "".join(
            f"\n{t.target_label} {t.position!r} {t.sigma_x!r} {t.sigma_y!r} {t.peak_value!r}"
            for t in result.tracks
        )
        return Outcome(errors, failure, record)

    def close(self):
        pass


class CliFiles:
    name = "cli_files"
    prefix_ops = 8
    scenarios_per_op = 1
    DEPTHS_M = (0.45, 0.9, 1.35, 1.8)
    X_RANGE_M = (0.3, 0.9)
    # Coarser than the bundled 0.02 m grid: keeps an op near 0.2 s and
    # varies the map working set between ops.
    GRID_RES_M = (0.05, 0.06, 0.08)

    def __init__(self, root: Path, seed: int, work_dir: Path):
        self.seed = seed
        self.doc = json.loads((root / "configs" / "single_person.json").read_text())
        self.work = work_dir
        self.scene_file = work_dir / "scene.json"
        self.hist_dir = work_dir / "hist"
        self.out_dir = work_dir / "out"
        self.runner = CliRunner()
        work_dir.mkdir(parents=True, exist_ok=True)

    def make_input(self, index: int):
        rng = _rng(self.seed, index)
        # Depths and grid resolutions are taken in turn so every run holds
        # the same mix; the lateral position and the noise come from the seed.
        x = float(rng.uniform(*self.X_RANGE_M))
        depth = self.DEPTHS_M[index % len(self.DEPTHS_M)]
        res = self.GRID_RES_M[index % len(self.GRID_RES_M)]
        acq_seed = int(rng.integers(2**31))
        doc = json.loads(json.dumps(self.doc))
        doc["objects"][0]["position"] = [x, depth, doc["scatter_height_z"]]
        self.scene_file.write_text(json.dumps(doc))
        for d in (self.hist_dir, self.out_dir):
            shutil.rmtree(d, ignore_errors=True)
        return (x, depth), res, acq_seed

    def run(self, inp):
        _, res, acq_seed = inp
        scene, seed = str(self.scene_file), str(acq_seed)
        sim = invoke_cli(self.runner, ["simulate", scene, "--out", str(self.hist_dir),
                                       "--seed", seed])
        if sim.exit_code != 0:
            return sim, None
        rec = invoke_cli(self.runner, [
            "reconstruct", scene, "--hist-dir", str(self.hist_dir), "--out", str(self.out_dir),
            "--seed", seed, "--grid-res", str(res), "--maps",
        ])
        return sim, rec

    def check(self, inp, result) -> Outcome:
        truth, _, _ = inp
        for r in result:
            if r is not None and r.exit_code != 0:
                if r.exception is not None and not isinstance(r.exception, SystemExit):
                    reason = type(r.exception).__name__
                else:
                    reason = f"exit_{r.exit_code}"
                return Outcome([], reason, f"failed {reason}")
        text = (self.out_dir / "tracks.json").read_text()
        doc = json.loads(text)
        errors = _nearest_errors([truth], [(t["x"], t["y"]) for t in doc["tracks"]])
        failure = None
        if doc["status"] != "ok":
            failure = doc["status"]
        elif len(doc["tracks"]) != 1 or errors[0] > MAX_ERROR_M:
            failure = "off_target"
        return Outcome(errors, failure, text)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, TwoPerson, CliFiles)}
