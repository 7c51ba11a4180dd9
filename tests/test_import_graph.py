"""nlostrack runs on numpy alone: no import, simulation or CLI command loads scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nlostrack as nt

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = SRC.parent / "configs"

# run_scenario on the bundled one-person layout; prints the track as repr strings.
SCENARIO = (
    "import nlostrack as nt\n"
    "r = nt.run_scenario(nt.corner_scene([(0.6, 1.2)]), nt.AcquisitionParams(rng_seed=3),"
    " nt.studies.DEFAULT_GRID)\n"
)
REPORT_TRACK = (
    "import json\n"
    "print(json.dumps([r.status] + [repr(v) for t in r.tracks for v in"
    " (*t.position, t.sigma_x, t.sigma_y, t.peak_value)]))"
)


def run_python(code: str) -> str:
    """The last stdout line of ``code`` run in a fresh interpreter, so that
    modules this test session imported do not count."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


def scipy_modules_after(code: str) -> list[str]:
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    return json.loads(run_python(code + report))


@pytest.mark.parametrize("module", ["nlostrack", "nlostrack.cli"])
def test_import_loads_no_scipy(module):
    assert scipy_modules_after(f"import {module}") == []


def cli(*args) -> str:
    return (
        "from click.testing import CliRunner\n"
        "from nlostrack.cli import main\n"
        f"result = CliRunner().invoke(main, {[str(a) for a in args]!r})\n"
        "assert result.exit_code == 0, result.output\n"
    )


def test_simulation_and_cli_load_no_scipy(tmp_path):
    sweep = json.loads((CONFIGS / "baseline_sweep.json").read_text())
    sweep.update(d2_x=dict(sweep["d2_x"], steps=2), trials_per_point=10,
                 object_positions=sweep["object_positions"][:1])
    sweep_file = tmp_path / "sweep.json"
    sweep_file.write_text(json.dumps(sweep))
    for code in (
        "import nlostrack as nt\n"
        "nt.simulate_histogram(nt.corner_scene([(0.6, 1.2)]), 0, nt.AcquisitionParams())",
        SCENARIO,
        cli("reconstruct", CONFIGS / "single_person.json", "--out", tmp_path / "rec", "--maps"),
        cli("sweep", sweep_file, "--out", tmp_path / "sweep"),
    ):
        assert scipy_modules_after(code) == []


def test_track_without_scipy_matches_in_process():
    r = nt.run_scenario(nt.corner_scene([(0.6, 1.2)]), nt.AcquisitionParams(rng_seed=3),
                        nt.studies.DEFAULT_GRID)
    assert r.status == "ok"
    want = [r.status] + [repr(v) for t in r.tracks
                         for v in (*t.position, t.sigma_x, t.sigma_y, t.peak_value)]
    blocked = "import sys\nsys.modules['scipy'] = None\n"  # any scipy import now fails
    assert json.loads(run_python(blocked + SCENARIO + REPORT_TRACK)) == want
