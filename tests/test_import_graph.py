"""Importing the package loads numpy, not scipy; scipy loads only where it is used."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def scipy_modules_after(code: str) -> list[str]:
    # A fresh interpreter, so that modules this test session imported do not count.
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", code + report],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["nlostrack", "nlostrack.cli"])
def test_import_loads_no_scipy(module):
    assert scipy_modules_after(f"import {module}") == []


def test_simulation_loads_only_scipy_special(tmp_path):
    scene_file = SRC.parent / "configs" / "single_person.json"
    for code in (
        "import nlostrack as nt\n"
        "nt.simulate_histogram(nt.corner_scene([(0.6, 1.2)]), 0, nt.AcquisitionParams())",
        "import nlostrack as nt\n"
        "nt.run_scenario(nt.corner_scene([(0.6, 1.2)]), nt.AcquisitionParams(),"
        " nt.studies.DEFAULT_GRID)",
        "from click.testing import CliRunner\n"
        "from nlostrack.cli import main\n"
        f"args = ['reconstruct', {str(scene_file)!r}, '--out', {str(tmp_path)!r}, '--maps']\n"
        "assert CliRunner().invoke(main, args).exit_code == 0",
    ):
        loaded = scipy_modules_after(code)
        assert "scipy.special" in loaded
        for absent in ("scipy.signal", "scipy.stats", "scipy.ndimage"):
            assert absent not in loaded
