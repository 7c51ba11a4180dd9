"""Tests of the benchmark itself, through its smoke mode.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_of(proc) -> str:
    line = next(ln for ln in proc.stdout.splitlines() if ln.strip().startswith("report "))
    return json.loads(line.strip()[len("report "):])["digest"]


def check_result(res: dict, spec_metrics: list[dict]):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_and_tracing_keeps_outputs(workload):
    plain = run_bench("--workload", workload, "--seed", "3", "--smoke", "--trace", "0")
    check_result(last_json(plain), SPEC["end_to_end"])
    traced = run_bench("--workload", workload, "--seed", "3", "--smoke", "--trace", "1")
    check_result(last_json(traced), SPEC["per_layer"])
    assert digest_of(plain) == digest_of(traced)


def test_digest_follows_the_seed():
    a = run_bench("--workload", "two_person", "--seed", "5", "--smoke")
    b = run_bench("--workload", "two_person", "--seed", "5", "--smoke")
    c = run_bench("--workload", "two_person", "--seed", "6", "--smoke")
    assert digest_of(a) == digest_of(b) != digest_of(c)


def test_fails_without_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_missing_site_is_absent_not_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from nlostrack import localization

    from perfbench import tracing

    monkeypatch.delattr(localization, "localize")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == {"localization.localize"}
        metrics = tracing.layer_metrics(tracer, 1, tracer.counts, 1)
    finally:
        tracer.uninstall()
    assert metrics["localization.localize_ms"] == (None, "ms")
    assert metrics["localization.backproject_ms"][0] == 0.0


def test_fit_useful_bins_merge_overlapping_windows():
    from types import SimpleNamespace

    from perfbench import tracing

    tracer = tracing.Tracer()
    hist = SimpleNamespace(num_bins=1000, bin_width_s=4e-12)
    # 8 sigma of 120 ps is 240 bins each side: [0, 341) and [60, 541) overlap.
    args = {"hist": hist, "seeds": [(300, 1.0), (100, 1.0)], "irf_sigma_guess": 120e-12}
    tracing._fit(tracer, args, [object(), object()], None)
    assert tracer.counts["processing.fit_bins"] == 1000
    assert tracer.counts["processing.fit_useful_bins"] == 541
    assert tracer.counts["processing.peaks_fitted"] == 2
