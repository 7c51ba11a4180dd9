#!/usr/bin/env python3
"""End-to-end benchmark of the nlostrack pipeline, with a per-layer traced run.

    python3 perfbench/run.py --workload two_person --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload sweep --seed 1 --smoke --trace 1

Run from the root of a source checkout; the package is imported from
``src/`` and the configs from ``configs/``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` the per-layer ones. The lines above it
repeat them for people, with the output digest, the failure reasons and
the environment.
"""

import time

# The set-up clock starts here, before anything else is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("sweep", "two_person", "cli_files")
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
CHILD_TIMEOUT_S = 150
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
LIMITS = ("2 shared cores; no CPU pinning, no frequency control and no page-cache "
          "dropping: the shared VM does not allow them")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run only the checked prefix of ops, with one set-up sample")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_checkout():
    missing = [d for d in ("src/nlostrack", "configs") if not (ROOT / d).is_dir()]
    if missing:
        sys.exit(f"perfbench: {ROOT} is not a source checkout (missing {', '.join(missing)})")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "limits": LIMITS,
    }


def quantile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def setup_in_child(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_loop(wl, seconds: float, tracer=None):
    """Closed loop, one op at a time, for ``seconds`` and at least the checked prefix.

    With a tracer, even-numbered ops are traced and odd ones are not, so
    tracing overhead is measured on interleaved ops.
    """
    from perfbench.workloads import Outcome

    need = wl.prefix_ops * (2 if tracer else 1)
    ms, traced_ms, untraced_ms, outcomes = [], [], [], []
    digest = hashlib.sha256()
    prefix_counts = None
    start = time.perf_counter()
    i = 0
    while i < need or time.perf_counter() - start < seconds:
        inp = wl.make_input(i)
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out, exc = wl.run(inp), None
        except Exception as e:  # a failed op is classified and the loop goes on
            out, exc = None, e
        dt = time.perf_counter() - t0
        if traced:
            tracer.end_op()
        if exc is None:
            outcome = wl.check(inp, out)
        else:
            outcome = Outcome([], type(exc).__name__, f"raised {type(exc).__name__}")
        ms.append(1000.0 * dt)
        (traced_ms if traced else untraced_ms).append(1000.0 * dt)
        outcomes.append(outcome)
        if i < wl.prefix_ops:
            digest.update(outcome.record.encode() + b"\n\x00")
        if tracer is not None and prefix_counts is None and len(traced_ms) == wl.prefix_ops:
            prefix_counts = Counter(tracer.counts)
        i += 1
    return ms, traced_ms, untraced_ms, outcomes, digest.hexdigest(), prefix_counts


def run_workload(args) -> int:
    require_checkout()
    warnings.simplefilter("ignore")  # ambiguity is a status here, not a warning
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](ROOT, args.seed, work)
    try:
        warm_in = wl.make_input(-1)
        wl.check(warm_in, wl.run(warm_in))
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        seconds = 0.0 if args.smoke else args.seconds
        try:
            ms, traced_ms, untraced_ms, outcomes, digest, prefix_counts = run_loop(
                wl, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s]
        if not args.trace and not args.smoke:
            setups += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    finally:
        wl.close()
        try:
            work.parent.rmdir()
        except OSError:
            pass  # not empty: another run is using it

    ops = len(outcomes)
    reasons = Counter(o.failure for o in outcomes if o.failure)
    failed = sum(reasons.values())
    errors = [e for o in outcomes for e in o.errors_m]
    if args.trace:
        traced_ops = len(traced_ms)
        layers = tracing.layer_metrics(tracer, traced_ops, prefix_counts, wl.prefix_ops)
        layers["trace.overhead_ms"] = (
            statistics.median(traced_ms) - statistics.median(untraced_ms), "ms")
        tracer.write_spans(ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl")
        metrics = layers
        counted = (f"times over {traced_ops} traced ops, counts over the first "
                   f"{wl.prefix_ops} traced ops, overhead against {len(untraced_ms)} "
                   f"untraced ops")
    else:
        metrics = {
            "scenarios_per_s": (ops * wl.scenarios_per_op / (sum(ms) / 1000.0), "1/s"),
            "op_ms_p50": (statistics.median(ms), "ms"),
            "op_ms_p90": (quantile(ms, 90), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        counted = (f"{ops} ops ({ops * wl.scenarios_per_op} scenarios), "
                   f"{sum(1 for v in ms if v > metrics['op_ms_p90'][0])} beyond p90; "
                   f"set-up samples {[round(s, 3) for s in setups]}")

    # Printed but not in the JSON result: failed_fraction is 0 on every
    # workload, and the error percentiles move by 8-33 % between seeds (they
    # rest on 150-700 samples of millimetre errors), beyond any usable bound.
    unbounded = {
        "failed_fraction": (failed / ops, "ratio"),
        "error_m_p50": (statistics.median(errors) if errors else None, "m"),
        "error_m_p90": (quantile(errors, 90) if errors else None, "m"),
    }
    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace}: {counted}")
    for name, (value, unit) in {**metrics, **unbounded}.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {unit}")
    print(f"  failures {failed}/{ops} by reason {dict(reasons) or 'none'}; "
          f"failed sweep trials {sum(o.failed_trials for o in outcomes)}")
    print(f"  digest sha256:{digest} over ops 0..{wl.prefix_ops - 1}")
    if args.trace and tracer.absent:
        print(f"  absent spans: {sorted(tracer.absent)}")
    print("  report " + json.dumps({"workload": wl.name, "seed": args.seed, "ops": ops,
                                    "digest": digest, "failures": dict(reasons),
                                    "env": environment()}))
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process (set-up and peak RSS are per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 4 * args.seconds)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
