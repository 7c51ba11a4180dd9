#!/usr/bin/env python3
"""Benchmark the histogram kernel: numba-jitted path vs pure-numpy fallback.

Runs both implementations directly (regardless of which backend the package
selected) and prints per-call timings. The Gaussian accumulator dominates
histogram synthesis with many emitters.

    python benchmarks/bench_kernels.py [--repeats 200]
"""

import argparse
import time

import numpy as np

from nlostrack import _kernels


def time_call(fn, repeats, *args):
    fn(*args)  # warm up (JIT compile / cache load)
    t0 = time.perf_counter()
    for _ in range(repeats):
        fn(*args)
    return (time.perf_counter() - t0) / repeats


def bench_gaussian_mass(repeats):
    def run_numpy():
        out = np.zeros(6250)
        for k in range(40):
            _kernels._gaussian_mass_numpy(out, 4e-12, (2 + 0.5 * k) * 1e-9, 120e-12, 100.0)

    def run_numba():
        out = np.zeros(6250)
        for k in range(40):
            _kernels._gaussian_mass_numba(out, 4e-12, (2 + 0.5 * k) * 1e-9, 120e-12, 100.0)

    rows = [("gaussian_mass x40 numpy", time_call(lambda: run_numpy(), repeats))]
    if _kernels.HAVE_NUMBA:
        rows.append(("gaussian_mass x40 numba", time_call(lambda: run_numba(), repeats)))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=200)
    args = parser.parse_args()

    print(f"active backend: {_kernels.active_backend()}")
    if not _kernels.HAVE_NUMBA:
        print("(numba unavailable or disabled; numpy rows only)")
    print(f"{'kernel':<28}{'per call':>12}")
    all_rows = bench_gaussian_mass(args.repeats)
    by_name = {}
    for name, dt in all_rows:
        print(f"{name:<28}{dt * 1e3:>10.3f} ms")
        base = name.rsplit(" ", 1)[0]
        by_name.setdefault(base, {})[name.rsplit(" ", 1)[1]] = dt
    for base, entries in by_name.items():
        if {"numpy", "numba"} <= entries.keys():
            print(f"{base}: numba speedup {entries['numpy'] / entries['numba']:.1f}x")


if __name__ == "__main__":
    main()
