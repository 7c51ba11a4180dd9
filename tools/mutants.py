"""Seeded one-token mutation sample of nlostrack modules, scored against tier-1.

    python tools/mutants.py --name retrieval_limits --count 40 --seed 7 processing studies acquisition

A mutant swaps one operator (+ and -, * and /, < and <=, > and >=, == and !=,
and/or), one number or one boolean in one named module of src/nlostrack. On a
temporary copy of the tree tier-1 must pass unmutated; then each mutant runs
``python -m pytest -x -q tests`` there and is killed when the run fails or
takes over five times the unmutated run. MUTANTS_<name>.json, written to the
current directory, holds the score and each survivor with "class": null, for a
reader to class as equivalent (no input changes an output), boundary (only a
tie or an unreachable value does) or real (to be killed with a test).
"""

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<", ast.LtE: "<=",
           ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.And: "and",
           ast.Or: "or"}
SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*", "<": "<=", "<=": "<", ">": ">=", ">=": ">",
         "==": "!=", "!=": "==", "and": "or", "or": "and"}


def _sites(source: bytes):
    """(start, end, old, new) byte spans of the one-token mutants of ``source``."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def at(node, end=False):
        if end:
            return starts[node.end_lineno - 1] + node.end_col_offset
        return starts[node.lineno - 1] + node.col_offset

    for node in ast.walk(ast.parse(source)):
        pairs = []
        if isinstance(node, ast.BinOp):
            pairs = [(node.left, node.op, node.right)]
        elif isinstance(node, ast.Compare):
            pairs = zip([node.left, *node.comparators], node.ops, node.comparators)
        elif isinstance(node, ast.BoolOp):
            pairs = [(left, node.op, right) for left, right in zip(node.values, node.values[1:])]
        elif isinstance(node, ast.Constant) and type(node.value) in (bool, int, float):
            v, old = node.value, source[at(node):at(node, end=True)].decode()
            new = (not v if type(v) is bool else 1 - v if v in (0, 1) and type(v) is int
                   else v + 1 if type(v) is int else 1.0 if v == 0 else 2 * v)
            try:
                if ast.literal_eval(old) == v:  # not so where an f-string misplaces the node
                    yield at(node), at(node, end=True), old, repr(new)
            except (SyntaxError, ValueError):
                pass
        for left, op, right in pairs:
            # The operator token lies in the source between its two operands.
            old = SYMBOLS.get(type(op))
            i = source.find(old.encode(), at(left, end=True), at(right)) if old else -1
            if i >= 0:
                yield i, i + len(old), old, SWAPS[old]


def _mutants(modules):
    for module in modules:
        source = (ROOT / "src/nlostrack" / f"{module}.py").read_bytes()
        original = ast.dump(ast.parse(source))
        for start, end, old, new in sorted(set(_sites(source))):
            mutated = source[:start] + new.encode() + source[end:]
            try:
                if ast.dump(ast.parse(mutated)) == original:
                    continue  # the token was in a comment: no mutant
            except SyntaxError:
                continue
            line = source[:start].count(b"\n") + 1
            col = start - (source.rfind(b"\n", 0, start) + 1)
            yield {"module": module, "line": line, "col": col, "from": old, "to": new,
                   "source": source.splitlines()[line - 1].decode().strip()}, mutated


def _tier1(tree: Path, timeout: float):
    """(passed, first failure, seconds) of tier-1 in ``tree``."""
    t0 = time.perf_counter()
    try:
        # No bytecode: a same-size mutant written within a second of the
        # last could otherwise be served the previous one's cached .pyc.
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=tree, capture_output=True, text=True, timeout=timeout,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    except subprocess.TimeoutExpired:
        return False, "timeout", time.perf_counter() - t0
    failed = [ln.split(" - ")[0] for ln in run.stdout.splitlines()
              if ln.startswith(("FAILED", "ERROR"))] or [f"exit {run.returncode}"]
    return run.returncode == 0, failed[0], time.perf_counter() - t0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("modules", nargs="+", help="module names under src/nlostrack")
    p.add_argument("--name", required=True, help="writes MUTANTS_<name>.json")
    p.add_argument("--count", type=int, default=40)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    candidates = list(_mutants(args.modules))
    sample = random.Random(args.seed).sample(candidates, min(args.count, len(candidates)))
    results, t0 = [], time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_*", "MUTANTS_*"))
        passed, first, base_s = _tier1(tree, timeout=3600)
        if not passed:
            sys.exit(f"mutants: tier-1 fails unmutated ({first}); no sample taken")
        for i, (mutant, mutated) in enumerate(sample):
            path = tree / "src/nlostrack" / f"{mutant['module']}.py"
            original = path.read_bytes()
            path.write_bytes(mutated)
            try:
                survived, killed_by, seconds = _tier1(tree, timeout=5 * base_s)
            finally:
                path.write_bytes(original)
            mutant.update(killed=not survived, killed_by=None if survived else killed_by,
                          seconds=round(seconds, 1), **({"class": None} if survived else {}))
            results.append(mutant)
            print(f"[{i + 1}/{len(sample)}] {'SURVIVED' if survived else 'killed'} "
                  f"{mutant['module']}:{mutant['line']} {mutant['from']} -> {mutant['to']}",
                  flush=True)
    killed = sum(m["killed"] for m in results)
    doc = {"name": args.name, "modules": args.modules, "seed": args.seed,
           "candidates": len(candidates), "mutants": len(results), "killed": killed,
           "score": round(killed / max(len(results), 1), 3),
           "command": "python -m pytest -x -q tests", "unmutated_s": round(base_s, 1),
           "wall_s": round(time.perf_counter() - t0, 1),
           "survivors": [m for m in results if not m["killed"]],
           "killed_mutants": [m for m in results if m["killed"]]}
    Path(f"MUTANTS_{args.name}.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{killed}/{len(results)} killed; wrote MUTANTS_{args.name}.json")


if __name__ == "__main__":
    main()
