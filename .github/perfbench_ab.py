"""Paired A/B run of perfbench: a parent tree against a change tree, on one workload.

Usage::

    python3 .github/perfbench_ab.py PARENT_TREE CHANGE_TREE WORKLOAD

PARENT_TREE is a checkout of the parent commit and CHANGE_TREE one of the
change; the script writes to neither.  It first copies each tree once into
a temporary directory, leaving out ``.git``, ``.perfbench_work/`` and the
bytecode and test caches, so both sides start from the same kind of fresh
tree whatever runs the checkouts have seen.  The parent copy's
``perfbench/`` and ``BENCHMARK.json`` are then replaced with the change's,
so both sides run identical benchmark code.  Both copies run
``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s ``run_seconds`` on
the same fixed seeds, alternating which side runs first, and the temporary
directory is removed at the end.

The verdict fails when any run is incorrect, when the change fails a larger
share of its operations than the parent, or when an end-to-end metric is
worse than the parent's by more than its ``BENCHMARK.json`` bound on every
pair.  A metric past its bound on only some pairs is printed as unresolved
and passes.  Exit status 0 is a pass, 1 a fail.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

# One pair per seed.  In ten no-change pairs per workload no metric passed
# its bound on more than 3 of the 10, so a false alarm on all five pairs
# has odds near 0.3 ** 5 = 0.2%; a median-of-five rule would raise one
# about 16% of the time.
SEEDS = (11, 12, 13, 14, 15)
SIDES = ("parent", "change")


#: Names left out of the tree copies, at any depth: version control, the
#: benchmark's work directory, and bytecode and test caches.
SKIPPED = (".git", ".perfbench_work", "__pycache__", ".pytest_cache", ".hypothesis")


def fresh_copies(parent: str, change: str, scratch: str) -> dict:
    """Copy both trees under ``scratch``, the parent copy with the change's
    benchmark code; return the copies by side."""
    ignore = shutil.ignore_patterns(*SKIPPED)
    trees = {}
    for side, tree in zip(SIDES, (parent, change)):
        trees[side] = os.path.join(scratch, side)
        shutil.copytree(tree, trees[side], symlinks=True, ignore=ignore)
    target = os.path.join(trees["parent"], "perfbench")
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(os.path.join(trees["change"], "perfbench"), target)
    shutil.copyfile(os.path.join(trees["change"], "BENCHMARK.json"),
                    os.path.join(trees["parent"], "BENCHMARK.json"))
    return trees


def run_once(spec: dict, tree: str, workload: str, seed: int) -> str:
    """One untraced perfbench run in ``tree``: its result line, or "" when it printed none."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        print(f"perfbench exited {out.returncode} in {tree}:\n{out.stderr[-2000:]}", flush=True)
        return ""
    return lines[-1]


def parse(line: str) -> Optional[dict]:
    """The result a run printed, or ``None`` when ``line`` is not one."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def verdict(spec: dict, pairs: Sequence[Tuple[str, str]]) -> Tuple[bool, List[str]]:
    """Judge (parent, change) result lines, one pair per seed: (passed, report lines)."""
    results = [tuple(parse(line) for line in pair) for pair in pairs]
    bad = [f"pair {i + 1} {side}" for i, pair in enumerate(results)
           for side, result in zip(SIDES, pair) if result is None or not result["correct"]]
    if bad:
        return False, [f"FAIL: incorrect or missing result in {', '.join(bad)}"]

    report, passed = [], True
    share = {}
    for j, side in enumerate(SIDES):
        failed = sum(pair[j]["failed"] for pair in results)
        attempted = sum(pair[j]["attempted"] for pair in results)
        share[side] = failed / max(attempted, 1)
        report.append(f"{side} failed {failed} of {attempted} operations")
    if share["change"] > share["parent"]:
        passed = False
        report.append("FAIL: the change fails a larger share of operations than the parent")

    for metric in spec["end_to_end"]:
        name, bound, unit = metric["name"], metric["bound"], metric["unit"]
        base = [pair[0]["metrics"][name]["value"] for pair in results]
        new = [pair[1]["metrics"][name]["value"] for pair in results]
        ratios = [n / b if b else (1.0 if n == b else math.inf) for b, n in zip(base, new)]
        if metric["better"] == "lower":
            worse = sum(r > 1 + bound for r in ratios)
        else:
            worse = sum(r < 1 - bound for r in ratios)
        if worse == len(ratios):
            status = f"FAIL: worse than the parent by more than {bound:.0%} on every pair"
            passed = False
        elif worse:
            status = f"unresolved: past the {bound:.0%} bound on {worse} of {len(ratios)} pairs"
        else:
            status = "ok"
        parent_median, change_median = statistics.median(base), statistics.median(new)
        report.append(
            f"{name}: parent median {parent_median:.4g} {unit}, change median {change_median:.4g} {unit}"
            f" (x{change_median / parent_median if parent_median else math.inf:.3f});"
            f" per pair {' '.join(f'{r:.3f}' for r in ratios)}; {status}"
        )
    report.append("PASS" if passed else "FAIL")
    return passed, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", help="checkout of the parent commit")
    parser.add_argument("change_tree", help="checkout of the change")
    parser.add_argument("workload", help="a workload named in BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change_tree, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; BENCHMARK.json names {', '.join(names)}")
    if os.path.realpath(args.parent_tree) == os.path.realpath(args.change_tree):
        parser.error("PARENT_TREE and CHANGE_TREE must be two directories")

    print(f"perfbench A/B on {args.workload}: {len(SEEDS)} pairs, seeds {SEEDS},"
          f" {spec['run_seconds']} s per run", flush=True)
    pairs = []
    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as scratch:
        trees = fresh_copies(args.parent_tree, args.change_tree, scratch)
        for i, seed in enumerate(SEEDS):
            lines = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                lines[side] = run_once(spec, trees[side], args.workload, seed)
                print(f"pair {i + 1} seed {seed} {side}: {lines[side] or '(no result)'}", flush=True)
            pairs.append((lines["parent"], lines["change"]))
    passed, report = verdict(spec, pairs)
    print("\n".join(report))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
