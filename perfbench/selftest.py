"""Self-test of the benchmark: ``python3 perfbench/selftest.py`` from the repository root.

* A tiny-scale pass of every workload, untraced and traced, must emit every
  metric ``BENCHMARK.json`` names, with its unit, and judge every answer
  correct; every per-layer metric must be measured on some workload.
* The correctness gate must reject deliberately corrupted cliques.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import inputs  # noqa: E402


def check_gate() -> None:
    edges = inputs.gnp_edges(30, 0.4, seed=7)
    adj = inputs.adjacency(edges)
    k = 2
    # Grow a valid k-defective clique greedily, so the corruptions below start from a good answer.
    clique = []
    for v in sorted(adj):
        if gate.check_answer(adj, clique + [v], k, True, len(clique) + 1) is None:
            clique.append(v)
    assert gate.check_answer(adj, clique, k, True, len(clique)) is None
    outsider = next(
        v for v in sorted(adj)
        if v not in clique and sum(1 for u in clique if u not in adj[v]) > k
    )
    corrupted = {
        "too many missing edges": clique[:-1] + [outsider],
        "repeated vertex": clique[:-1] + [clique[0]],
        "unknown vertex": clique[:-1] + [10 ** 6],
    }
    for what, bad in corrupted.items():
        assert gate.check_answer(adj, bad, k, True, len(clique)) is not None, what
    assert gate.check_answer(adj, clique, k, False, len(clique)) is not None, "not optimal"
    assert gate.check_answer(adj, clique, k, True, len(clique) + 1) is not None, "wrong size"
    print("gate rejects corrupted cliques: ok")


def check_workloads() -> None:
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    unmeasured = set(expected[1])
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
            out = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)
            assert out.returncode == 0, f"{workload} trace={trace}: {out.stderr[-2000:]}"
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, out.stdout[-2000:])
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected[trace], (workload, trace, emitted)
            if trace:
                prefix = f"not measured on {workload}: "
                missing = next(line for line in lines if line.startswith(prefix))[len(prefix):]
                unmeasured &= set(missing.split())
            print(f"{workload} trace={trace}: {len(emitted)} metrics with units: ok")
    assert not unmeasured, f"per-layer metrics no workload measures: {sorted(unmeasured)}"
    print("every per-layer metric is measured on some workload: ok")

if __name__ == "__main__":
    check_gate()
    check_workloads()
