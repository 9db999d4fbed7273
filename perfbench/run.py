"""End-to-end and per-layer benchmark of the kDC solver and its service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sparse-cold --seed 1 --seconds 20 --trace 0

and every workload for one seed::

    for w in sparse-cold dense-search service-mixed delta-stream; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``sparse-cold``: power-law cluster graphs solved from an edge-list file
  to the answer; prepare-dominated.
* ``dense-search``: G(n, p) graphs on the decomposed and the whole-graph
  bitset paths; search-dominated.
* ``service-mixed``: a ``repro serve`` process under an open-loop stream of
  small solves (some repeated, so the result cache answers them) while a
  second connection adds and solves one large sparse graph; the small
  requests that meet it are reported apart, as
  ``service.server.contended_ms_*``.
* ``delta-stream``: a durable ``repro serve --state-dir`` tracking one
  graph through a closed loop of small ``mutate`` + ``solve`` steps.

The self-test is ``python3 perfbench/selftest.py``.

With ``--trace 0`` the last output line carries the end-to-end metrics:
set-up time, median and tail latency of the workload's timed operation,
and the peak RSS of the solving process.  ``--trace 1`` times the first
operations untraced (the whole stream on service-mixed), then runs the
workload over the same inputs with the layers' entry points wrapped (see
``tracing.py``); the line carries the per-layer metrics of the traced pass,
the cost of tracing and the load generator's own figures.
Layer times and counts are totals over the timed window divided by the
operations made in it: instances for the batch workloads, requests for
service-mixed (the small solves and the large graph's two), steps for
delta-stream.  Every answer is checked against an independent reference; a
wrong answer makes the run incorrect.  The lines before the last one are
for people: provenance, every metric with its sample count, and, when
traced, the ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import percentile  # noqa: E402

# Metric names, units and bounds live in BENCHMARK.json at the repository root.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
TAIL_Q = 2 / 3  # every run takes at least 30 samples, so at least ten lie beyond it
PROBE_OPS = 10  # untraced operations a traced run times to measure what tracing costs

# Per-layer times from the ledger: self time unless marked inclusive.
_SELF_TIMES = {
    "graphs.io.parse_s": "graphs.io.parse",
    "graphs.graph.digest_s": "graphs.graph.digest",
    "graphs.graph.copy_s": "graphs.graph.copy",
    "graphs.graph.relabel_s": "graphs.graph.relabel",
    "core.heuristics.degen_opt_s": "core.heuristics.degen_opt",
    "graphs.kcore.rr5_s": "graphs.kcore.rr5",
    "graphs.truss.rr6_s": "graphs.truss.rr6",
    "graphs.degeneracy.order_s": "graphs.degeneracy.order",
    "core.prepared.self_s": "core.prepared.prepare",
    "core.solver.self_s": "core.solver",
    "core.decompose.ego_build_s": "core.decompose.ego_build",
    "core.fastpath.engine_s": "core.fastpath.engine",
    "dynamic.delta.apply_s": "dynamic.delta.apply",
    "dynamic.delta.affected_s": "dynamic.delta.affected",
}
_INCLUSIVE_TIMES = {
    "core.prepared.prepare_s": "core.prepared.prepare",
    "service.store.add_s": "service.store.add",
    "service.store.prepare_s": "service.store.prepared",
    "service.persistence.save_graph_s": "service.persistence.save_graph",
    "service.persistence.append_delta_s": "service.persistence.append_delta",
    "service.persistence.append_result_s": "service.persistence.append_result",
    "dynamic.incremental.apply_s": "dynamic.incremental.apply",
}
_CALLS = {
    "graphs.graph.digest_calls": "graphs.graph.digest",
    "graphs.graph.copy_calls": "graphs.graph.copy",
    "graphs.degeneracy.order_calls": "graphs.degeneracy.order",
}


def end_to_end(run: workloads.Run) -> dict:
    samples_ms = [s * 1000.0 for s in run.samples]
    return {
        "setup_s": statistics.median(run.setup_s),
        "latency_ms_p50": statistics.median(samples_ms),
        "latency_ms_tail": percentile(samples_ms, TAIL_Q),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: workloads.Run, plain: workloads.Run) -> dict:
    """Layer figures per timed operation of the traced ``run``; ``plain`` is
    the untraced probe over the same inputs."""
    ledger = run.ledger
    ops = max(run.ops, 1)
    values = dict(run.info)
    for metric, prefix in _SELF_TIMES.items():
        values[metric] = ledger.layer_self(prefix) / ops
    for metric, name in _INCLUSIVE_TIMES.items():
        values[metric] = ledger.total_s.get(name, 0.0) / ops
    for metric, name in _CALLS.items():
        values[metric] = ledger.calls.get(name, 0) / ops
    values["core.prepared.working_n"] = tracing.median_or_zero(
        ledger.attr_values("core.prepared.prepare", "working_n"))
    engine_s = ledger.layer_self("core.fastpath.engine")
    if engine_s > 0:
        values["core.fastpath.nodes_per_s"] = values["core.fastpath.nodes"] * ops / engine_s
    if ledger.root_s > 0:
        values["ledger.prepare_share"] = ledger.total_s.get("core.prepared.prepare", 0.0) / ledger.root_s
        values["ledger.search_share"] = ledger.share(tracing.SEARCH_LAYERS)
    # Both passes make the same operations in the same order; compare the
    # medians over the samples both took.
    both = min(len(run.samples), len(plain.samples))
    if both:
        values["trace.overhead_frac"] = (
            statistics.median(run.samples[:both]) / statistics.median(plain.samples[:both]) - 1.0
        )
    values["bench.samples"] = float(len(run.samples))
    values["bench.failed_frac"] = len(run.failures) / max(run.attempted, 1)
    return values


def provenance(args) -> str:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return (
        f"provenance git={sha} python={platform.python_version()} nproc={os.cpu_count()} "
        f"seed={args.seed} workload={args.workload} seconds={args.seconds} trace={args.trace}"
    )


def human_lines(run: workloads.Run, metrics: dict) -> list:
    n = len(run.samples)
    samples_ms = [v * 1000.0 for v in run.samples]
    tail = f"p{round(TAIL_Q * 100)}"
    out = [
        f"setup_s {metrics['setup_s']:.4f} s (median of {len(run.setup_s)} set-ups)",
        f"latency_ms_p50 {metrics['latency_ms_p50']:.3f} ms (n={n})",
        f"latency_ms_tail {metrics['latency_ms_tail']:.3f} ms ({tail}, n={n})",
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB",
    ]
    if n:
        levels = " ".join(f"p{q}={percentile(samples_ms, q / 100):.3f}" for q in (50, 75, 90, 95, 99))
        out.append(f"latency_ms {levels} max={max(samples_ms):.3f} (n={n})")
    # The same figures under the names of the workload's own operation.
    named = {
        "sparse-cold": [("solve_s_p50", metrics["latency_ms_p50"] / 1000.0, "s")],
        "dense-search": [("solve_s_p50", metrics["latency_ms_p50"] / 1000.0, "s")],
        "service-mixed": [
            ("big_answer_s", run.info.get("service.server.big_answer_s", 0.0), "s"),
            ("contended_ms_p50", run.info.get("service.server.contended_ms_p50", 0.0), "ms"),
            ("contended_ms_p95", run.info.get("service.server.contended_ms_p95", 0.0), "ms"),
        ],
        "delta-stream": [
            ("delta_ms_p50", metrics["latency_ms_p50"], "ms"),
            (f"delta_ms_{tail}", metrics["latency_ms_tail"], "ms"),
        ],
    }[run.workload]
    out += [f"{name} {value:.4f} {unit}" for name, value, unit in named]
    out.append(f"failed_frac {len(run.failures) / max(run.attempted, 1):.4f} "
               f"({len(run.failures)} of {run.attempted})")
    out += [f"counter {k} {v:.6g}" for k, v in sorted(run.info.items())]
    if run.info.get("gen.behind"):
        out.append("FLAG: the load generator fell behind its schedule; latencies understate the load")
    return out


def execute(args, trace: bool, limit: Optional[int] = None) -> workloads.Run:
    run = workloads.Run(args.workload, args.seed, args.seconds, trace, args.scale, limit)
    workloads.WORKLOADS[args.workload](run)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    # Exit through the finally blocks that stop the server and worker processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    print(provenance(args), flush=True)
    if args.trace:
        runs = [execute(args, trace=False, limit=PROBE_OPS), execute(args, trace=True)]
        run = runs[-1]
        values = per_layer(run, runs[0])
        wanted = SPEC["per_layer"]
        unmeasured = [m["name"] for m in wanted if m["name"] not in values]
        values.update((name, 0.0) for name in unmeasured)
        print("\n".join(run.ledger.lines()))
        print("\n".join(f"{m['name']} {values[m['name']]:.6g} {m['unit']}" for m in wanted))
        print(f"not measured on {args.workload}: {' '.join(unmeasured) or '-'}")
    else:
        runs = [execute(args, trace=False)]
        run = runs[0]
        values = end_to_end(run)
        wanted = SPEC["end_to_end"]
        print("\n".join(human_lines(run, values)))
    failures = [f"{what}: {why}" for r in runs for what, why in r.failures.items()]
    for line in failures[:20]:
        print(f"failure {line}")
    result = {
        "correct": not failures,
        "attempted": max(sum(r.attempted for r in runs), 1),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
