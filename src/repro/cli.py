"""Command line interface: ``python -m repro`` / ``repro-kdc``.

Sub-commands
------------
* ``solve``       — find a maximum k-defective clique of a graph file
  (``--backend set|bitset|auto`` selects the search-state backend, where
  ``auto`` is bitset; the bitset backend adds a degeneracy decomposition
  on large instances, ``--workers N`` runs the decomposition's ego
  subproblems across N processes with no change to the optimal size
  returned, and ``--stats`` dumps the full search counters);
* ``compare``     — run several algorithms on one graph and tabulate them;
* ``top-r``       — top-r maximal or diversified k-defective cliques;
* ``properties``  — Tables 5–7 style analysis of one graph;
* ``experiments`` — run one of the paper's table/figure reproductions, or
  drive the SQLite experiment store: ``experiments run`` executes the
  instance × k × algorithm × backend × workers matrix with per-cell
  checkpoints (interrupted campaigns resume), ``experiments export`` dumps
  a run as JSON, and ``experiments query`` runs read-only SQL (or a canned
  trend report such as ``--report throughput-trend``) with table or CSV
  output;
* ``stats``       — print structural statistics of a graph file;
* ``generate``    — write a synthetic collection to disk as edge-list files;
* ``gamma``       — print the theoretical branching factors γ_k and σ_k;
* ``serve``       — run a long-lived solver service speaking a JSON-lines
  TCP protocol (graphs are prepared once and cached by content digest;
  repeated queries are answered from a result cache — see
  :mod:`repro.service`);
* ``mutate``      — apply an edge delta (``--add U V`` / ``--remove U V``)
  to a graph stored in a running service; the successor becomes a
  first-class stored graph whose solves are answered incrementally from
  the predecessor's solve when possible (see :mod:`repro.dynamic`).

Failures surface as a one-line ``error: ...`` message on stderr and a
non-zero exit code instead of a traceback.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from typing import List, Optional

from .analysis.properties import analyze_graph
from .bench.comparison import compare_table2_shape
from .bench.experiments import DEFAULT_K_VALUES, EXPERIMENTS, run_experiment
from .bench.harness import ALGORITHMS, make_solver, run_instance
from .core.config import BACKEND_NAMES
from .bench.reporting import format_table
from .core.gamma import complexity_comparison
from .datasets.collections import COLLECTION_NAMES, SCALES, get_collection
from .exceptions import ReproError
from .extensions import top_r_diversified_defective_cliques, top_r_maximal_defective_cliques
from .graphs.io import load_graph, write_edge_list
from .graphs.stats import graph_stats

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-kdc",
        description="Maximum k-defective clique computation (reproduction of SIGMOD 2023 kDC).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="solve one graph file")
    solve.add_argument("path", help="graph file (edge list, DIMACS or METIS)")
    solve.add_argument("-k", type=int, required=True, help="number of tolerated missing edges")
    solve.add_argument(
        "--algorithm",
        default="kDC",
        choices=list(ALGORITHMS),
        help="algorithm / variant to run (default: kDC)",
    )
    solve.add_argument("--time-limit", type=float, default=None, help="wall-clock budget in seconds")
    solve.add_argument("--format", default="auto", choices=["auto", "edgelist", "dimacs", "metis"])
    solve.add_argument("--show-vertices", action="store_true", help="print the clique's vertices")
    solve.add_argument(
        "--backend",
        default=None,
        choices=list(BACKEND_NAMES),
        help="search-state backend for the kDC variants: 'set' (dict/set states), "
        "'bitset' (packed adjacency bitmaps + degeneracy decomposition on large "
        "instances), or 'auto' (the default; same as bitset)",
    )
    solve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the degeneracy decomposition (kDC variants "
        "only; default 1 = sequential).  With N >= 2 the per-vertex ego "
        "subproblems run across a multiprocessing pool sharing one best-size "
        "incumbent; the optimal size returned is identical for every worker "
        "count — only wall-clock time changes.  Takes effect when the bitset "
        "backend decomposes (instance >= decompose-threshold vertices and a "
        "usable heuristic bound); otherwise the solve is sequential",
    )
    solve.add_argument(
        "--stats",
        action="store_true",
        help="print the full search statistics (nodes, prunes, per-rule "
        "reductions, trail pushes/pops, dirty-queue drains, recolor "
        "full/repair counts, ...) after the solve summary",
    )

    compare = subparsers.add_parser("compare", help="run several algorithms on one graph and tabulate them")
    compare.add_argument("path")
    compare.add_argument("-k", type=int, required=True)
    compare.add_argument(
        "--algorithms",
        nargs="+",
        default=["kDC", "KDBB", "MADEC"],
        choices=list(ALGORITHMS) + ["MADEC+"],
    )
    compare.add_argument("--time-limit", type=float, default=None)
    compare.add_argument("--format", default="auto", choices=["auto", "edgelist", "dimacs", "metis"])

    top_r = subparsers.add_parser("top-r", help="find the top-r (maximal or diversified) k-defective cliques")
    top_r.add_argument("path")
    top_r.add_argument("-k", type=int, required=True)
    top_r.add_argument("-r", type=int, default=3)
    top_r.add_argument("--diversified", action="store_true",
                       help="maximise distinct-vertex coverage instead of individual sizes")
    top_r.add_argument("--format", default="auto", choices=["auto", "edgelist", "dimacs", "metis"])

    properties = subparsers.add_parser("properties", help="Tables 5-7 style analysis of one graph")
    properties.add_argument("path")
    properties.add_argument("-k", type=int, required=True)
    properties.add_argument("--time-limit", type=float, default=None)
    properties.add_argument("--format", default="auto", choices=["auto", "edgelist", "dimacs", "metis"])

    experiments = subparsers.add_parser(
        "experiments",
        help="paper reproductions plus the SQLite experiment store (run/export/query)",
    )
    exp_sub = experiments.add_subparsers(dest="name", required=True, metavar="NAME")
    for exp_name, experiment in sorted(EXPERIMENTS.items()):
        paper_exp = exp_sub.add_parser(exp_name, help=f"reproduce {exp_name} of the paper")
        paper_exp.add_argument("--scale", default="tiny", choices=list(SCALES))
        # Only the experiments that search take a budget (table4 only prepares).
        if "time_limit" in inspect.signature(experiment).parameters:
            paper_exp.add_argument(
                "--time-limit", type=float, default=None, help="per-instance budget in seconds"
            )

    exp_run = exp_sub.add_parser(
        "run",
        help="execute the instance x k x algorithm x backend x workers "
        "matrix into a SQLite experiment store, checkpointing each cell "
        "(an interrupted campaign resumes instead of restarting)",
    )
    exp_run.add_argument("--db", default="experiments.sqlite", help="experiment store file")
    exp_run.add_argument("--label", default="matrix", help="run label recorded in the store")
    exp_run.add_argument(
        "--collections",
        nargs="+",
        default=["facebook_like"],
        choices=list(COLLECTION_NAMES),
        help="dataset collections forming the instance axis",
    )
    exp_run.add_argument("--scale", default="tiny", choices=list(SCALES))
    exp_run.add_argument(
        "--instance-limit",
        type=int,
        default=None,
        help="take only the first N instances of each collection",
    )
    exp_run.add_argument("--k", nargs="+", type=int, default=[1], help="k values to test")
    exp_run.add_argument(
        "--algorithms", nargs="+", default=["kDC"], choices=list(ALGORITHMS) + ["MADEC+"]
    )
    exp_run.add_argument("--backends", nargs="+", default=["set", "bitset"], choices=list(BACKEND_NAMES))
    exp_run.add_argument("--workers", nargs="+", type=int, default=[1], help="worker-process counts")
    exp_run.add_argument("--time-limit", type=float, default=2.0, help="per-cell budget in seconds")
    exp_run.add_argument(
        "--max-cells", type=int, default=None, help="execute at most N missing cells, then stop"
    )
    exp_run.add_argument(
        "--no-resume",
        action="store_true",
        help="always start a fresh run row instead of resuming an unfinished campaign",
    )

    exp_export = exp_sub.add_parser(
        "export", help="export one run (run row, cells, logs) as JSON"
    )
    exp_export.add_argument("--db", default="experiments.sqlite", help="experiment store file")
    exp_export.add_argument(
        "--run", type=int, default=None, help="run id to export (default: latest run with cells)"
    )
    exp_export.add_argument("--out", default=None, help="output file (default: stdout)")

    exp_query = exp_sub.add_parser(
        "query",
        help="run read-only SQL (or a canned trend report) against the "
        "experiment store and print a table or CSV",
    )
    exp_query.add_argument("--db", default="experiments.sqlite", help="experiment store file")
    exp_query.add_argument(
        "sql",
        nargs="?",
        default=None,
        help="a read-only SQL statement (SELECT/WITH/EXPLAIN); "
        "omit when using --report",
    )
    exp_query.add_argument(
        "--report",
        default=None,
        metavar="NAME",
        help="run a canned report instead of raw SQL; use --report list to "
        "see the available reports",
    )
    exp_query.add_argument(
        "--csv", action="store_true", help="emit CSV instead of an aligned table"
    )

    stats = subparsers.add_parser("stats", help="print structural statistics of a graph file")
    stats.add_argument("path")
    stats.add_argument("--format", default="auto", choices=["auto", "edgelist", "dimacs", "metis"])

    generate = subparsers.add_parser("generate", help="write a synthetic collection to disk")
    generate.add_argument("collection", choices=list(COLLECTION_NAMES))
    generate.add_argument("output_dir")
    generate.add_argument("--scale", default="small", choices=list(SCALES))

    gamma_cmd = subparsers.add_parser("gamma", help="print the theoretical branching factors")
    gamma_cmd.add_argument("--max-k", type=int, default=10)

    serve = subparsers.add_parser(
        "serve",
        help="run a long-lived solver service (JSON-lines TCP protocol)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=7317,
        help="TCP port; 0 picks an ephemeral port, printed on startup (default 7317)",
    )
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        help="maximum number of simultaneously executing solves (default 4)",
    )
    serve.add_argument(
        "--backend",
        default="auto",
        choices=list(BACKEND_NAMES),
        help="search-state backend answering queries (default auto)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes per solve for the degeneracy decomposition (default 1)",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="end-to-end deadline applied to requests that carry none "
             "(queue wait + prepare + solve; default: no deadline)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="admission-control bound on queued requests; beyond it requests "
             "are shed with a retry-after hint (default: unbounded)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="on shutdown (SIGTERM/SIGINT/shutdown op), how long to drain "
             "in-flight solves before cancelling them (default: wait forever)",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="PATH",
        help="directory for durable service state (graphs, prepared artifacts, "
             "result journal, solve checkpoints); restored on startup, so a "
             "crashed or killed service restarts warm (default: in-memory only)",
    )
    serve.add_argument(
        "--preload",
        nargs="*",
        default=[],
        metavar="PATH",
        help="graph files to load into the store at startup (digests printed)",
    )
    serve.add_argument(
        "--format", default="auto", choices=["auto", "edgelist", "dimacs", "metis"],
        help="format of the --preload files",
    )

    mutate = subparsers.add_parser(
        "mutate",
        help="apply an edge delta to a graph stored in a running service",
    )
    mutate.add_argument(
        "graph",
        help="predecessor graph: a content digest or a stored name",
    )
    mutate.add_argument("--host", default="127.0.0.1", help="service address (default 127.0.0.1)")
    mutate.add_argument("--port", type=int, default=7317, help="service port (default 7317)")
    mutate.add_argument(
        "--add",
        action="append",
        nargs=2,
        default=[],
        metavar=("U", "V"),
        help="edge to add (repeatable)",
    )
    mutate.add_argument(
        "--remove",
        action="append",
        nargs=2,
        default=[],
        metavar=("U", "V"),
        help="edge to remove (repeatable)",
    )
    mutate.add_argument(
        "--name",
        default=None,
        help="optional name for the successor graph (a stream of mutations "
        "can keep one stable name)",
    )
    mutate.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="socket timeout in seconds (default 30)",
    )

    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = load_graph(args.path, fmt=args.format)
    solver = make_solver(
        args.algorithm, time_limit=args.time_limit, backend=args.backend,
        workers=args.workers,
    )
    result = solver.solve(graph, args.k)
    print(result.summary())
    if args.show_vertices:
        print("vertices:", " ".join(str(v) for v in result.clique))
    if args.stats:
        for key, value in result.stats.as_dict().items():
            print(f"{key}: {value}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = load_graph(args.path, fmt=args.format)
    rows = []
    for algorithm in args.algorithms:
        record = run_instance(algorithm, graph, args.k, args.time_limit, instance=os.path.basename(args.path))
        rows.append(
            [
                algorithm,
                record.size,
                "yes" if record.solved else "no (budget)",
                f"{record.elapsed_seconds:.3f}",
                record.nodes,
            ]
        )
    print(format_table(["algorithm", "size", "optimal", "time (s)", "nodes"], rows,
                       title=f"maximum {args.k}-defective clique on {args.path}"))
    return 0


def _cmd_top_r(args: argparse.Namespace) -> int:
    graph = load_graph(args.path, fmt=args.format)
    if args.diversified:
        cliques = top_r_diversified_defective_cliques(graph, args.k, args.r)
        kind = "diversified"
    else:
        cliques = top_r_maximal_defective_cliques(graph, args.k, args.r)
        kind = "maximal"
    print(f"top-{args.r} {kind} {args.k}-defective cliques of {args.path}:")
    for i, clique in enumerate(cliques, start=1):
        print(f"  #{i} (size {len(clique)}): {' '.join(str(v) for v in clique)}")
    return 0


def _cmd_properties(args: argparse.Namespace) -> int:
    graph = load_graph(args.path, fmt=args.format)
    record = analyze_graph(graph, args.k, graph_name=os.path.basename(args.path),
                           time_limit=args.time_limit)
    print(f"maximum clique size:              {record.max_clique_size}")
    print(f"maximum {args.k}-defective clique size: {record.max_defective_clique_size}")
    print(f"size ratio:                       {record.size_ratio:.3f}")
    print(f"extends a maximum clique:         {'yes' if record.extends_max_clique else 'no'}")
    print(f"vertices with missing neighbours: {100 * record.fraction_not_fully_connected:.1f}%")
    print(f"both computations optimal:        {'yes' if record.solved else 'no'}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.name == "run":
        return _cmd_experiments_run(args)
    if args.name == "export":
        return _cmd_experiments_export(args)
    if args.name == "query":
        return _cmd_experiments_query(args)
    kwargs = {"scale": args.scale}
    if getattr(args, "time_limit", None) is not None:
        kwargs["time_limit"] = args.time_limit
    result = run_experiment(args.name, **kwargs)
    print(result.text)
    if args.name == "table2":
        # Informational only: the exit code does not depend on the verdicts.
        print("\nShape against the paper's Table 2:")
        for check in compare_table2_shape(result.data, DEFAULT_K_VALUES):
            print(check)
    return 0


def _cmd_experiments_run(args: argparse.Namespace) -> int:
    # Imported lazily like `serve`: the store machinery (sqlite) is only
    # needed by the experiments surface.
    from .bench.runner import MatrixSpec, run_matrix
    from .bench.store import ExperimentStore

    spec = MatrixSpec(
        collections=tuple(args.collections),
        scale=args.scale,
        k_values=tuple(args.k),
        algorithms=tuple(args.algorithms),
        backends=tuple(args.backends),
        workers=tuple(args.workers),
        time_limit=args.time_limit,
        instance_limit=args.instance_limit,
    )

    def progress(keyfields, record):
        cell = "/".join(
            str(keyfields[f]) for f in ("collection", "instance", "k", "algorithm")
        )
        axes = f"{keyfields['backend'] or '-'}:w{keyfields['workers']}"
        print(
            f"  {cell} [{axes}] size={record.size}"
            f" nodes={record.nodes} {record.elapsed_seconds:.3f}s",
            flush=True,
        )

    with ExperimentStore(args.db) as store:
        report = run_matrix(
            store,
            spec,
            label=args.label,
            resume=not args.no_resume,
            max_cells=args.max_cells,
            progress=progress,
        )
    print(report.summary())
    return 0


def _cmd_experiments_export(args: argparse.Namespace) -> int:
    import json

    from .bench.store import ExperimentStore

    with ExperimentStore(args.db) as store:
        run_id = args.run
        if run_id is None:
            run_id = store.latest_run(with_cells=True)
        if run_id is None:
            raise ReproError(f"no runs with recorded cells in {args.db}")
        payload = store.export_run(run_id)
    text = json.dumps(payload, indent=2, sort_keys=False)
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"exported run {run_id} -> {args.out}")
    return 0


def _cmd_experiments_query(args: argparse.Namespace) -> int:
    import sqlite3

    from .bench.store import CANNED_REPORTS, query_store

    if args.report == "list" or (args.report is None and args.sql is None):
        print(format_table(
            ["report", "description"],
            [(name, desc) for name, (desc, _) in sorted(CANNED_REPORTS.items())],
            title="canned reports (repro experiments query --report NAME)",
        ))
        return 0
    if args.report is not None and args.sql is not None:
        raise ReproError("pass either raw SQL or --report, not both")
    if args.report is not None:
        if args.report not in CANNED_REPORTS:
            known = ", ".join(sorted(CANNED_REPORTS))
            raise ReproError(f"unknown report {args.report!r}; known reports: {known}")
        sql = CANNED_REPORTS[args.report][1]
    else:
        sql = args.sql
    try:
        headers, rows = query_store(args.db, sql)
    except sqlite3.Error as exc:
        raise ReproError(f"SQL error: {exc}") from exc
    if args.csv:
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(headers)
        writer.writerows(rows)
    else:
        print(format_table(headers, rows))
        print(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")
    return 0


def _cmd_mutate(args: argparse.Namespace) -> int:
    from .service.client import Client

    def vertex(token: str):
        try:
            return int(token)
        except ValueError:
            return token

    adds = [(vertex(u), vertex(v)) for u, v in args.add]
    removes = [(vertex(u), vertex(v)) for u, v in args.remove]
    with Client.connect(args.host, args.port, timeout=args.timeout) as client:
        reply = client.mutate(args.graph, adds=adds, removes=removes, name=args.name)
    print(
        f"mutated {args.graph}: +{reply['adds']} -{reply['removes']} edges"
        f" -> n={reply['n']} m={reply['m']}"
    )
    print(f"digest: {reply['digest']}")
    print(f"parent: {reply['parent']}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_graph(args.path, fmt=args.format)
    summary = graph_stats(graph)
    for key, value in summary.as_dict().items():
        print(f"{key}: {value}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    os.makedirs(args.output_dir, exist_ok=True)
    instances = get_collection(args.collection, scale=args.scale)
    for inst in instances:
        path = os.path.join(args.output_dir, f"{inst.name}.edges")
        write_edge_list(inst.graph, path)
        print(f"wrote {inst.describe()} -> {path}")
    return 0


def _cmd_gamma(args: argparse.Namespace) -> int:
    print(f"{'k':>3}  {'gamma_k (kDC)':>14}  {'sigma_k (MADEC+)':>17}")
    for row in complexity_comparison(list(range(args.max_k + 1))):
        print(f"{row.k:>3}  {row.gamma_k:>14.6f}  {row.sigma_k:>17.6f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: every other sub-command works without the service
    # machinery, and keeping the import here keeps their startup unchanged.
    import signal
    import threading

    from .core.config import SolverConfig
    from .service import ServiceServer, run_server

    config = SolverConfig(backend=args.backend, workers=args.workers)
    server = ServiceServer(
        host=args.host,
        port=args.port,
        config=config,
        max_concurrency=args.max_concurrency,
        default_deadline=args.default_deadline,
        max_pending=args.max_pending,
        drain_timeout=args.drain_timeout,
        state_dir=args.state_dir,
    )
    if args.state_dir is not None:
        counters = server.service.stats()
        print(
            f"state restored from {args.state_dir}: "
            f"{counters['restored_graphs']} graph(s), "
            f"{counters['restored_prepared']} prepared artifact(s), "
            f"{counters['restored_results']} cached result(s)"
            + (f", {counters['migrated_digests']} graph digest(s) migrated"
               if counters["migrated_digests"] else ""),
            flush=True,
        )
    for path in args.preload:
        graph = load_graph(path, fmt=args.format)
        digest = server.service.store.add(graph, name=os.path.basename(path))
        print(f"preloaded {path}: digest {digest}", flush=True)

    def _graceful_stop(signum, _frame) -> None:
        # shutdown() joins the serve loop; calling it from the signal frame
        # (which interrupts that very loop) would deadlock — stop from a
        # helper thread, then run_server's cleanup drains the service.
        print(f"received signal {signum}; draining and shutting down", flush=True)
        threading.Thread(target=server.shutdown, daemon=True).start()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, _graceful_stop)
        except ValueError:  # pragma: no cover - non-main thread (embedded use)
            pass
    try:
        run_server(server)
    except KeyboardInterrupt:  # pragma: no cover - direct ^C fallback
        server.server_close()
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "top-r": _cmd_top_r,
    "properties": _cmd_properties,
    "experiments": _cmd_experiments,
    "stats": _cmd_stats,
    "generate": _cmd_generate,
    "gamma": _cmd_gamma,
    "serve": _cmd_serve,
    "mutate": _cmd_mutate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Library failures (unreadable or malformed graph files, invalid
    parameters, service errors — anything deriving from
    :class:`~repro.exceptions.ReproError` or :class:`OSError`) are reported
    as a one-line ``error: ...`` on stderr with exit code 2; Ctrl-C exits
    130 (the conventional ``128 + SIGINT``) instead of dumping a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
