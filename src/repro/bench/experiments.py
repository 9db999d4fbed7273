"""Experiment drivers: one function per table/figure of the paper's evaluation.

Each driver returns a structured result object carrying both the raw records
and a pre-formatted text table, so it can be used programmatically (tests,
benchmarks) or printed from the command line (``python -m repro experiments
table2``).

The defaults are scaled down from the paper (smaller synthetic graphs, a few
seconds of time limit instead of three hours, ``k ∈ {1, 2, 3, 5}`` instead of
up to 20) so that a complete reproduction run finishes on a laptop in
minutes; every scale knob can be overridden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.properties import DefectiveCliqueProperties, _analyze_k_values, aggregate_properties
from ..core.config import SolverConfig, variant_config
from ..core.prepared import prepare_instance
from ..core.solver import KDCSolver
from ..datasets.collections import DatasetInstance, all_collections, get_collection
from .harness import InstanceRecord, run_collection, count_solved, solved_within
from .reporting import format_solved_table, format_table

__all__ = [
    "ExperimentResult",
    "DEFAULT_K_VALUES",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "figure7",
    "figure8",
    "run_experiment",
    "EXPERIMENTS",
]

#: Downscaled analogue of the paper's k ∈ {1, 3, 5, 10, 15, 20}.
DEFAULT_K_VALUES = (1, 2, 3, 5)

#: Per-instance time limit (seconds) standing in for the paper's 3 hours.
DEFAULT_TIME_LIMIT = 5.0


@dataclass
class ExperimentResult:
    """Output of one experiment driver."""

    name: str
    description: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)
    records: List[InstanceRecord] = field(default_factory=list)

    def __str__(self) -> str:
        return self.text


# --------------------------------------------------------------------------- #
# Table 2: number of solved instances per algorithm / collection / k
# --------------------------------------------------------------------------- #
def table2(
    scale: str = "tiny",
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    time_limit: float = DEFAULT_TIME_LIMIT,
    algorithms: Sequence[str] = ("kDC", "KDBB", "MADEC"),
) -> ExperimentResult:
    """Reproduce Table 2: solved instances of kDC vs KDBB vs MADEC+ per collection and k."""
    sections: List[str] = []
    data: Dict[str, object] = {}
    all_records: List[InstanceRecord] = []
    for collection_name, instances in all_collections(scale=scale).items():
        records = run_collection(algorithms, instances, k_values, time_limit)
        all_records.extend(records)
        solved = count_solved(records)
        data[collection_name] = solved
        sections.append(
            format_solved_table(
                solved,
                list(k_values),
                total_instances=len(instances),
                title=f"Table 2 — {collection_name} (time limit {time_limit}s)",
            )
        )
    return ExperimentResult(
        name="table2",
        description="Number of solved instances per algorithm, collection and k",
        text="\n\n".join(sections),
        data=data,
        records=all_records,
    )


# --------------------------------------------------------------------------- #
# Table 3: per-instance processing time on the largest facebook-like graphs
# --------------------------------------------------------------------------- #
def table3(
    scale: str = "tiny",
    k_values: Sequence[int] = (1, 3),
    time_limit: float = DEFAULT_TIME_LIMIT,
    algorithms: Sequence[str] = ("kDC", "kDC/RR3&4", "kDC/UB1", "kDC-Degen", "KDBB"),
    top_fraction: float = 0.5,
) -> ExperimentResult:
    """Reproduce Table 3: per-graph runtimes of kDC, its ablations and KDBB on the largest facebook-like graphs."""
    instances = get_collection("facebook_like", scale=scale)
    instances = sorted(instances, key=lambda inst: inst.graph.num_vertices, reverse=True)
    keep = max(1, int(len(instances) * top_fraction))
    instances = instances[:keep]

    records = run_collection(algorithms, instances, k_values, time_limit)
    rows = []
    for inst in instances:
        graph = inst.graph
        row: List[object] = [inst.name, graph.num_vertices, graph.num_edges]
        for k in k_values:
            for algorithm in algorithms:
                match = [
                    r
                    for r in records
                    if r.instance == inst.name and r.k == k and r.algorithm == algorithm
                ]
                cell = "-"
                if match:
                    record = match[0]
                    cell = f"{record.elapsed_seconds:.3f}" if record.solved else "TL"
                row.append(cell)
        rows.append(row)
    headers = ["instance", "n", "m"] + [
        f"{alg} (k={k})" for k in k_values for alg in algorithms
    ]
    text = format_table(headers, rows, title=f"Table 3 — per-instance runtime (s), time limit {time_limit}s")
    return ExperimentResult(
        name="table3",
        description="Per-instance processing time of kDC, its ablations and KDBB",
        text=text,
        data={"algorithms": list(algorithms), "k_values": list(k_values)},
        records=records,
    )


# --------------------------------------------------------------------------- #
# Table 4: preprocessing comparison kDC vs kDC-Degen
# --------------------------------------------------------------------------- #
def table4(
    scale: str = "tiny",
    k_values: Sequence[int] = DEFAULT_K_VALUES,
) -> ExperimentResult:
    """Reproduce Table 4: initial-solution size and reduced-graph size, kDC preprocessing vs kDC-Degen preprocessing."""
    kdc, kdc_degen = variant_config("kDC"), variant_config("kDC-Degen")
    rows = []
    data: Dict[str, object] = {}
    for collection_name in ("real_world_like", "facebook_like"):
        instances = get_collection(collection_name, scale=scale)
        for k in k_values:
            ratio_c0, ratio_n, ratio_m, counted = 0.0, 0.0, 0.0, 0
            for inst in instances:
                full = prepare_instance(inst.graph, k, kdc, compute_digest=False)
                plain = prepare_instance(inst.graph, k, kdc_degen, compute_digest=False)
                if not plain.heuristic:
                    continue
                counted += 1
                ratio_c0 += len(full.heuristic) / len(plain.heuristic)
                ratio_n += full.working_n / max(1, plain.working_n)
                ratio_m += full.working_num_edges / max(1, plain.working_num_edges)
            if counted:
                row = [
                    collection_name,
                    k,
                    ratio_c0 / counted,
                    ratio_n / counted,
                    ratio_m / counted,
                ]
                rows.append(row)
                data[f"{collection_name}/k={k}"] = {
                    "initial_solution_ratio": ratio_c0 / counted,
                    "reduced_vertices_ratio": ratio_n / counted,
                    "reduced_edges_ratio": ratio_m / counted,
                }
    headers = ["collection", "k", "|C0_kDC| / |C0_kDC-D|", "n0_kDC / n0_kDC-D", "m0_kDC / m0_kDC-D"]
    text = format_table(headers, rows, title="Table 4 — preprocessing comparison (kDC vs kDC-Degen)")
    return ExperimentResult(
        name="table4",
        description="Initial-solution and reduced-graph comparison between kDC and kDC-Degen preprocessing",
        text=text,
        data=data,
    )


# --------------------------------------------------------------------------- #
# Tables 5, 6, 7: properties of the maximum k-defective clique
# --------------------------------------------------------------------------- #
def _property_table(
    name: str,
    description: str,
    title: str,
    columns: Sequence[Tuple[str, Callable[[Dict[str, float]], object]]],
    scale: str,
    k_values: Sequence[int],
    time_limit: float,
) -> ExperimentResult:
    """The body of Tables 5–7: one row per k, ``columns`` per collection.

    Each column is a header template (``{}`` takes the collection name) and
    the cell it reads from the collection's aggregate at that k.  Every
    instance's maximum clique is solved once, not once per k.
    """
    solver = KDCSolver(SolverConfig(time_limit=time_limit))
    headers = ["k"]
    records: Dict[str, Dict[int, List[DefectiveCliqueProperties]]] = {}
    for collection_name, instances in all_collections(scale=scale).items():
        headers.extend(header.format(collection_name) for header, _ in columns)
        per_k = records[collection_name] = {k: [] for k in k_values}
        for inst in instances:
            for record in _analyze_k_values(solver, inst.graph, k_values, inst.name):
                per_k[record.k].append(record)
    rows = []
    data: Dict[str, object] = {}
    for k in k_values:
        row: List[object] = [k]
        for collection_name, per_k in records.items():
            agg = aggregate_properties(per_k[k])
            row.extend(cell(agg) for _, cell in columns)
            data[f"{collection_name}/k={k}"] = agg
        rows.append(row)
    return ExperimentResult(
        name=name,
        description=description,
        text=format_table(headers, rows, title=title),
        data=data,
    )


def table5(
    scale: str = "tiny",
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> ExperimentResult:
    """Reproduce Table 5: ratio of maximum k-defective clique size over maximum clique size."""
    return _property_table(
        "table5",
        "Size ratio of maximum k-defective clique over maximum clique",
        "Table 5 — max k-defective clique size / max clique size",
        [("{} avg", lambda agg: agg["avg_ratio"]), ("{} max", lambda agg: agg["max_ratio"])],
        scale, k_values, time_limit,
    )


def table6(
    scale: str = "tiny",
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> ExperimentResult:
    """Reproduce Table 6: graphs whose maximum k-defective clique extends a maximum clique."""
    return _property_table(
        "table6",
        "Number of graphs whose maximum k-defective clique contains a maximum clique",
        "Table 6 — maximum k-defective clique extends a maximum clique",
        [("{}", lambda agg: f"{agg['num_extending_max_clique']}/{agg['count']}")],
        scale, k_values, time_limit,
    )


def table7(
    scale: str = "tiny",
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> ExperimentResult:
    """Reproduce Table 7: average % of vertices not fully connected inside the maximum k-defective clique."""
    return _property_table(
        "table7",
        "Average percentage of not-fully-connected vertices in the maximum k-defective clique",
        "Table 7 — vertices with missing neighbours in the maximum k-defective clique",
        [("{} (%)", lambda agg: agg["avg_pct_not_fully_connected"])],
        scale, k_values, time_limit,
    )


# --------------------------------------------------------------------------- #
# Figures 7 and 8: number of solved instances vs time limit
# --------------------------------------------------------------------------- #
def _solved_vs_time_limit(
    collection_name: str,
    scale: str,
    k_values: Sequence[int],
    time_limits: Sequence[float],
    algorithms: Sequence[str],
) -> ExperimentResult:
    instances = get_collection(collection_name, scale=scale)
    max_limit = max(time_limits)
    records = run_collection(algorithms, instances, k_values, max_limit)
    sections: List[str] = []
    data: Dict[str, object] = {}
    for k in k_values:
        k_records = [r for r in records if r.k == k]
        rows = []
        for limit in time_limits:
            solved = solved_within(k_records, limit)
            row: List[object] = [limit]
            for algorithm in algorithms:
                row.append(solved.get(algorithm, {}).get(k, 0))
            rows.append(row)
            data[f"k={k}/limit={limit}"] = {
                algorithm: solved.get(algorithm, {}).get(k, 0) for algorithm in algorithms
            }
        headers = ["time limit (s)"] + list(algorithms)
        sections.append(
            format_table(headers, rows, title=f"{collection_name}: #solved instances vs time limit (k={k})")
        )
    return ExperimentResult(
        name=f"solved_vs_time_{collection_name}",
        description=f"Number of solved instances vs time limit on {collection_name}",
        text="\n\n".join(sections),
        data=data,
        records=records,
    )


def _limits_from_budget(time_limit: Optional[float], default: Sequence[float]) -> Sequence[float]:
    """Derive a sweep of plotted time limits from a single overall budget."""
    if time_limit is None:
        return default
    return (time_limit / 20, time_limit / 5, time_limit / 2, time_limit)


def figure7(
    scale: str = "tiny",
    k_values: Sequence[int] = (1, 3),
    time_limits: Sequence[float] = (0.1, 0.3, 1.0, 3.0, 5.0),
    algorithms: Sequence[str] = ("kDC", "kDC/RR3&4", "kDC/UB1", "kDC-Degen", "KDBB"),
    time_limit: Optional[float] = None,
) -> ExperimentResult:
    """Reproduce Figure 7: solved instances vs time limit on the real-world-like collection.

    ``time_limit`` (a single budget) is a convenience used by the CLI: when
    given, the plotted sweep is derived from it instead of ``time_limits``.
    """
    limits = _limits_from_budget(time_limit, time_limits)
    result = _solved_vs_time_limit("real_world_like", scale, k_values, limits, algorithms)
    result.name = "figure7"
    return result


def figure8(
    scale: str = "tiny",
    k_values: Sequence[int] = (1, 3),
    time_limits: Sequence[float] = (0.1, 0.3, 1.0, 3.0, 5.0),
    algorithms: Sequence[str] = ("kDC", "kDC/RR3&4", "kDC/UB1", "kDC-Degen", "KDBB"),
    time_limit: Optional[float] = None,
) -> ExperimentResult:
    """Reproduce Figure 8: solved instances vs time limit on the facebook-like collection.

    See :func:`figure7` for the meaning of ``time_limit``.
    """
    limits = _limits_from_budget(time_limit, time_limits)
    result = _solved_vs_time_limit("facebook_like", scale, k_values, limits, algorithms)
    result.name = "figure8"
    return result


#: Registry used by the command line interface.
EXPERIMENTS = {
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "table7": table7,
    "figure7": figure7,
    "figure8": figure8,
}


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run a named experiment (see :data:`EXPERIMENTS` for the available names)."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}")
    return EXPERIMENTS[name](**kwargs)
