"""Benchmark harness reproducing every table and figure of the paper's evaluation."""

from .comparison import ShapeCheck, compare_table2_shape, ordering_holds, trend_is_non_decreasing
from .experiments import (
    DEFAULT_K_VALUES,
    EXPERIMENTS,
    ExperimentResult,
    figure7,
    figure8,
    run_experiment,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from .harness import (
    ALGORITHMS,
    InstanceRecord,
    count_solved,
    make_solver,
    run_collection,
    run_instance,
    solved_within,
)
from .reporting import format_float, format_solved_table, format_table
from .runner import MatrixSpec, RunReport, run_matrix
from .store import (
    KEYFIELDS,
    RESULTFIELDS,
    ExperimentStore,
    split_record,
)

__all__ = [
    "KEYFIELDS",
    "RESULTFIELDS",
    "ExperimentStore",
    "split_record",
    "MatrixSpec",
    "RunReport",
    "run_matrix",
    "ALGORITHMS",
    "make_solver",
    "InstanceRecord",
    "run_instance",
    "run_collection",
    "count_solved",
    "solved_within",
    "ExperimentResult",
    "EXPERIMENTS",
    "DEFAULT_K_VALUES",
    "run_experiment",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "figure7",
    "figure8",
    "format_table",
    "format_solved_table",
    "format_float",
    "ShapeCheck",
    "compare_table2_shape",
    "ordering_holds",
    "trend_is_non_decreasing",
]
