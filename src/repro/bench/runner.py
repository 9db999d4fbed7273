"""Resumable experiment-matrix runner over the :class:`ExperimentStore`.

A campaign executes the full ``instance × k × algorithm × backend × workers``
grid described by a :class:`MatrixSpec`.  Every completed cell is
committed to the store before the next one starts, so an interrupted
campaign (Ctrl-C, crash, CI timeout, ``max_cells`` budget) resumes from its
checkpoint: re-running the same spec finds the unfinished run row (matched
by the spec digest) and executes only the missing cells.

The grid is normalised rather than taken as a raw cross product: the
``KDBB``/``MADEC`` baselines have a single implementation and reject
backend/workers selection, so they contribute one cell per
``(instance, k)``.  The store's ``engine`` keyfield is ``"trail"`` on the
other non-set cells and ``""`` elsewhere — what it held while the bitset
backend had two engines, so old and new runs pair cell for cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import BACKEND_NAMES
from ..datasets.collections import COLLECTION_NAMES, SCALES, DatasetInstance, get_collection
from ..exceptions import InvalidParameterError
from .harness import ALGORITHMS, InstanceRecord, run_instance
from .store import ExperimentStore, split_record

__all__ = ["MatrixSpec", "RunReport", "run_matrix"]

#: Algorithms with a single implementation (no backend/workers axes).
_BASELINES = ("KDBB", "MADEC", "MADEC+")

#: The ``engine`` keyfield of every non-set kDC cell.
_BITSET_ENGINE = "trail"


@dataclass(frozen=True)
class MatrixSpec:
    """The experiment grid of one campaign.

    The spec is hashable into a stable digest (:meth:`digest`) that names
    the campaign in the store — resuming matches on it, so two specs differ
    exactly when their grids differ.
    """

    collections: Tuple[str, ...] = ("facebook_like",)
    scale: str = "tiny"
    k_values: Tuple[int, ...] = (1,)
    algorithms: Tuple[str, ...] = ("kDC",)
    backends: Tuple[str, ...] = ("set", "bitset")
    workers: Tuple[int, ...] = (1,)
    time_limit: Optional[float] = 2.0
    node_limit: Optional[int] = None
    #: cap on instances taken per collection (None = all at this scale);
    #: lets smoke grids stay small without inventing a new scale
    instance_limit: Optional[int] = None

    def __post_init__(self) -> None:
        for name in self.collections:
            if name not in COLLECTION_NAMES:
                raise InvalidParameterError(
                    f"unknown collection {name!r}; expected one of {', '.join(COLLECTION_NAMES)}"
                )
        if self.scale not in SCALES:
            raise InvalidParameterError(
                f"unknown scale {self.scale!r}; expected one of {', '.join(SCALES)}"
            )
        for name in self.algorithms:
            if name not in ALGORITHMS and name != "MADEC+":
                raise InvalidParameterError(
                    f"unknown algorithm {name!r}; expected one of {', '.join(ALGORITHMS)}"
                )
        for name in self.backends:
            if name not in BACKEND_NAMES:
                raise InvalidParameterError(
                    f"unknown backend {name!r}; expected one of {', '.join(BACKEND_NAMES)}"
                )
        if not self.k_values:
            raise InvalidParameterError("k_values must not be empty")
        if any(k < 0 for k in self.k_values):
            raise InvalidParameterError("k values must be non-negative")
        if any(w < 1 for w in self.workers):
            raise InvalidParameterError("worker counts must be positive")
        if self.instance_limit is not None and self.instance_limit < 1:
            raise InvalidParameterError("instance_limit must be positive when given")

    def digest(self) -> str:
        """Stable 16-hex-digit identity of this grid (used to match resumes)."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def instances(self) -> List[DatasetInstance]:
        """Materialise the spec's dataset instances (seeded, so deterministic)."""
        out: List[DatasetInstance] = []
        for name in self.collections:
            instances = get_collection(name, scale=self.scale)
            if self.instance_limit is not None:
                instances = instances[: self.instance_limit]
            out.extend(instances)
        return out

    def cell_keyfields(self, instances: Sequence[DatasetInstance]) -> List[Dict[str, object]]:
        """The normalised grid: one keyfield dict per cell, in execution order."""
        cells: List[Dict[str, object]] = []
        for inst in instances:
            for k in self.k_values:
                for algorithm in self.algorithms:
                    if algorithm in _BASELINES:
                        cells.append(
                            {
                                "collection": inst.collection,
                                "instance": inst.name,
                                "k": k,
                                "algorithm": algorithm,
                                "backend": "",
                                "engine": "",
                                "workers": 0,
                            }
                        )
                        continue
                    for backend in self.backends:
                        engine = "" if backend == "set" else _BITSET_ENGINE
                        for workers in self.workers:
                            cells.append(
                                {
                                    "collection": inst.collection,
                                    "instance": inst.name,
                                    "k": k,
                                    "algorithm": algorithm,
                                    "backend": backend,
                                    "engine": engine,
                                    "workers": workers,
                                }
                            )
        return cells


@dataclass
class RunReport:
    """What one :func:`run_matrix` call did."""

    run_id: int
    status: str
    total_cells: int
    executed: int
    skipped: int
    resumed: bool
    records: List[InstanceRecord] = field(default_factory=list)

    @property
    def remaining(self) -> int:
        return self.total_cells - self.executed - self.skipped

    def summary(self) -> str:
        return (
            f"run {self.run_id} [{self.status}]: {self.executed} executed,"
            f" {self.skipped} checkpointed, {self.remaining} remaining"
            f" of {self.total_cells} cells"
            + (" (resumed)" if self.resumed else "")
        )


def _execute_cell(
    keyfields: Dict[str, object], spec: MatrixSpec, graph
) -> InstanceRecord:
    """Run the solver for one grid cell and return its measurement record."""
    algorithm = str(keyfields["algorithm"])
    if algorithm in _BASELINES:
        backend = workers = None
    else:
        backend = str(keyfields["backend"])
        workers = int(keyfields["workers"])
    return run_instance(
        algorithm,
        graph,
        int(keyfields["k"]),
        spec.time_limit,
        collection=str(keyfields["collection"]),
        instance=str(keyfields["instance"]),
        backend=backend,
        workers=workers,
    )


def run_matrix(
    store: ExperimentStore,
    spec: MatrixSpec,
    label: str = "matrix",
    resume: bool = True,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[Dict[str, object], InstanceRecord], None]] = None,
) -> RunReport:
    """Execute (or continue) the campaign described by ``spec``.

    Parameters
    ----------
    store:
        Experiment store receiving the checkpointed cells.
    spec:
        The grid to execute.
    label:
        Human-readable run label (recorded on new run rows).
    resume:
        When True (default), an unfinished run with the same spec digest is
        continued — only its missing cells execute.  When False a fresh run
        row always starts.
    max_cells:
        Execute at most this many *missing* cells, then stop with status
        ``partial`` (the incremental-campaign / smoke-budget knob).
    progress:
        Optional callback invoked after each executed cell with
        ``(keyfields, record)``.

    A ``KeyboardInterrupt`` mid-campaign marks the run ``interrupted`` (and
    logs the event) before propagating, so the next ``resume=True`` call
    picks the campaign up at its checkpoint.
    """
    if max_cells is not None and max_cells < 1:
        raise InvalidParameterError("max_cells must be positive when given")
    digest = spec.digest()
    instances = spec.instances()
    cells = spec.cell_keyfields(instances)
    graphs = {(inst.collection, inst.name): inst for inst in instances}

    run_id = store.find_resumable(digest) if resume else None
    resumed = run_id is not None
    if run_id is None:
        run_id = store.begin_run(label=label, spec_digest=digest, meta=asdict(spec))
        store.log(run_id, "begin", {"cells": len(cells), "spec_digest": digest})
    else:
        store.log(run_id, "resume", {"cells": len(cells)})

    report = RunReport(
        run_id=run_id,
        status="running",
        total_cells=len(cells),
        executed=0,
        skipped=0,
        resumed=resumed,
    )
    try:
        for keyfields in cells:
            if store.has_cell(run_id, keyfields):
                report.skipped += 1
                continue
            if max_cells is not None and report.executed >= max_cells:
                break
            inst = graphs[(keyfields["collection"], keyfields["instance"])]
            record = _execute_cell(keyfields, spec, inst.graph)
            _, resultfields, extra = split_record(record.as_dict())
            experiment_id = store.record(
                run_id, keyfields, resultfields, extra=extra
            )
            store.log(
                run_id,
                "cell_done",
                {"elapsed_seconds": record.elapsed_seconds, "nodes": record.nodes},
                experiment_id=experiment_id,
            )
            report.executed += 1
            report.records.append(record)
            if progress is not None:
                progress(keyfields, record)
    except KeyboardInterrupt:
        report.status = "interrupted"
        store.log(
            run_id,
            "interrupted",
            {"executed": report.executed, "skipped": report.skipped},
        )
        store.finish_run(run_id, status="interrupted")
        raise
    if report.remaining == 0:
        report.status = "complete"
    else:
        report.status = "partial"
    store.log(
        run_id,
        report.status,
        {"executed": report.executed, "skipped": report.skipped, "remaining": report.remaining},
    )
    store.finish_run(run_id, status=report.status)
    return report
