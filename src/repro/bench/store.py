"""SQLite-backed experiment store: the repository's perf trajectory memory.

The paper's headline evaluation is "instances solved within a time limit"
across an algorithm × instance × k matrix, and the repo's performance story
(PR 1's bitset backend, PR 3's trail engine, PR 6's prepare amortization) is
only durable if those measurements accumulate somewhere queryable.  The
:class:`ExperimentStore` keeps them in one SQLite file, organised in the
style of py_experimenter (keyfields → resultfields, plus incremental log
tables):

* ``runs`` — one row per campaign: label, the spec digest that identifies
  the matrix it executes, git SHA, host, python version, CPU count, start/
  finish timestamps and a status (``running``/``partial``/``interrupted``/
  ``complete``);
* ``experiments`` — one row per completed cell, keyed by the **keyfields**
  ``(collection, instance, k, algorithm, backend, engine, workers)`` —
  ``engine`` is ``"trail"`` for bitset cells and ``""`` otherwise; nothing
  pairs cells by it any more, and the column stays so existing stores keep
  their schema — with the **resultfields** ``size``/``optimal``/``nodes``/``elapsed_seconds``/
  ``node_throughput`` plus the request-level phase timings
  (``prepare_ms``/``queue_ms``/``solve_ms``/``cache_hit``) introduced by the
  solver service.  Unmapped fields survive in an ``extra`` JSON column.
  A UNIQUE constraint over ``(run_id, *keyfields)`` is what makes campaigns
  checkpointable: a cell either exists or it does not;
* ``logs`` — an append-only event stream per run (begin/resume/cell_done/
  interrupted/...), the debugging trail of long campaigns.

For ad-hoc analysis, :func:`query_store` runs read-only SQL (the database
is opened in SQLite's ``mode=ro``; only ``SELECT``/``WITH``/``EXPLAIN``
statements are admitted) and :data:`CANNED_REPORTS` names a few prepared
trend queries — ``repro experiments query`` exposes both with table or CSV
output.
"""

from __future__ import annotations

import json
import os
import platform
import sqlite3
import subprocess
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import InvalidParameterError

__all__ = [
    "KEYFIELDS",
    "RESULTFIELDS",
    "CANNED_REPORTS",
    "ExperimentStore",
    "query_store",
    "split_record",
]

#: Fields identifying one experiment cell (the py_experimenter "keyfields").
KEYFIELDS = ("collection", "instance", "k", "algorithm", "backend", "engine", "workers")

#: Measured outcome fields of one cell (the "resultfields").
RESULTFIELDS = (
    "size",
    "optimal",
    "nodes",
    "elapsed_seconds",
    "node_throughput",
    "prepare_ms",
    "queue_ms",
    "solve_ms",
    "cache_hit",
)

#: Run statuses: ``running`` (in progress or crashed), ``partial`` (stopped
#: at a cell budget), ``interrupted`` (Ctrl-C), ``complete`` (all cells done).
RUN_STATUSES = ("running", "partial", "interrupted", "complete")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    label         TEXT NOT NULL DEFAULT '',
    spec_digest   TEXT NOT NULL DEFAULT '',
    git_sha       TEXT NOT NULL DEFAULT '',
    host          TEXT NOT NULL DEFAULT '',
    python        TEXT NOT NULL DEFAULT '',
    cpus          INTEGER,
    meta          TEXT NOT NULL DEFAULT '{}',
    started_unix  REAL NOT NULL,
    finished_unix REAL,
    status        TEXT NOT NULL DEFAULT 'running'
);
CREATE TABLE IF NOT EXISTS experiments (
    experiment_id   INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id          INTEGER NOT NULL REFERENCES runs(run_id),
    collection      TEXT NOT NULL DEFAULT '',
    instance        TEXT NOT NULL,
    k               INTEGER NOT NULL DEFAULT -1,
    algorithm       TEXT NOT NULL DEFAULT '',
    backend         TEXT NOT NULL DEFAULT '',
    engine          TEXT NOT NULL DEFAULT '',
    workers         INTEGER NOT NULL DEFAULT 0,
    size            INTEGER,
    optimal         INTEGER,
    nodes           INTEGER,
    elapsed_seconds REAL,
    node_throughput REAL,
    prepare_ms      REAL,
    queue_ms        REAL,
    solve_ms        REAL,
    cache_hit       INTEGER,
    extra           TEXT NOT NULL DEFAULT '{}',
    created_unix    REAL NOT NULL,
    UNIQUE (run_id, collection, instance, k, algorithm, backend, engine, workers)
);
CREATE TABLE IF NOT EXISTS logs (
    log_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id        INTEGER NOT NULL REFERENCES runs(run_id),
    experiment_id INTEGER,
    created_unix  REAL NOT NULL,
    event         TEXT NOT NULL,
    payload       TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_experiments_run ON experiments(run_id);
CREATE INDEX IF NOT EXISTS idx_logs_run ON logs(run_id);
"""


def _git_sha() -> str:
    """Best-effort HEAD SHA of the current checkout (empty outside a repo)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def split_record(record: Dict[str, object]) -> Tuple[Dict[str, object], Dict[str, object], Dict[str, object]]:
    """Split one flat measurement row into (keyfields, resultfields, extra).

    The flat shape is what :meth:`~repro.bench.harness.InstanceRecord.as_dict`
    produces (``experiments run`` records its cells through it); anything the
    schema does not model lands in ``extra`` so no measurement is dropped.
    """
    keyfields: Dict[str, object] = {}
    resultfields: Dict[str, object] = {}
    extra: Dict[str, object] = {}
    for name, value in record.items():
        if name in KEYFIELDS:
            keyfields[name] = value
        elif name in RESULTFIELDS:
            resultfields[name] = value
        elif name == "solved":  # InstanceRecord calls "optimal" "solved"
            resultfields.setdefault("optimal", value)
        else:
            extra[name] = value
    return keyfields, resultfields, extra


class ExperimentStore:
    """Thread-safe SQLite store of experiment runs, cells and logs.

    Parameters
    ----------
    path:
        SQLite database file (created with its schema on first open);
        ``":memory:"`` builds a private in-memory store for tests.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        if path != ":memory:":
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    # ------------------------------------------------------------------ #
    # Runs
    # ------------------------------------------------------------------ #
    def begin_run(
        self,
        label: str = "",
        spec_digest: str = "",
        meta: Optional[Dict[str, object]] = None,
    ) -> int:
        """Open a new run row (status ``running``) and return its id.

        Environment provenance — git SHA, hostname, python version, CPU
        count — is captured automatically; ``meta`` carries anything else
        (scale, time limit, the full spec) as JSON.
        """
        with self._lock:
            cur = self._conn.execute(
                "INSERT INTO runs (label, spec_digest, git_sha, host, python, cpus,"
                " meta, started_unix) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    label,
                    spec_digest,
                    _git_sha(),
                    platform.node(),
                    platform.python_version(),
                    os.cpu_count(),
                    json.dumps(meta or {}, sort_keys=True),
                    time.time(),
                ),
            )
            self._conn.commit()
            return int(cur.lastrowid)

    def finish_run(self, run_id: int, status: str = "complete") -> None:
        """Stamp a run's finish time and final status."""
        if status not in RUN_STATUSES:
            raise InvalidParameterError(
                f"unknown run status {status!r}; expected one of {', '.join(RUN_STATUSES)}"
            )
        with self._lock:
            self._conn.execute(
                "UPDATE runs SET finished_unix = ?, status = ? WHERE run_id = ?",
                (time.time(), status, run_id),
            )
            self._conn.commit()

    def run(self, run_id: int) -> Dict[str, object]:
        """Return one run row as a dict."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            raise InvalidParameterError(f"no run {run_id} in {self.path}")
        data = dict(row)
        data["meta"] = json.loads(data.get("meta") or "{}")
        return data

    def latest_run(self) -> Optional[int]:
        """Return the newest run that recorded at least one cell, or ``None``.

        This is the run ``experiments export`` picks by default.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT MAX(run_id) AS run_id FROM experiments"
            ).fetchone()
        return int(row["run_id"]) if row["run_id"] is not None else None

    def find_resumable(self, spec_digest: str) -> Optional[int]:
        """Return the newest non-complete run executing ``spec_digest``, if any.

        This is the resume hook: an interrupted or partial campaign for the
        same matrix is picked up instead of starting a fresh run row.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT run_id FROM runs WHERE spec_digest = ? AND status != 'complete'"
                " ORDER BY run_id DESC LIMIT 1",
                (spec_digest,),
            ).fetchone()
        return int(row["run_id"]) if row is not None else None

    # ------------------------------------------------------------------ #
    # Experiments (cells)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _cell_key(keyfields: Dict[str, object]) -> Tuple[object, ...]:
        return (
            str(keyfields.get("collection", "")),
            str(keyfields["instance"]),
            int(keyfields.get("k", -1)),
            str(keyfields.get("algorithm", "")),
            str(keyfields.get("backend", "")),
            str(keyfields.get("engine", "")),
            int(keyfields.get("workers", 0)),
        )

    def record(
        self,
        run_id: int,
        keyfields: Dict[str, object],
        resultfields: Dict[str, object],
        extra: Optional[Dict[str, object]] = None,
    ) -> int:
        """Insert one completed cell; returns its ``experiment_id``.

        ``node_throughput`` is derived (``nodes / elapsed_seconds``) when not
        supplied and derivable.  A duplicate ``(run_id, *keyfields)``
        replaces the earlier row: re-measuring a cell keeps the latest.
        """
        key = self._cell_key(keyfields)
        results = dict(resultfields)
        if results.get("node_throughput") is None:
            nodes = results.get("nodes")
            elapsed = results.get("elapsed_seconds")
            if nodes is not None and elapsed is not None and float(elapsed) > 0:
                results["node_throughput"] = float(nodes) / float(elapsed)
        values = [results.get(name) for name in RESULTFIELDS]
        # SQLite has no bool affinity; normalise to 0/1 so queries stay plain.
        for i, name in enumerate(RESULTFIELDS):
            if name in ("optimal", "cache_hit") and values[i] is not None:
                values[i] = int(bool(values[i]))
        with self._lock:
            cur = self._conn.execute(
                "INSERT OR REPLACE INTO experiments (run_id, collection, instance, k, algorithm,"
                " backend, engine, workers, size, optimal, nodes, elapsed_seconds,"
                " node_throughput, prepare_ms, queue_ms, solve_ms, cache_hit, extra,"
                " created_unix) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (run_id, *key, *values, json.dumps(extra or {}, sort_keys=True), time.time()),
            )
            self._conn.commit()
            return int(cur.lastrowid)

    def has_cell(self, run_id: int, keyfields: Dict[str, object]) -> bool:
        """True when ``run_id`` already recorded the cell — the resume test."""
        key = self._cell_key(keyfields)
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM experiments WHERE run_id = ? AND collection = ? AND"
                " instance = ? AND k = ? AND algorithm = ? AND backend = ? AND"
                " engine = ? AND workers = ? LIMIT 1",
                (run_id, *key),
            ).fetchone()
        return row is not None

    def rows(self, run_id: Optional[int] = None) -> List[Dict[str, object]]:
        """Return experiment rows (all runs, or one run) as plain dicts."""
        query = "SELECT * FROM experiments"
        params: Tuple[object, ...] = ()
        if run_id is not None:
            query += " WHERE run_id = ?"
            params = (run_id,)
        query += " ORDER BY experiment_id"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        out = []
        for row in rows:
            data = dict(row)
            data["extra"] = json.loads(data.get("extra") or "{}")
            out.append(data)
        return out

    # ------------------------------------------------------------------ #
    # Logs
    # ------------------------------------------------------------------ #
    def log(
        self,
        run_id: int,
        event: str,
        payload: Optional[Dict[str, object]] = None,
        experiment_id: Optional[int] = None,
    ) -> None:
        """Append one event to the run's log table."""
        with self._lock:
            self._conn.execute(
                "INSERT INTO logs (run_id, experiment_id, created_unix, event, payload)"
                " VALUES (?, ?, ?, ?, ?)",
                (run_id, experiment_id, time.time(), event, json.dumps(payload or {}, sort_keys=True)),
            )
            self._conn.commit()

    def logs(self, run_id: int) -> List[Dict[str, object]]:
        """Return the run's log events, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM logs WHERE run_id = ? ORDER BY log_id", (run_id,)
            ).fetchall()
        out = []
        for row in rows:
            data = dict(row)
            data["payload"] = json.loads(data.get("payload") or "{}")
            out.append(data)
        return out

    # ------------------------------------------------------------------ #
    # Export / lifecycle
    # ------------------------------------------------------------------ #
    def export_run(self, run_id: int) -> Dict[str, object]:
        """Return one run as a JSON-ready payload: run row, cells, logs."""
        return {
            "run": self.run(run_id),
            "experiments": self.rows(run_id),
            "logs": self.logs(run_id),
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Read-only querying (``repro experiments query``)
# --------------------------------------------------------------------------- #

#: Canned trend reports keyed by name: ``(description, sql)``.  Each is a
#: plain read-only SELECT against the schema above, runnable as
#: ``repro experiments query --report <name>``.
CANNED_REPORTS: Dict[str, Tuple[str, str]] = {
    "runs": (
        "every recorded run: label, status, git SHA, cell count",
        """
        SELECT r.run_id, r.label, r.status, r.git_sha,
               datetime(r.started_unix, 'unixepoch') AS started,
               COUNT(e.experiment_id) AS cells
        FROM runs r LEFT JOIN experiments e USING (run_id)
        GROUP BY r.run_id
        ORDER BY r.started_unix
        """,
    ),
    "throughput-trend": (
        "median-free throughput trajectory: per run and (backend, engine) cell",
        """
        SELECT r.run_id, r.label,
               datetime(r.started_unix, 'unixepoch') AS started,
               e.backend, e.engine,
               COUNT(*) AS cells,
               AVG(e.node_throughput) AS avg_node_throughput
        FROM experiments e JOIN runs r USING (run_id)
        WHERE e.node_throughput IS NOT NULL AND e.node_throughput > 0
              AND (e.cache_hit IS NULL OR e.cache_hit = 0)
        GROUP BY r.run_id, e.backend, e.engine
        ORDER BY r.started_unix, e.backend, e.engine
        """,
    ),
    "solved-by-k": (
        "optimally solved cell counts and mean solve time, grouped by k",
        """
        SELECT e.k, e.algorithm,
               COUNT(*) AS cells,
               SUM(COALESCE(e.optimal, 0)) AS solved,
               AVG(e.elapsed_seconds) AS avg_elapsed_seconds
        FROM experiments e
        GROUP BY e.k, e.algorithm
        ORDER BY e.k, e.algorithm
        """,
    ),
    "slowest": (
        "the 20 slowest solved cells across all runs",
        """
        SELECT e.run_id, e.collection, e.instance, e.k, e.algorithm,
               e.backend, e.engine, e.workers, e.nodes, e.elapsed_seconds
        FROM experiments e
        WHERE e.elapsed_seconds IS NOT NULL
        ORDER BY e.elapsed_seconds DESC
        LIMIT 20
        """,
    ),
}

#: First keywords of statements :func:`query_store` admits.
_READONLY_KEYWORDS = ("select", "with", "explain")


def query_store(
    path: str, sql: str, params: Sequence[object] = ()
) -> Tuple[List[str], List[Tuple[object, ...]]]:
    """Run one read-only SQL statement against an experiment store.

    Returns ``(column_names, rows)``.  The database is opened through a
    ``mode=ro`` SQLite URI, so even a hostile statement cannot write, and
    the statement must start with ``SELECT``/``WITH``/``EXPLAIN`` — this is
    an analysis surface, not an administration one.

    Raises :class:`~repro.exceptions.InvalidParameterError` for a missing
    file or a non-query statement, and lets :class:`sqlite3.Error` propagate
    for SQL mistakes (the CLI renders those as ordinary errors).
    """
    statement = sql.strip().rstrip(";")
    if not statement:
        raise InvalidParameterError("empty SQL statement")
    first = statement.split(None, 1)[0].lower()
    if first not in _READONLY_KEYWORDS:
        raise InvalidParameterError(
            f"only read-only queries are allowed ({'/'.join(_READONLY_KEYWORDS)}); "
            f"got a statement starting with {first!r}"
        )
    if not os.path.exists(path):
        raise InvalidParameterError(f"experiment store not found: {path}")
    uri = f"file:{path}?mode=ro"
    conn = sqlite3.connect(uri, uri=True)
    try:
        cursor = conn.execute(statement, tuple(params))
        headers = [col[0] for col in cursor.description or ()]
        rows = [tuple(row) for row in cursor.fetchall()]
    finally:
        conn.close()
    return headers, rows
