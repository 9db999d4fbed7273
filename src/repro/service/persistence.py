"""Durable on-disk state for the solver service: snapshots + journals.

:class:`ServicePersistence` owns one *state directory* and gives the service
four kinds of durable state, each with crash semantics chosen for its write
pattern:

``graphs/<digest>.pkl`` and ``prepared/<token>.pkl``
    **Digest-addressed snapshots** of stored graphs and prepared artifacts,
    written via write-temp/fsync/atomic-rename
    (:func:`~repro.core.checkpoint.atomic_write_bytes`).  Content-addressed
    files are written at most once and never modified, so a crash can only
    leave behind a stale ``*.tmp.*`` file — which loading ignores.

``results.wal``
    A **checksummed append-only journal** of optimal-result cache entries
    (one pickled ``(key, SolveResult)`` per record, fsynced per append —
    optimal completions are rare events).  On startup the journal is
    replayed; a truncated or checksum-corrupt tail (the normal residue of a
    crash mid-append) is discarded with a warning and the file truncated
    back to its valid prefix, never a fatal error.

``checkpoints/<token>.wal``
    One :class:`~repro.core.checkpoint.SolveCheckpoint` journal per
    in-progress decomposed solve, keyed by the solve's identity token.  The
    journal survives a crash, is consumed by the resumed solve, and is
    deleted when the solve completes optimally.

``deltas.wal``
    A **checksummed append-only journal** of edge-delta mutations (one
    pickled ``(parent_digest, child_digest, name, adds, removes)`` per
    record, fsynced per append).  A successor is durable by its delta:
    :class:`~repro.service.store.GraphStore` snapshots one only every
    :data:`~repro.service.store.SNAPSHOT_INTERVAL` steps from its nearest
    snapshotted ancestor.  Replayed on startup to re-link the digest chain
    and to rebuild every successor without a snapshot of its own, since
    the WAL is append-ordered and a whole chain re-materializes from one
    surviving ancestor snapshot.  Same damaged-tail truncation policy as
    ``results.wal``.

Digests are computed, not trusted: :class:`~repro.service.store.GraphStore`
re-digests every graph snapshot it restores.  A state directory written
under an older digest format therefore restores under current digests, and
:meth:`ServicePersistence.migrate_digests` moves everything keyed by the old
ones (snapshots, both journals' keys and links) across and drops the
checkpoint journals they named.

Every load path is defensive: an unreadable snapshot or journal entry is
skipped with a warning — durable state accelerates a restart, it must never
prevent one.  Write paths *raise* (the callers in
:mod:`repro.service.store` / :mod:`repro.service.scheduler` catch and warn,
so a full disk degrades the service to in-memory operation instead of
killing requests).
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import logging
import os
import pickle
import threading
from typing import Callable, Iterator, List, Mapping, Optional, Tuple

from ..core.checkpoint import (
    SolveCheckpoint,
    append_record,
    atomic_write_bytes,
    checkpoint_meta,
    checkpoint_token,
    read_records,
)
from ..core.config import SolverConfig
from ..core.prepared import PreparedInstance
from ..core.result import SolveResult
from ..graphs.graph import Graph
from ..testing import chaos as faults

__all__ = ["ServicePersistence"]

logger = logging.getLogger("repro.service.persistence")


def _prepared_token(key: Tuple) -> str:
    """Filename-safe token of a prepared-artifact cache key."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]


def _result_entry(key, result) -> Tuple[Tuple, SolveResult]:
    if not isinstance(result, SolveResult):
        raise TypeError(f"expected a SolveResult, got {type(result).__name__}")
    return tuple(key), result


def _delta_entry(parent, child, name, adds, removes) -> Tuple[str, str, Optional[str], Tuple, Tuple]:
    return parent, child, name, tuple(adds), tuple(removes)


class _Journal:
    """One checksummed append-only journal of pickled tuples.

    The results journal and the delta journal share this code and differ
    only in ``entry``, which turns one replayed record into an entry.
    ``lock`` is the owning :class:`ServicePersistence`'s.
    """

    def __init__(self, path: str, entry: Callable[..., Tuple], what: str, lock) -> None:
        self.path = path
        self._entry = entry
        self._what = what
        self._lock = lock
        self._fh = None
        self._validated = False
        self._closed = False

    def _truncate(self, size: int) -> None:
        with open(self.path, "rb+") as fh:
            fh.truncate(size)

    def replay(self) -> List[Tuple]:
        """Replay the journal, truncating any damaged tail; unreadable
        records within the valid prefix are skipped with a warning."""
        with self._lock:
            scan = read_records(self.path)
            if scan.damaged:
                try:
                    self._truncate(scan.valid_bytes)
                except OSError as exc:
                    logger.warning(
                        "could not truncate damaged %s journal %s: %s", self._what, self.path, exc
                    )
            self._validated = True
        entries = []
        for raw in scan.records:
            try:
                entries.append(self._entry(*pickle.loads(raw)))
            except Exception as exc:
                logger.warning("skipping unreadable %s-journal record: %s", self._what, exc)
        return entries

    def append(self, record: Tuple) -> None:
        """Append one record: one write, flushed and fsynced before returning."""
        with self._lock:
            if self._closed:
                return
            if not self._validated:
                # Never append after an unvalidated (possibly damaged) tail.
                scan = read_records(self.path)
                if scan.damaged:
                    self._truncate(scan.valid_bytes)
                self._validated = True
            if self._fh is None:
                self._fh = open(self.path, "ab")
            append_record(self._fh, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def rewrite(self, entries) -> None:
        """Atomically replace the journal with ``entries`` (compaction)."""
        buffer = io.BytesIO()
        for entry in entries:
            append_record(buffer, pickle.dumps(tuple(entry), protocol=pickle.HIGHEST_PROTOCOL))
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            atomic_write_bytes(self.path, buffer.getvalue())
            self._validated = True

    def close(self) -> None:
        """Stop appending; flush and close the handle.  The caller holds the lock."""
        self._closed = True
        if self._fh is None:
            return
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError:
            pass
        try:
            self._fh.close()
        except OSError:
            pass
        self._fh = None


class ServicePersistence:
    """Filesystem-backed durability for one solver service instance.

    Thread-safe.  One instance owns one state directory; sharing a directory
    between two live services is not supported (the last writer wins on the
    results journal).

    Parameters
    ----------
    root:
        State directory; created (with its subdirectories) when absent.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.graphs_dir = os.path.join(root, "graphs")
        self.prepared_dir = os.path.join(root, "prepared")
        self.checkpoints_dir = os.path.join(root, "checkpoints")
        self.results_path = os.path.join(root, "results.wal")
        self.deltas_path = os.path.join(root, "deltas.wal")
        for directory in (self.graphs_dir, self.prepared_dir, self.checkpoints_dir):
            os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._results = _Journal(self.results_path, _result_entry, "results", self._lock)
        self._deltas = _Journal(self.deltas_path, _delta_entry, "delta", self._lock)
        #: Solve-identity tokens with a live checkpoint handle: two
        #: concurrent solves of the same identity (same digest/k/config but
        #: e.g. different budgets, so they do not coalesce upstream) must
        #: not interleave appends into one journal.
        self._active_checkpoints: set = set()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Graph snapshots
    # ------------------------------------------------------------------ #
    def _graph_path(self, digest: str) -> str:
        return os.path.join(self.graphs_dir, f"{digest}.pkl")

    def save_graph(self, digest: str, name: Optional[str], graph: Graph) -> None:
        """Persist one graph snapshot (idempotent: content-addressed)."""
        path = self._graph_path(digest)
        if os.path.exists(path):
            return
        blob = pickle.dumps((name, graph), protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_bytes(path, blob)

    def load_graphs(self) -> Iterator[Tuple[str, Optional[str], Graph]]:
        """Yield ``(digest, name, graph)`` for every readable graph snapshot.

        ``digest`` is the one in the filename, which a snapshot written
        under an older digest format does not share with its graph.
        """
        for filename in sorted(os.listdir(self.graphs_dir)):
            if not filename.endswith(".pkl"):
                continue  # stale *.tmp.* files from a crash mid-publish
            path = os.path.join(self.graphs_dir, filename)
            faults.fire("persist.replay", path=path)
            try:
                with open(path, "rb") as fh:
                    name, graph = pickle.load(fh)
                if not isinstance(graph, Graph):
                    raise TypeError(f"expected a Graph, got {type(graph).__name__}")
            except Exception as exc:
                logger.warning("skipping unreadable graph snapshot %s: %s", path, exc)
                continue
            yield filename[: -len(".pkl")], name, graph

    # ------------------------------------------------------------------ #
    # Prepared-artifact snapshots
    # ------------------------------------------------------------------ #
    def save_prepared(self, key: Tuple, artifact: PreparedInstance) -> None:
        """Persist one prepared artifact under its cache key's token."""
        path = os.path.join(self.prepared_dir, f"{_prepared_token(key)}.pkl")
        if os.path.exists(path):
            return
        blob = pickle.dumps((key, artifact), protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write_bytes(path, blob)

    def load_prepared(self) -> Iterator[Tuple[Tuple, PreparedInstance]]:
        """Yield ``(key, artifact)`` for every readable prepared snapshot."""
        for filename in sorted(os.listdir(self.prepared_dir)):
            if not filename.endswith(".pkl"):
                continue
            path = os.path.join(self.prepared_dir, filename)
            faults.fire("persist.replay", path=path)
            try:
                with open(path, "rb") as fh:
                    key, artifact = pickle.load(fh)
                if not isinstance(artifact, PreparedInstance):
                    raise TypeError(f"expected a PreparedInstance, got {type(artifact).__name__}")
            except Exception as exc:
                logger.warning("skipping unreadable prepared snapshot %s: %s", path, exc)
                continue
            yield tuple(key), artifact

    # ------------------------------------------------------------------ #
    # Optimal-result journal
    # ------------------------------------------------------------------ #
    def replay_results(self) -> List[Tuple[Tuple, SolveResult]]:
        """Replay the results journal, truncating any damaged tail.

        Unreadable records *within* the valid prefix (e.g. written by an
        incompatible version) are skipped with a warning; the damaged-tail
        truncation makes later appends land on a valid record boundary.
        """
        return self._results.replay()

    def append_result(self, key: Tuple, result: SolveResult) -> None:
        """Append one optimal result to the journal (fsynced)."""
        self._results.append((key, result))

    def rewrite_results(self, entries: List[Tuple[Tuple, SolveResult]]) -> None:
        """Atomically replace the results journal with ``entries`` (compaction)."""
        self._results.rewrite(entries)

    # ------------------------------------------------------------------ #
    # Edge-delta journal
    # ------------------------------------------------------------------ #
    def replay_deltas(self) -> List[Tuple[str, str, Optional[str], Tuple, Tuple]]:
        """Replay the delta journal, truncating any damaged tail.

        Yields ``(parent_digest, child_digest, name, adds, removes)`` in
        append (i.e. mutation) order; unreadable records within the valid
        prefix are skipped with a warning.
        """
        return self._deltas.replay()

    def append_delta(self, parent: str, child: str, name: Optional[str], delta) -> None:
        """Append one mutation link to the delta journal (fsynced)."""
        self._deltas.append((parent, child, name, tuple(delta.adds), tuple(delta.removes)))

    def rewrite_deltas(self, entries: List[Tuple[str, str, Optional[str], Tuple, Tuple]]) -> None:
        """Atomically replace the delta journal with ``entries`` (compaction)."""
        self._deltas.rewrite(entries)

    # ------------------------------------------------------------------ #
    # Digest-format upgrade
    # ------------------------------------------------------------------ #
    def migrate_digests(
        self,
        renamed: Mapping[str, str],
        deltas: List[Tuple[str, str, Optional[str], Tuple, Tuple]],
    ) -> None:
        """Re-key on-disk state from old digests to current ones.

        ``renamed`` maps each digest a restore found in a filename or a
        journal to the digest its graph has now; ``deltas`` is the delta
        journal as the restore re-linked it, already in current digests.
        Prepared snapshots are re-keyed, the delta journal is rewritten
        with ``deltas``, results-journal keys are mapped, checkpoint
        journals named by an old digest are deleted (they could only start
        fresh), and the graph snapshots are renamed last: until a rename is
        durable the old filename stays behind, and the next restore finds
        the same mapping and finishes the job.
        """
        for filename in sorted(os.listdir(self.prepared_dir)):
            if not filename.endswith(".pkl"):
                continue
            path = os.path.join(self.prepared_dir, filename)
            try:
                with open(path, "rb") as fh:
                    key, artifact = pickle.load(fh)
            except Exception:
                continue  # load_prepared already warned about it
            new = renamed.get(key[0])
            if new is None:
                continue
            self.save_prepared(
                (new,) + tuple(key[1:]), dataclasses.replace(artifact, digest=new)
            )
            os.remove(path)
        self.rewrite_deltas(deltas)
        results = [
            ((renamed.get(key[0], key[0]),) + tuple(key[1:]), result)
            for key, result in self.replay_results()
        ]
        self.rewrite_results(results)
        for filename in sorted(os.listdir(self.checkpoints_dir)):
            path = os.path.join(self.checkpoints_dir, filename)
            if not filename.endswith(".wal"):
                continue
            records = read_records(path).records
            try:
                _, meta = pickle.loads(records[0])
                stale = meta["digest"] in renamed
            except Exception:
                stale = False  # SolveCheckpoint decides on open
            if stale:
                os.remove(path)
        for old, new in renamed.items():
            old_path, new_path = self._graph_path(old), self._graph_path(new)
            if not os.path.exists(old_path):
                continue
            if os.path.exists(new_path):
                os.remove(old_path)
            else:
                os.replace(old_path, new_path)

    # ------------------------------------------------------------------ #
    # Solve checkpoints
    # ------------------------------------------------------------------ #
    def open_checkpoint(
        self, digest: str, k: int, algorithm: str, config: SolverConfig
    ) -> Optional[SolveCheckpoint]:
        """Open (resuming if present) the checkpoint journal for one solve.

        Returns ``None`` when another live solve of the same identity
        already owns the journal — the second solve simply runs
        un-checkpointed rather than corrupting the first one's journal.
        """
        meta = checkpoint_meta(digest, k, algorithm, config)
        token = checkpoint_token(meta)
        with self._lock:
            if self._closed or token in self._active_checkpoints:
                return None
            self._active_checkpoints.add(token)

        def release() -> None:
            with self._lock:
                self._active_checkpoints.discard(token)

        path = os.path.join(self.checkpoints_dir, f"{token}.wal")
        try:
            return SolveCheckpoint(path, meta, on_release=release)
        except Exception:
            release()
            raise

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush and close the journal handles (snapshots need no teardown)."""
        with self._lock:
            self._closed = True
            self._results.close()
            self._deltas.close()
