"""Crash-safe journal primitives and subproblem-level solve checkpointing.

Two building blocks live here, shared by the service persistence layer
(:mod:`repro.service.persistence`) and the decomposition driver:

**Checksummed append-only journals (WAL).**  A journal is a flat file of
records, each ``8-byte header + payload`` where the header packs the payload
length and its CRC-32.  :func:`append_record` writes one record;
:func:`read_records` scans a journal and returns every record up to the
first truncated or checksum-corrupt one — a damaged tail (the expected
outcome of a crash mid-append) is *discarded with a warning, never an
error*, and the scan reports how many bytes were valid so the caller can
truncate before appending again.  :func:`atomic_write_bytes` is the
complementary snapshot primitive: write a temp file in the same directory,
flush + fsync, then atomically rename over the destination, so readers only
ever observe the old or the new content, never a torn write.

**Subproblem-level solve checkpointing.**  A decomposed solve (see
:mod:`repro.core.decompose`) is a loop over independent per-vertex ego
subproblems threaded through one shared incumbent — exactly the shape that
checkpoints well.  :class:`SolveCheckpoint` journals, per completed anchor,
a ``done`` record (and an ``incumbent`` record whenever the best solution
grew), so a solve killed mid-loop and restarted against the same ``(digest,
k, config)`` skips the completed prefix and re-executes only the unfinished
anchors.  Two disciplines keep the resume exact:

* the journal's incumbent is **verified before reuse**
  (:meth:`SolveCheckpoint.verified_incumbent` re-checks it is a valid
  k-defective clique against the instance adjacency) — the journal can
  never smuggle in a phantom bound whose witness died with the crashed
  process, mirroring the phantom-bound audit of :mod:`repro.core.parallel`;
* ``done`` records are only written for anchors whose search *completed*
  (the in-process loop records after each anchor returns; the worker pool
  records a round's batches only when the round finished clean and passed
  the phantom-bound audit), so a resume never skips work that was merely
  started.

For a ``workers=1`` solve the resume is bit-identical: skipping a completed
prefix and restoring the journaled incumbent reproduces exactly the state
the uninterrupted loop would have had at that point, and the engine is
deterministic from there.

Durability model: every record is flushed to the OS (``flush``) before the
next anchor starts, which survives process death (SIGKILL included); an
``fsync`` every :attr:`SolveCheckpoint.sync_every` records (and on close)
additionally bounds the loss window on power failure.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import pickle
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..testing import chaos as faults

__all__ = [
    "JournalScan",
    "SolveCheckpoint",
    "append_record",
    "atomic_write_bytes",
    "checkpoint_meta",
    "checkpoint_token",
    "incumbent_defect",
    "read_records",
]

logger = logging.getLogger("repro.core.checkpoint")

#: Record header: payload length, CRC-32 of the payload.
_HEADER = struct.Struct("<II")

#: Version stamp of the checkpoint meta record; bump on incompatible layout
#: changes so old journals are discarded instead of misread.
_CHECKPOINT_VERSION = 1


# --------------------------------------------------------------------- #
# Journal primitives
# --------------------------------------------------------------------- #
def _fsync_dir(path: str) -> None:
    """fsync the directory containing ``path`` so a rename itself is durable."""
    dirname = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(dirname, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - directories not fsync-able here
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (write temp, fsync, rename).

    A crash at any point leaves either the old content or the new content at
    ``path`` — never a prefix.  A stale ``*.tmp.<pid>`` file may survive a
    crash between the write and the rename; readers must ignore them.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    # Chaos fault point: a crash after the temp file is durable but before
    # it is renamed into place — the classic torn-publish window.
    faults.fire("persist.write", path=path)
    os.replace(tmp, path)
    _fsync_dir(path)


def append_record(fh, payload: bytes) -> None:
    """Append one checksummed record (header + payload) to an open binary file."""
    fh.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
    fh.write(payload)


@dataclass
class JournalScan:
    """Outcome of scanning a journal file.

    ``records`` holds every payload up to the first damage; ``valid_bytes``
    is the file offset they end at (truncate here before appending after a
    damaged tail); ``damaged`` flags that a truncated or checksum-corrupt
    tail was discarded.
    """

    records: List[bytes]
    valid_bytes: int
    damaged: bool


def read_records(path: str) -> JournalScan:
    """Scan the journal at ``path``, discarding any damaged tail with a warning.

    A missing file scans as empty.  Truncated headers, truncated payloads
    and CRC mismatches — all expected after a crash mid-append — stop the
    scan at the last fully-valid record; they are *never* an error.
    """
    faults.fire("persist.replay", path=path)
    records: List[bytes] = []
    valid = 0
    damaged = False
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return JournalScan(records, 0, False)
    with fh:
        while True:
            header = fh.read(_HEADER.size)
            if not header:
                break
            if len(header) < _HEADER.size:
                damaged = True
                break
            length, crc = _HEADER.unpack(header)
            payload = fh.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                damaged = True
                break
            records.append(payload)
            valid += _HEADER.size + length
    if damaged:
        logger.warning(
            "journal %s has a truncated or corrupt tail after %d record(s) "
            "(%d valid bytes); discarding the tail",
            path, len(records), valid,
        )
    return JournalScan(records, valid, damaged)


# --------------------------------------------------------------------- #
# Solve checkpoints
# --------------------------------------------------------------------- #
def checkpoint_meta(digest: str, k: int, algorithm: str, config) -> Dict[str, Any]:
    """The identity record of one checkpointed solve.

    Everything that changes which anchors exist or what their completed
    searches mean is part of the identity: the instance digest, ``k``, the
    algorithm, the prepare-relevant knobs (heuristic, RR5/RR6 — they shape
    the prepared instance the anchors come from) and the backend.  A journal
    whose meta does not match is discarded, never reused.
    """
    return {
        "version": _CHECKPOINT_VERSION,
        "digest": digest,
        "k": k,
        "algorithm": algorithm,
        "heuristic": config.initial_heuristic,
        "rr5": config.use_rr5,
        "rr6": config.use_rr6,
        "backend": config.backend,
    }


def checkpoint_token(meta: Dict[str, Any]) -> str:
    """Stable filename-safe token of a checkpoint identity."""
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def incumbent_defect(
    incumbent: Sequence[int], neighbors: Callable[[int], Sequence[int]], k: int
) -> Optional[str]:
    """Why ``incumbent`` is not a k-defective clique under ``neighbors``, or ``None``."""
    if len(set(incumbent)) != len(incumbent):
        return "has duplicates"
    missing = 0
    try:
        for i, u in enumerate(incumbent):
            nbrs = set(neighbors(u))
            missing += sum(1 for w in incumbent[i + 1:] if w not in nbrs)
    except Exception:
        return "references unknown vertices"
    if missing > k:
        return f"is not a valid {k}-defective clique ({missing} missing edges)"
    return None


class SolveCheckpoint:
    """Append-only journal of one decomposed solve's completed subproblems.

    Opening the checkpoint replays whatever a previous run journaled to
    ``path`` (a meta mismatch or damaged tail starts fresh with a warning —
    the file is compacted on open either way, so appends always land on a
    valid tail), exposing the completed anchors as :attr:`completed` and the
    journaled best solution via :meth:`verified_incumbent`.

    Thread-safe; write failures (disk full, permissions) disable further
    journaling with a warning instead of failing the solve — checkpointing
    is an accelerator for the *next* run, never a correctness dependency of
    this one.

    Parameters
    ----------
    path:
        Journal file; created (with its meta record) when absent.
    meta:
        Identity from :func:`checkpoint_meta`.
    sync_every:
        fsync cadence in records (every record is flushed to the OS
        regardless, which is what SIGKILL-crash durability needs; the
        periodic fsync bounds loss on power failure).
    on_release:
        Called exactly once when the checkpoint is closed or completed —
        the persistence layer uses it to release its active-token guard.
    """

    def __init__(
        self,
        path: str,
        meta: Dict[str, Any],
        *,
        sync_every: int = 16,
        on_release: Optional[Callable[[], None]] = None,
    ) -> None:
        self.path = path
        self.meta = dict(meta)
        self.sync_every = max(1, sync_every)
        self._on_release = on_release
        self._lock = threading.Lock()
        self.completed: Set[int] = set()
        self._incumbent: Optional[List[int]] = None
        self._since_sync = 0
        self._closed = False
        self._broken = False
        self._fh = None
        self._load()

    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        scan = read_records(self.path)
        fresh = not scan.records
        mismatch = False
        if scan.records:
            try:
                first = pickle.loads(scan.records[0])
            except Exception:
                first = None
            if first != ("meta", self.meta):
                logger.warning(
                    "checkpoint %s belongs to a different solve identity; starting fresh",
                    self.path,
                )
                mismatch = True
            else:
                for raw in scan.records[1:]:
                    try:
                        kind, payload = pickle.loads(raw)
                    except Exception:
                        logger.warning(
                            "checkpoint %s: unreadable record; ignoring the rest", self.path
                        )
                        break
                    if kind == "done":
                        self.completed.add(payload)
                    elif kind == "incumbent":
                        self._incumbent = list(payload)
        if mismatch:
            self.completed.clear()
            self._incumbent = None
        # Compact on open: rewrites the journal from the replayed state, so
        # a damaged tail, a stale identity or duplicate records can never
        # sit underneath fresh appends.
        buffer = io.BytesIO()
        append_record(buffer, pickle.dumps(("meta", self.meta), protocol=pickle.HIGHEST_PROTOCOL))
        if self._incumbent is not None:
            append_record(
                buffer,
                pickle.dumps(("incumbent", tuple(self._incumbent)), protocol=pickle.HIGHEST_PROTOCOL),
            )
        for anchor in sorted(self.completed):
            append_record(buffer, pickle.dumps(("done", anchor), protocol=pickle.HIGHEST_PROTOCOL))
        atomic_write_bytes(self.path, buffer.getvalue())
        self._fh = open(self.path, "ab")
        if fresh or mismatch or scan.damaged:
            logger.info(
                "checkpoint %s opened (%s, %d completed anchor(s))",
                self.path,
                "fresh" if fresh or mismatch else "recovered from damaged tail",
                len(self.completed),
            )

    # ------------------------------------------------------------------ #
    def verified_incumbent(self, neighbors: Callable[[int], Sequence[int]], k: int) -> List[int]:
        """The journaled best solution, re-verified against the instance.

        Returns ``[]`` unless the journaled vertices form a valid
        k-defective clique under ``neighbors`` — a crashed process must not
        be able to leave behind an unbacked ("phantom") bound that prunes
        the resumed search below the true optimum.
        """
        incumbent = self._incumbent
        if not incumbent:
            return []
        defect = incumbent_defect(incumbent, neighbors, k)
        if defect is not None:
            logger.warning("checkpoint %s: journaled incumbent %s; discarded", self.path, defect)
            return []
        return list(incumbent)

    # ------------------------------------------------------------------ #
    def _append(self, record: Tuple[str, Any]) -> None:
        append_record(self._fh, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))

    def record(self, anchor: int, incumbent: Sequence[int]) -> None:
        """Journal one *completed* anchor (and the incumbent, if it grew).

        Must only be called after the anchor's search finished — never for
        an anchor that was merely started (a budget interrupt mid-anchor
        unwinds before this call, so the anchor correctly re-runs on
        resume).  Flushed before returning, so the record survives the
        process dying at any later point.
        """
        with self._lock:
            if self._closed or self._broken or anchor in self.completed:
                return
            # Chaos fault point, fired before anything is written: a kill
            # here models a crash between anchors, with exactly
            # ``count`` completed anchors durable in the journal.
            faults.fire("checkpoint.append", anchor=anchor, count=len(self.completed))
            try:
                if self._incumbent is None or len(incumbent) > len(self._incumbent):
                    self._incumbent = list(incumbent)
                    self._append(("incumbent", tuple(self._incumbent)))
                self._append(("done", anchor))
                self._fh.flush()
                self.completed.add(anchor)
                self._since_sync += 1
                if self._since_sync >= self.sync_every:
                    os.fsync(self._fh.fileno())
                    self._since_sync = 0
            except OSError as exc:
                self._broken = True
                logger.warning("checkpoint %s: write failed (%s); journaling disabled", self.path, exc)

    def record_batch(self, anchors: Sequence[int], incumbent: Sequence[int]) -> None:
        """Journal a batch of completed anchors, then fsync once."""
        for anchor in anchors:
            self.record(anchor, incumbent)
        self.sync()

    def sync(self) -> None:
        """Force the journal to stable storage (best-effort)."""
        with self._lock:
            if self._closed or self._broken or self._fh is None:
                return
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._since_sync = 0
            except OSError as exc:
                self._broken = True
                logger.warning("checkpoint %s: fsync failed (%s); journaling disabled", self.path, exc)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop journaling but *keep* the file — the solve may resume later."""
        self._teardown(unlink=False)

    def complete(self) -> None:
        """The solve finished; the journal has served its purpose — delete it."""
        self._teardown(unlink=True)

    def _teardown(self, unlink: bool) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._fh is not None:
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
            if unlink:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
        if self._on_release is not None:
            callback, self._on_release = self._on_release, None
            callback()

    def __enter__(self) -> "SolveCheckpoint":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
