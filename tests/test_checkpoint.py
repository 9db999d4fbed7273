"""Journal primitives and subproblem-level solve checkpointing.

Covers the WAL record format (truncated/corrupt tails discarded with a
warning, never an error), the atomic snapshot write, and
:class:`~repro.core.checkpoint.SolveCheckpoint` semantics: meta-mismatch
discard, phantom-incumbent rejection, resume-only-unfinished-subproblems,
and the bit-identical interrupted-then-resumed sequential solve.
"""

from __future__ import annotations

import logging
import os
import pickle

import pytest

from repro.core.checkpoint import (
    SolveCheckpoint,
    append_record,
    atomic_write_bytes,
    checkpoint_meta,
    checkpoint_token,
    read_records,
)
from repro.core.config import SolverConfig
from repro.core.defective import is_k_defective_clique
from repro.core.solver import KDCSolver
from repro.core.prepared import prepare_instance
from repro.graphs import gnp_random_graph

CONFIG = SolverConfig(backend="bitset", decompose_threshold=1)
K = 2


@pytest.fixture
def graph():
    return gnp_random_graph(90, 0.3, seed=7)


@pytest.fixture
def meta():
    return checkpoint_meta("digest" * 10, K, "kDC", CONFIG)


class TestJournalPrimitives:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with open(path, "ab") as fh:
            for payload in (b"one", b"two", b"", b"three"):
                append_record(fh, payload)
        scan = read_records(path)
        assert scan.records == [b"one", b"two", b"", b"three"]
        assert not scan.damaged
        assert scan.valid_bytes == os.path.getsize(path)

    def test_missing_file_scans_empty(self, tmp_path):
        scan = read_records(str(tmp_path / "absent.wal"))
        assert scan.records == [] and scan.valid_bytes == 0 and not scan.damaged

    def test_truncated_tail_discarded_with_warning(self, tmp_path, caplog):
        path = str(tmp_path / "j.wal")
        with open(path, "ab") as fh:
            append_record(fh, b"keep-me")
            append_record(fh, b"lost-in-the-crash")
        with open(path, "rb+") as fh:
            fh.truncate(os.path.getsize(path) - 5)
        with caplog.at_level(logging.WARNING, logger="repro.core.checkpoint"):
            scan = read_records(path)
        assert scan.records == [b"keep-me"]
        assert scan.damaged
        assert any("truncated or corrupt tail" in r.message for r in caplog.records)

    def test_truncated_header_discarded(self, tmp_path):
        path = str(tmp_path / "j.wal")
        with open(path, "ab") as fh:
            append_record(fh, b"keep-me")
            fh.write(b"\x03")  # a lone partial header byte
        scan = read_records(path)
        assert scan.records == [b"keep-me"] and scan.damaged

    def test_corrupt_checksum_discards_tail(self, tmp_path, caplog):
        path = str(tmp_path / "j.wal")
        with open(path, "ab") as fh:
            append_record(fh, b"keep-me")
            mark = fh.tell()
            append_record(fh, b"corrupt-me")
            append_record(fh, b"after-the-corruption")
        with open(path, "rb+") as fh:
            fh.seek(mark + 8 + 2)  # two bytes into the second payload
            fh.write(b"XX")
        with caplog.at_level(logging.WARNING, logger="repro.core.checkpoint"):
            scan = read_records(path)
        # Everything from the corrupt record on is discarded, even the
        # well-formed record behind it — appends only ever land on a tail
        # that scanned clean.
        assert scan.records == [b"keep-me"]
        assert scan.damaged and scan.valid_bytes == mark

    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "snap.bin")
        atomic_write_bytes(path, b"v1")
        atomic_write_bytes(path, b"v2")
        with open(path, "rb") as fh:
            assert fh.read() == b"v2"
        assert os.listdir(tmp_path) == ["snap.bin"]


class TestSolveCheckpoint:
    def test_fresh_open_records_and_replays(self, tmp_path, meta):
        path = str(tmp_path / "c.wal")
        ckpt = SolveCheckpoint(path, meta)
        assert ckpt.completed == set()
        ckpt.record(5, [1, 2, 3])
        ckpt.record(9, [1, 2, 3, 4])
        ckpt.record(5, [1, 2, 3])  # duplicate: ignored
        ckpt.close()

        again = SolveCheckpoint(path, meta)
        assert again.completed == {5, 9}
        adj = {1: (2, 3, 4), 2: (1, 3, 4), 3: (1, 2, 4), 4: (1, 2, 3)}
        assert again.verified_incumbent(adj.__getitem__, 0) == [1, 2, 3, 4]
        again.close()

    def test_meta_mismatch_starts_fresh(self, tmp_path, meta, caplog):
        path = str(tmp_path / "c.wal")
        ckpt = SolveCheckpoint(path, meta)
        ckpt.record(1, [1, 2, 3])
        ckpt.close()
        other = checkpoint_meta("other-digest", K, "kDC", CONFIG)
        assert checkpoint_token(other) != checkpoint_token(meta)
        with caplog.at_level(logging.WARNING, logger="repro.core.checkpoint"):
            fresh = SolveCheckpoint(path, other)
        assert fresh.completed == set()
        assert any("different solve identity" in r.message for r in caplog.records)
        fresh.close()

    def test_damaged_tail_keeps_valid_prefix(self, tmp_path, meta):
        path = str(tmp_path / "c.wal")
        ckpt = SolveCheckpoint(path, meta)
        ckpt.record(1, [1, 2, 3])
        ckpt.record(2, [1, 2, 3])
        ckpt.close()
        with open(path, "ab") as fh:
            fh.write(b"\x99\x00\x00\x00garbage")  # crash mid-append
        again = SolveCheckpoint(path, meta)
        assert again.completed == {1, 2}
        # compaction on open rewrote a clean journal
        assert not read_records(path).damaged
        again.close()

    def test_phantom_incumbent_rejected(self, tmp_path, meta, caplog):
        """A journaled incumbent that is not a valid k-defective clique is discarded."""
        path = str(tmp_path / "c.wal")
        ckpt = SolveCheckpoint(path, meta)
        ckpt.record(1, [1, 2, 3, 4])  # journals the incumbent too
        ckpt.close()
        again = SolveCheckpoint(path, meta)
        # under THIS adjacency, {1,2,3,4} has 3 missing edges > k=2
        sparse = {1: (2,), 2: (1, 3), 3: (2, 4), 4: (3,)}
        with caplog.at_level(logging.WARNING, logger="repro.core.checkpoint"):
            assert again.verified_incumbent(sparse.__getitem__, K) == []
        assert any("not a valid" in r.message for r in caplog.records)
        again.close()

    def test_unknown_vertices_in_incumbent_rejected(self, tmp_path, meta):
        path = str(tmp_path / "c.wal")
        ckpt = SolveCheckpoint(path, meta)
        ckpt.record(1, [1, 2, 99])
        ckpt.close()
        again = SolveCheckpoint(path, meta)
        adj = {1: (2,), 2: (1,)}  # 99 is not a vertex
        assert again.verified_incumbent(adj.__getitem__, K) == []
        again.close()

    def test_complete_unlinks_close_keeps(self, tmp_path, meta):
        path = str(tmp_path / "c.wal")
        released = []
        ckpt = SolveCheckpoint(path, meta, on_release=lambda: released.append(1))
        ckpt.record(1, [1, 2, 3])
        ckpt.close()
        assert os.path.exists(path) and released == [1]
        ckpt.close()  # idempotent; on_release fires once
        assert released == [1]

        done = SolveCheckpoint(path, meta, on_release=lambda: released.append(2))
        done.complete()
        assert not os.path.exists(path) and released == [1, 2]


class TestCheckpointedResume:
    def _prepared(self, graph):
        return prepare_instance(graph, K, CONFIG)

    def test_sequential_resume_bit_identical(self, tmp_path, graph, meta):
        """Interrupt mid-decomposition, resume, and match the uninterrupted run exactly."""
        solver = KDCSolver(CONFIG)
        prepared = self._prepared(graph)
        reference = solver.solve_prepared(prepared, K)
        assert reference.optimal and reference.stats.subproblems > 0

        path = str(tmp_path / "c.wal")
        ckpt = SolveCheckpoint(path, meta)
        interrupted = solver.solve_prepared(
            prepared, K, node_limit=max(5, reference.stats.nodes // 3), checkpoint=ckpt
        )
        ckpt.close()
        assert not interrupted.optimal
        probe = SolveCheckpoint(path, meta)
        assert probe.completed  # progress was journaled
        probe.close()

        resumed_ckpt = SolveCheckpoint(path, meta)
        resumed = solver.solve_prepared(prepared, K, checkpoint=resumed_ckpt)
        resumed_ckpt.complete()
        assert resumed.optimal
        assert resumed.clique == reference.clique  # bit-identical, not just same size
        assert resumed.stats.subproblems_restored > 0
        assert resumed.stats.nodes < reference.stats.nodes

    def test_restored_incumbent_drives_pruning(self, tmp_path, graph, meta):
        """Resume after completing everything: zero anchors searched, same answer."""
        solver = KDCSolver(CONFIG)
        prepared = self._prepared(graph)
        path = str(tmp_path / "c.wal")
        first = SolveCheckpoint(path, meta)
        reference = solver.solve_prepared(prepared, K, checkpoint=first)
        first.close()  # keep the journal despite being optimal

        resumed_ckpt = SolveCheckpoint(path, meta)
        resumed = solver.solve_prepared(prepared, K, checkpoint=resumed_ckpt)
        resumed_ckpt.complete()
        assert resumed.optimal and resumed.size == reference.size
        assert resumed.stats.subproblems == 0
        assert resumed.stats.subproblems_restored > 0
        assert is_k_defective_clique(graph, resumed.clique, K)

    def test_parallel_resume_exact(self, tmp_path, graph):
        """A parallel solve consumes a sequential run's checkpoint and stays exact."""
        parallel_config = SolverConfig(backend="bitset", decompose_threshold=1, workers=2)
        meta = checkpoint_meta("g", K, "kDC", parallel_config)
        solver = KDCSolver(parallel_config)
        prepared = prepare_instance(graph, K, parallel_config)
        reference = KDCSolver(CONFIG).solve_prepared(prepare_instance(graph, K, CONFIG), K)

        path = str(tmp_path / "c.wal")
        ckpt = SolveCheckpoint(path, meta)
        interrupted = KDCSolver(parallel_config).solve_prepared(
            prepared, K, node_limit=max(5, reference.stats.nodes // 3), checkpoint=ckpt
        )
        ckpt.close()

        resumed_ckpt = SolveCheckpoint(path, meta)
        resumed = solver.solve_prepared(prepared, K, checkpoint=resumed_ckpt)
        resumed_ckpt.complete()
        assert resumed.optimal and resumed.size == reference.size
        assert is_k_defective_clique(graph, resumed.clique, K)

    def test_whole_graph_solve_ignores_checkpoint(self, tmp_path, meta):
        """Non-decomposed solves run fine with a checkpoint attached (no-op)."""
        small = gnp_random_graph(20, 0.4, seed=1)
        config = SolverConfig(backend="bitset", decompose_threshold=10_000)
        prepared = prepare_instance(small, K, config)
        ckpt = SolveCheckpoint(str(tmp_path / "c.wal"), checkpoint_meta("g", K, "kDC", config))
        result = KDCSolver(config).solve_prepared(prepared, K, checkpoint=ckpt)
        ckpt.complete()
        assert result.optimal and result.stats.subproblems_restored == 0


class TestCheckpointRobustness:
    def test_write_failure_disables_journaling_not_the_solve(self, tmp_path, meta, caplog):
        path = str(tmp_path / "c.wal")
        ckpt = SolveCheckpoint(path, meta)

        class _FailingHandle:
            def write(self, _data):
                raise OSError(28, "No space left on device")

            def flush(self):
                pass

            def fileno(self):
                raise OSError(9, "Bad file descriptor")

            def close(self):
                pass

        ckpt._fh.close()
        ckpt._fh = _FailingHandle()
        with caplog.at_level(logging.WARNING, logger="repro.core.checkpoint"):
            ckpt.record(1, [1, 2, 3])  # must not raise
            ckpt.record(2, [1, 2, 3])
        assert ckpt._broken
        assert ckpt.completed == set()
        assert any("journaling disabled" in r.message for r in caplog.records)
        ckpt.close()

    def test_token_is_stable_and_identity_sensitive(self):
        a = checkpoint_meta("d", 2, "kDC", CONFIG)
        assert checkpoint_token(a) == checkpoint_token(dict(a))
        for field, value in [
            ("digest", "e"), ("k", 3), ("algorithm", "kDC-t"), ("backend", "set"),
        ]:
            changed = dict(a)
            changed[field] = value
            assert checkpoint_token(changed) != checkpoint_token(a)

    def test_journal_survives_pickle_protocol_noise(self, tmp_path, meta):
        """A record that unpickles to garbage is ignored, not fatal."""
        path = str(tmp_path / "c.wal")
        ckpt = SolveCheckpoint(path, meta)
        ckpt.record(1, [1, 2, 3])
        ckpt.close()
        with open(path, "ab") as fh:
            append_record(fh, pickle.dumps(("unknown-kind", None)))
        again = SolveCheckpoint(path, meta)
        assert again.completed == {1}
        again.close()
