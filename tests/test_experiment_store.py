"""Tests for the SQLite experiment store, the resumable matrix runner, and
the ``repro experiments run/export`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench.runner import MatrixSpec, run_matrix
from repro.bench.store import KEYFIELDS, ExperimentStore, split_record
from repro.cli import main
from repro.exceptions import InvalidParameterError


def _keyfields(instance="g0", k=1, algorithm="kDC", backend="bitset", engine="trail", workers=1):
    return {
        "collection": "synthetic",
        "instance": instance,
        "k": k,
        "algorithm": algorithm,
        "backend": backend,
        "engine": engine,
        "workers": workers,
    }


class TestExperimentStore:
    def test_schema_roundtrip(self, tmp_path):
        path = str(tmp_path / "exp.sqlite")
        with ExperimentStore(path) as store:
            run_id = store.begin_run(label="unit", meta={"note": "hi"})
            eid = store.record(
                run_id,
                _keyfields(),
                {"size": 4, "optimal": True, "nodes": 500, "elapsed_seconds": 0.25},
                extra={"custom": 7},
            )
            store.log(run_id, "cell_done", {"x": 1}, experiment_id=eid)
            store.finish_run(run_id)
        # reopen from disk: everything persisted
        with ExperimentStore(path) as store:
            run = store.run(run_id)
            assert run["status"] == "complete"
            assert run["meta"] == {"note": "hi"}
            assert run["python"]  # provenance captured
            rows = store.rows(run_id)
            assert len(rows) == 1
            row = rows[0]
            assert row["instance"] == "g0"
            assert row["optimal"] == 1
            assert row["node_throughput"] == pytest.approx(2000.0)  # 500 / 0.25
            assert row["extra"] == {"custom": 7}
            logs = store.logs(run_id)
            assert [log["event"] for log in logs] == ["cell_done"]
            assert logs[0]["payload"] == {"x": 1}
            payload = store.export_run(run_id)
            assert payload["run"]["run_id"] == run_id
            assert len(payload["experiments"]) == 1

    def test_cell_uniqueness_and_replace(self):
        with ExperimentStore() as store:
            run_id = store.begin_run()
            store.record(run_id, _keyfields(), {"nodes": 10, "elapsed_seconds": 1.0})
            assert store.has_cell(run_id, _keyfields())
            assert not store.has_cell(run_id, _keyfields(instance="other"))
            # replace keeps one row per cell, latest measurement wins
            store.record(run_id, _keyfields(), {"nodes": 20, "elapsed_seconds": 1.0})
            rows = store.rows(run_id)
            assert len(rows) == 1
            assert rows[0]["nodes"] == 20

    def test_zero_elapsed_has_no_throughput(self):
        with ExperimentStore() as store:
            run_id = store.begin_run()
            store.record(run_id, _keyfields(), {"nodes": 10, "elapsed_seconds": 0.0})
            assert store.rows(run_id)[0]["node_throughput"] is None

    def test_latest_and_resumable_queries(self):
        with ExperimentStore() as store:
            store.begin_run(label="empty")
            full = store.begin_run(label="full", spec_digest="abc")
            store.record(full, _keyfields(), {"nodes": 1, "elapsed_seconds": 1.0})
            store.begin_run(label="newest, no cells")
            assert store.latest_run() == full
            assert store.find_resumable("abc") == full
            store.finish_run(full, status="complete")
            assert store.find_resumable("abc") is None

    def test_invalid_arguments(self):
        with ExperimentStore() as store:
            run_id = store.begin_run()
            with pytest.raises(InvalidParameterError):
                store.finish_run(run_id, status="bogus")
            with pytest.raises(InvalidParameterError):
                store.run(999)

    def test_split_record_maps_instance_record_shape(self):
        record = {
            "algorithm": "kDC",
            "collection": "c",
            "instance": "i",
            "k": 2,
            "solved": True,
            "size": 9,
            "elapsed_seconds": 0.5,
            "nodes": 100,
            "backend": "bitset",
            "workers": 1,
            "engine": "trail",
            "trail_pushes": 17,
            "prepare_ms": 1.5,
        }
        keyfields, resultfields, extra = split_record(record)
        assert set(keyfields) == set(KEYFIELDS)
        assert resultfields["optimal"] is True  # "solved" is mapped
        assert resultfields["prepare_ms"] == 1.5
        assert extra == {"trail_pushes": 17}


@pytest.fixture
def smoke_spec():
    """A 4-cell grid small enough for tier-1: 2 instances x (set + bitset)."""
    return MatrixSpec(
        collections=("facebook_like",),
        scale="tiny",
        k_values=(1,),
        algorithms=("kDC",),
        backends=("set", "bitset"),
        workers=(1,),
        time_limit=5.0,
        instance_limit=2,
    )


class TestMatrixRunner:
    def test_grid_normalisation(self, smoke_spec):
        cells = smoke_spec.cell_keyfields(smoke_spec.instances())
        assert len(cells) == 4  # 2 instances x {set, bitset}
        # The engine keyfield keeps the values older stores hold, so their
        # (backend, engine) cells still pair with new runs.
        assert {(c["backend"], c["engine"]) for c in cells} == {("set", ""), ("bitset", "trail")}
        baseline_spec = MatrixSpec(
            collections=("facebook_like",),
            algorithms=("kDC", "KDBB"),
            backends=("bitset",),
                instance_limit=1,
        )
        cells = baseline_spec.cell_keyfields(baseline_spec.instances())
        kdbb = [c for c in cells if c["algorithm"] == "KDBB"]
        assert len(kdbb) == 1
        assert kdbb[0]["backend"] == "" and kdbb[0]["workers"] == 0

    def test_spec_digest_is_stable_and_discriminating(self, smoke_spec):
        assert smoke_spec.digest() == smoke_spec.digest()
        other = MatrixSpec(
            collections=("facebook_like",),
            scale="tiny",
            k_values=(2,),  # only k differs
            algorithms=("kDC",),
            backends=("set", "bitset"),
                workers=(1,),
            time_limit=5.0,
            instance_limit=2,
        )
        assert other.digest() != smoke_spec.digest()

    def test_spec_validation(self):
        with pytest.raises(InvalidParameterError):
            MatrixSpec(collections=("nope",))
        with pytest.raises(InvalidParameterError):
            MatrixSpec(backends=("vhdl",))
        with pytest.raises(InvalidParameterError):
            MatrixSpec(k_values=())
        with pytest.raises(InvalidParameterError):
            MatrixSpec(workers=(0,))

    def test_interrupted_campaign_resumes_from_checkpoint(self, smoke_spec):
        """The acceptance criterion: a re-run executes only the missing cells."""
        executed_cells = []

        def progress(keyfields, record):
            executed_cells.append(tuple(keyfields[f] for f in KEYFIELDS))

        with ExperimentStore() as store:
            partial = run_matrix(
                store, smoke_spec, max_cells=1, progress=progress
            )
            assert partial.status == "partial"
            assert partial.executed == 1 and partial.remaining == 3
            assert store.run(partial.run_id)["status"] == "partial"

            resumed = run_matrix(store, smoke_spec, progress=progress)
            # same run row continued, not a fresh campaign
            assert resumed.run_id == partial.run_id
            assert resumed.resumed
            # only the 3 missing cells executed; the checkpointed one skipped
            assert resumed.executed == 3
            assert resumed.skipped == 1
            assert resumed.status == "complete"
            # no cell ever ran twice
            assert len(executed_cells) == len(set(executed_cells)) == 4
            assert len(store.rows(partial.run_id)) == 4
            events = [log["event"] for log in store.logs(partial.run_id)]
            assert events[0] == "begin"
            assert "resume" in events

            # a third invocation finds nothing resumable and nothing to do
            fresh = run_matrix(store, smoke_spec)
            assert fresh.run_id != partial.run_id
            assert fresh.executed == 4  # complete runs are not resumed

    def test_keyboard_interrupt_marks_run_and_resumes(self, smoke_spec):
        def exploding_progress(keyfields, record):
            raise KeyboardInterrupt

        with ExperimentStore() as store:
            with pytest.raises(KeyboardInterrupt):
                run_matrix(store, smoke_spec, progress=exploding_progress)
            run_id = store.latest_run()
            assert store.run(run_id)["status"] == "interrupted"
            assert store.logs(run_id)[-1]["event"] == "interrupted"
            # the cell completed before the interrupt was checkpointed
            assert len(store.rows(run_id)) == 1

            report = run_matrix(store, smoke_spec)
            assert report.run_id == run_id
            assert report.skipped == 1 and report.executed == 3
            assert report.status == "complete"

    def test_records_carry_real_measurements(self, smoke_spec):
        with ExperimentStore() as store:
            report = run_matrix(store, smoke_spec)
            rows = store.rows(report.run_id)
            assert len(rows) == 4
            for row in rows:
                assert row["optimal"] == 1
                assert row["size"] > 0
                assert row["elapsed_seconds"] > 0
                # requested axes are the cell identity
                assert row["backend"] in ("set", "bitset")
            # set and bitset agree on every instance (mini differential)
            by_instance = {}
            for row in rows:
                by_instance.setdefault(row["instance"], set()).add(row["size"])
            assert all(len(sizes) == 1 for sizes in by_instance.values())


class TestExperimentsCli:
    def _run_args(self, db, extra=()):
        return [
            "experiments", "run", "--db", db,
            "--collections", "facebook_like", "--scale", "tiny",
            "--instance-limit", "1", "--k", "1",
            "--algorithms", "kDC", "--backends", "set", "bitset",
            "--workers", "1", "--time-limit", "5",
            *extra,
        ]

    def test_run_export_round_trip(self, tmp_path, capsys):
        db = str(tmp_path / "exp.sqlite")
        assert main(self._run_args(db)) == 0
        out = capsys.readouterr().out
        assert "complete" in out

        out_path = str(tmp_path / "run.json")
        assert main(["experiments", "export", "--db", db, "--out", out_path]) == 0
        payload = json.loads(open(out_path).read())
        assert payload["run"]["status"] == "complete"
        assert len(payload["experiments"]) == 2

    def test_run_resumes_after_max_cells(self, tmp_path, capsys):
        db = str(tmp_path / "exp.sqlite")
        assert main(self._run_args(db, ["--max-cells", "1"])) == 0
        assert "partial" in capsys.readouterr().out
        assert main(self._run_args(db)) == 0
        out = capsys.readouterr().out
        assert "1 checkpointed" in out and "complete" in out

    def test_paper_experiments_still_work(self, capsys):
        assert main(["experiments", "table4", "--scale", "tiny"]) == 0
        assert "Table 4" in capsys.readouterr().out
