"""Tests for the SQLite experiment store, the resumable matrix runner, the
regression comparator, and the ``repro experiments run/compare/export`` CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.runner import MatrixSpec, run_matrix
from repro.bench.store import (
    KEYFIELDS,
    ComparisonReport,
    ExperimentStore,
    compare_runs,
    split_record,
)
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


def _seed_run(store, label, cells):
    """Record one synthetic run; each cell is (instance, backend, engine, nps).

    Every row takes 1 synthetic second, so node throughput == nodes == nps.
    """
    run_id = store.begin_run(label=label)
    for instance, backend, engine, nps in cells:
        store.record(
            run_id,
            _keyfields(instance=instance, backend=backend, engine=engine),
            {
                "size": 5,
                "optimal": True,
                "nodes": int(nps),
                "elapsed_seconds": 1.0,
            },
        )
    store.finish_run(run_id)
    return run_id


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
            with pytest.raises(Exception):
                store.record(
                    run_id, _keyfields(), {"nodes": 30}, on_conflict="fail"
                )

    def test_zero_elapsed_has_no_throughput(self):
        with ExperimentStore() as store:
            run_id = store.begin_run()
            store.record(run_id, _keyfields(), {"nodes": 10, "elapsed_seconds": 0.0})
            assert store.rows(run_id)[0]["node_throughput"] is None

    def test_latest_and_resumable_queries(self):
        with ExperimentStore() as store:
            empty = store.begin_run(label="empty")
            full = store.begin_run(label="full", spec_digest="abc")
            store.record(full, _keyfields(), {"nodes": 1, "elapsed_seconds": 1.0})
            assert store.latest_run() == full
            assert store.latest_run(with_cells=True) == full
            assert store.latest_run(with_cells=True, exclude=(full,)) is None
            assert store.find_resumable("abc") == full
            store.finish_run(full, status="complete")
            assert store.find_resumable("abc") is None
            assert store.latest_run(label="empty") == empty

    def test_invalid_arguments(self):
        with ExperimentStore() as store:
            run_id = store.begin_run()
            with pytest.raises(InvalidParameterError):
                store.finish_run(run_id, status="bogus")
            with pytest.raises(InvalidParameterError):
                store.record(run_id, _keyfields(), {}, on_conflict="bogus")
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


class TestCompareRuns:
    CELLS = [
        ("g0", "set", "", 100),
        ("g1", "set", "", 120),
        ("g0", "bitset", "trail", 800),
        ("g1", "bitset", "trail", 1000),
    ]

    def test_identical_rerun_passes(self):
        with ExperimentStore() as store:
            base = _seed_run(store, "base", self.CELLS)
            cand = _seed_run(store, "cand", self.CELLS)
            report = compare_runs(store.rows(base), store.rows(cand))
            assert isinstance(report, ComparisonReport)
            assert report.ok
            assert len(report.cells) == 2  # (set, "") and (bitset, trail)
            assert "PASS" in report.format_table()

    def test_regression_over_threshold_fails(self):
        degraded = [
            ("g0", "set", "", 100),
            ("g1", "set", "", 120),
            ("g0", "bitset", "trail", 600),  # median 800 -> 650: -18.75%...
            ("g1", "bitset", "trail", 700),  # both down: median 900 -> 650, -27.8%
        ]
        with ExperimentStore() as store:
            base = _seed_run(store, "base", self.CELLS)
            cand = _seed_run(store, "cand", degraded)
            report = compare_runs(store.rows(base), store.rows(cand), threshold=0.20)
            assert not report.ok
            regressed = report.regressions
            assert [(c.backend, c.engine) for c in regressed] == [("bitset", "trail")]
            assert regressed[0].ratio == pytest.approx(650 / 900)
            assert "FAIL" in report.format_table()
            # the set cell did not move and stays green
            set_cell = next(c for c in report.cells if c.backend == "set")
            assert not set_cell.regressed

    def test_small_drop_within_threshold_passes(self):
        slightly_slower = [(i, b, e, nps * 0.9) for i, b, e, nps in self.CELLS]
        with ExperimentStore() as store:
            base = _seed_run(store, "base", self.CELLS)
            cand = _seed_run(store, "cand", slightly_slower)
            assert compare_runs(store.rows(base), store.rows(cand)).ok

    def test_cache_hits_and_nodeless_rows_are_ignored(self):
        with ExperimentStore() as store:
            base = _seed_run(store, "base", self.CELLS)
            cand = store.begin_run(label="cand")
            for instance, backend, engine, nps in self.CELLS:
                store.record(
                    cand,
                    _keyfields(instance=instance, backend=backend, engine=engine),
                    {"nodes": int(nps), "elapsed_seconds": 1.0},
                )
            # poison rows that would tank the medians if they counted
            store.record(
                cand,
                _keyfields(instance="cached", backend="bitset", engine="trail"),
                {"nodes": 1_000_000, "elapsed_seconds": 0.001, "cache_hit": True},
            )
            store.record(
                cand,
                _keyfields(instance="preprocessed-away", backend="bitset", engine="trail"),
                {"nodes": 0, "elapsed_seconds": 0.5},
            )
            report = compare_runs(store.rows(base), store.rows(cand))
            assert report.ok
            bitset = next(c for c in report.cells if c.backend == "bitset")
            assert bitset.candidate_rows == 2  # the poison rows were excluded

    def test_one_sided_cells_never_flag(self):
        with ExperimentStore() as store:
            base = _seed_run(store, "base", [("g0", "set", "", 100)])
            cand = _seed_run(store, "cand", [("g0", "bitset", "trail", 100)])
            report = compare_runs(store.rows(base), store.rows(cand))
            assert report.ok
            assert len(report.cells) == 2

    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            compare_runs([], [], threshold=0.0)
        with pytest.raises(InvalidParameterError):
            compare_runs([], [], threshold=1.5)


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

    def test_run_compare_export_round_trip(self, tmp_path, capsys):
        db = str(tmp_path / "exp.sqlite")
        assert main(self._run_args(db)) == 0
        out = capsys.readouterr().out
        assert "complete" in out

        # identical re-run (a second run row): compare passes, exit 0
        assert main(self._run_args(db, ["--no-resume"])) == 0
        capsys.readouterr()
        assert main(["experiments", "compare", "--db", db]) == 0
        assert "PASS" in capsys.readouterr().out

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

    def test_compare_detects_synthetic_regression(self, tmp_path, capsys):
        db = str(tmp_path / "exp.sqlite")
        cells = TestCompareRuns.CELLS
        with ExperimentStore(db) as store:
            _seed_run(store, "base", cells)
            _seed_run(store, "cand", [(i, b, e, nps * 0.5) for i, b, e, nps in cells])
        assert main(["experiments", "compare", "--db", db]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "REGRESSED" in out

    def test_compare_across_two_stores(self, tmp_path, capsys):
        baseline_db = str(tmp_path / "baseline.sqlite")
        candidate_db = str(tmp_path / "candidate.sqlite")
        cells = TestCompareRuns.CELLS
        with ExperimentStore(baseline_db) as store:
            _seed_run(store, "base", cells)
        with ExperimentStore(candidate_db) as store:
            _seed_run(store, "cand", cells)
        assert (
            main(["experiments", "compare", "--db", candidate_db, "--baseline-db", baseline_db])
            == 0
        )
        capsys.readouterr()
        # regressed candidate against the same baseline store
        with ExperimentStore(candidate_db) as store:
            _seed_run(store, "cand2", [(i, b, e, nps * 0.5) for i, b, e, nps in cells])
        assert (
            main(["experiments", "compare", "--db", candidate_db, "--baseline-db", baseline_db])
            == 1
        )
        capsys.readouterr()

    def test_compare_empty_store_is_an_error(self, tmp_path, capsys):
        db = str(tmp_path / "empty.sqlite")
        ExperimentStore(db).close()
        assert main(["experiments", "compare", "--db", db]) == 2
        assert "error:" in capsys.readouterr().err

    def test_paper_experiments_still_work(self, capsys):
        assert main(["experiments", "table4", "--scale", "tiny"]) == 0
        assert "Table 4" in capsys.readouterr().out


class TestBenchRecorder:
    """``benchmarks/_bench_utils.py`` flushes into the store and nowhere else."""

    @pytest.fixture
    def bench_utils(self, tmp_path, monkeypatch):
        benchmarks = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")
        monkeypatch.syspath_prepend(benchmarks)
        monkeypatch.setenv("REPRO_BENCH_DB", str(tmp_path / "trajectory.sqlite"))
        monkeypatch.chdir(tmp_path)
        import _bench_utils

        return _bench_utils

    def test_kdc_and_kdc_t_rows_keep_their_own_cells(self, tmp_path, bench_utils):
        from repro.core import find_maximum_defective_clique
        from repro.graphs import gnp_random_graph

        graph = gnp_random_graph(30, 0.3, seed=1)
        recorder = bench_utils.BenchRecorder("ablation_probe")
        for variant in ("kDC", "kDC-t"):
            result = find_maximum_defective_clique(graph, 2, variant=variant)
            assert result.stats.backend == "bitset"
            recorder.record_solve("g30", result, k=2, column=variant)
        db = str(tmp_path / "trajectory.sqlite")
        assert recorder.write() == db
        assert recorder.write() is None  # nothing new: no second run
        with ExperimentStore(db) as store:
            assert len(store.runs()) == 1
            rows = store.rows()
        assert sorted(row["algorithm"] for row in rows) == ["kDC", "kDC-t"]
        assert os.listdir(tmp_path) == ["trajectory.sqlite"]
