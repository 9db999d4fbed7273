"""The verdict of ``.github/perfbench_ab.py`` on synthetic perfbench result lines."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location(
        "perfbench_ab", os.path.join(ROOT, ".github", "perfbench_ab.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


BASE = {"setup_s": 0.3, "latency_ms_p50": 20.0, "latency_ms_tail": 30.0, "peak_rss_mb": 100.0}


def line(scale=None, correct=True, failed=0, attempted=100):
    values = {name: value * (scale or {}).get(name, 1.0) for name, value in BASE.items()}
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()},
    })


def pairs(change_lines):
    return [(line(), change) for change in change_lines]


def test_equal_pairs_pass(ab, bench):
    passed, report = ab.verdict(bench, pairs([line()] * 5))
    assert passed, report
    assert report[-1] == "PASS"


def test_worse_on_every_pair_fails_and_names_the_metric(ab, bench):
    passed, report = ab.verdict(bench, pairs([line({"latency_ms_p50": 1.3})] * 5))
    assert not passed
    failing = [r for r in report if "FAIL" in r and r.startswith("latency_ms_p50")]
    assert failing, report


def test_worse_on_some_pairs_is_unresolved_and_passes(ab, bench):
    changes = [line({"latency_ms_p50": 1.3})] * 4 + [line()]
    passed, report = ab.verdict(bench, pairs(changes))
    assert passed, report
    assert any(r.startswith("latency_ms_p50") and "unresolved" in r for r in report)


def test_improvements_pass(ab, bench):
    faster = {name: 0.5 for name in BASE}
    passed, report = ab.verdict(bench, pairs([line(faster)] * 5))
    assert passed, report


def test_one_incorrect_run_fails(ab, bench):
    changes = [line()] * 4 + [line(correct=False)]
    assert not ab.verdict(bench, pairs(changes))[0]
    assert not ab.verdict(bench, pairs([line()] * 4 + [""]))[0]


def test_larger_failed_share_fails(ab, bench):
    changes = [line()] * 4 + [line(failed=1)]
    passed, report = ab.verdict(bench, pairs(changes))
    assert not passed
    assert any("larger share" in r for r in report)


@pytest.mark.parametrize("ratio, expected", [(1.22, False), (1.18, True)])
def test_peak_rss_has_its_own_bound(ab, bench, ratio, expected):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["peak_rss_mb"] < 1.22 - 1 < bounds["latency_ms_p50"]
    passed, report = ab.verdict(bench, pairs([line({"peak_rss_mb": ratio})] * 5))
    assert passed is expected, report


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _files(root):
    return {str(p.relative_to(root)): p.read_text() for p in root.rglob("*") if p.is_file()}


def test_fresh_copies_leave_out_work_files_and_caches(ab, tmp_path):
    kept = {"src/pkg/mod.py": "x = 1\n", "perfbench/run.py": "# parent\n", "BENCHMARK.json": "{}",
            "tests/test_a.py": "", ".github/perfbench_ab.py": ""}
    skipped = {".git/HEAD": "ref", ".perfbench_work/spans.json": "[]",
               "src/pkg/__pycache__/mod.cpython-311.pyc": "", "tests/__pycache__/t.pyc": "",
               ".pytest_cache/v/cache/lastfailed": "{}", ".hypothesis/examples/x": ""}
    parent = _tree(tmp_path / "parent", {**kept, **skipped})
    change = _tree(tmp_path / "change", {**kept, "perfbench/run.py": "# change\n",
                                         "BENCHMARK.json": '{"run_seconds": 1}', **skipped})
    before = _files(parent)
    trees = ab.fresh_copies(str(parent), str(change), str(tmp_path / "scratch"))
    assert set(trees) == {"parent", "change"}
    copied = {side: _files(tmp_path / "scratch" / side) for side in trees}
    assert set(copied["parent"]) == set(copied["change"]) == set(kept)
    # The parent copy runs the change's benchmark code; the parent tree is untouched.
    assert copied["parent"]["perfbench/run.py"] == "# change\n"
    assert copied["parent"]["BENCHMARK.json"] == '{"run_seconds": 1}'
    assert copied["parent"]["src/pkg/mod.py"] == "x = 1\n"
    assert _files(parent) == before
