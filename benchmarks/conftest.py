"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper (see
``DESIGN.md`` for the experiment index).  Scale knobs live in
``_bench_utils.py``.
"""

from __future__ import annotations

import os
import sys

import pytest

_HERE = os.path.dirname(__file__)
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for path in (_SRC, _HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from _bench_utils import bench_scale, bench_time_limit, write_all_bench_records  # noqa: E402


@pytest.fixture(autouse=True, scope="session")
def _flush_bench_records():
    """Flush the session's benchmark rows into the experiment store."""
    yield
    for path in write_all_bench_records():
        print(f"[bench-store] wrote a run to {path}")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def time_limit() -> float:
    return bench_time_limit()


@pytest.fixture(scope="session")
def reference_graph():
    """A fixed mid-size facebook-like graph used by the micro-benchmarks."""
    from repro.datasets import get_collection

    instances = get_collection("facebook_like", scale=bench_scale())
    return instances[len(instances) // 2].graph
