"""The example scripts that no CI job runs: each must exit 0.

``service_quickstart.py``, ``crash_recovery_smoke.py`` and
``citation_hotspots.py`` have CI jobs of their own; the rest run here, each
in a fresh interpreter with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXAMPLES = (
    "quickstart.py",
    "paper_walkthrough.py",
    "social_network_analysis.py",
    "complexity_table.py",
    "theory_validation.py",
    "bound_quality_study.py",
    "protein_interaction_prediction.py",
)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
