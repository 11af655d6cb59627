"""Smoke test: the fast example scripts run to completion.

``autoscaling_demo.py`` is left out: it replays full Fig. 16 ramps and
takes the better part of a minute.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

FAST_EXAMPLES = [
    "fleet_scenarios",
    "lifetime_budgeting",
    "oversubscription_packing",
    "provider_operations",
    "quickstart",
]


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / f"{name}.py")],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
