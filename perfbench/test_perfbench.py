"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from meter import Meter  # noqa: E402


def _unit(workload, seed):
    return workload.run(workload.build(seed), Meter(calibrate=False))


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == catalog.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fig16_stepping_matches_run_fig16_mode():
    """Stepping the DES one decision interval at a time changes nothing."""
    from repro.autoscale.policy import ScalerMode
    from repro.experiments.autoscaling import run_fig16_mode

    ours = _unit(workloads.Fig16Ramp(levels=1), seed=3)
    theirs = run_fig16_mode(ScalerMode.OC_A, seed=3, levels=1)
    assert ours.correct and ours.failed == 0
    assert ours.stats["p95_s"] == theirs.latency.p95()
    assert ours.stats["mean_s"] == theirs.latency.mean()
    assert ours.stats["max_vms"] == theirs.max_vms
    assert ours.stats["vm_hours"] == theirs.vm_hours()
    assert ours.stats["avg_power_w"] == theirs.power.average_watts()


@pytest.mark.parametrize(
    "make",
    [
        lambda: workloads.Fig16Ramp(levels=1),
        workloads.Service32,
        workloads.FleetScenarios,
    ],
    ids=["fig16-ramp", "service-32", "fleet-scenarios"],
)
def test_digest_repeats_for_a_seed_and_differs_across_seeds(make):
    first = _unit(make(), seed=1)
    again = _unit(make(), seed=1)
    other = _unit(make(), seed=2)
    assert first.correct and again.correct and other.correct
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert (first.attempted, first.failed, first.ops) == (again.attempted, again.failed, again.ops)


def test_service32_runs_the_storm_and_accounts_for_every_request():
    result = _unit(workloads.Service32(), seed=1)
    assert result.correct and result.failed == 0
    assert result.stats["max_emergency_stage"] >= 3
    assert result.stats["shed"] + result.stats["refused"] > 0.2 * result.stats["offered"]


def test_known_oversubscribe_defect_counts_as_failed():
    """Seed 5's arbitrated arm trips a breaker: a failed operation, not
    an incorrect output."""
    result = _unit(workloads.FleetScenarios(), seed=5)
    assert result.correct
    assert result.failed == 1
    assert any("oversubscribe" in note for note in result.notes)


def test_span_times_self_and_inclusive():
    # a(0..10) > [b(1..4) > b(2..3)], c(5..6); then b(11..12) at top level.
    names = ["a", "b", "c"]
    spans = {
        "name": np.array([0, 1, 1, 2, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 1, 0, -1], dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0, 5.0, 11.0]),
        "end": np.array([10.0, 4.0, 3.0, 6.0, 12.0]),
    }
    times = tracing.span_times(spans, names)
    assert times["a"] == {"calls": 1, "self_s": 6.0, "incl_s": 10.0}
    assert times["b"] == {"calls": 3, "self_s": 4.0, "incl_s": 4.0}
    assert times["c"] == {"calls": 1, "self_s": 1.0, "incl_s": 1.0}
    shares = tracing.layer_shares(times, spans, wall_s=13.0)
    assert shares["benchmark"] == pytest.approx(2.0 / 13.0)


def test_traced_counts_repeat_and_tracing_changes_no_output():
    base = ["--workload", "fleet-scenarios", "--seed", "4", "--units", "2"]
    deadline = run.time.monotonic() + 120
    plain, _ = run._spawn([*base, "--mode", "run"], deadline)
    first, _ = run._spawn([*base, "--mode", "trace"], deadline)
    second, _ = run._spawn([*base, "--mode", "trace"], deadline)
    assert plain["digests"] == first["digests"] == second["digests"]
    for name in catalog.EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["control.send_calls"] > 0
    assert first["layers"]["power.rollup_calls"] > 0
    assert first["layers"]["workloads.in_flight_calls"] == 0
    assert set(first["layers"]) | {"trace.overhead_frac"} == set(catalog.PER_LAYER)


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark, the run fails fast."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig16-ramp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
