"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig16-ramp --seed 1 --seconds 25 --trace 0

Every run happens in fresh single-threaded child processes
(``worker.py``) that import the library from ``src/``; the parent only
spawns them, checks them and prints the result. The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``catalog.END_TO_END``:
set-up time is the median of several fresh processes, each timed from
spawn to its first timed operation; the rest come from one process that
runs the workload's units. Times are calibrated to a fixed machine
speed (see ``meter.py``); the raw ones are printed above the result.
``--trace 1`` runs the first half of those units (at least one) once
untraced and twice traced and reports ``catalog.PER_LAYER``; the
traced runs' exact counts and digests must agree. See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import meter  # noqa: E402
import workloads  # noqa: E402

#: The seed a bare invocation uses, and the held-out seed a claimed gain
#: must also hold on (never used while tuning a change).
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
#: Set-up-only processes started besides the measuring one.
SETUP_REPEATS = 4
#: Whole-run budget; children still running at the deadline are killed.
BUDGET_S = 170.0
#: ``--seconds`` when not given (``BENCHMARK.json``'s ``run_seconds``).
DEFAULT_SECONDS = 25.0


class BenchError(RuntimeError):
    """A child failed or the run went over budget: no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker; return its report and the spawn instant."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time budget")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {args} over the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def _percentile_ms(ticks: list[float], q: int) -> float:
    return statistics.quantiles(ticks, n=100, method="inclusive")[q - 1] * 1e3


def _digest(report: dict) -> str:
    return hashlib.sha256("".join(report["digests"]).encode()).hexdigest()


def measure(workload: str, seed: int, units: int, deadline: float) -> dict:
    """The untraced run: every end-to-end metric."""
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []  # (raw, calibrated) seconds
    for index in range(SETUP_REPEATS + 1):
        mode = "setup" if index < SETUP_REPEATS else "run"
        report, spawned = _spawn([*base, "--mode", mode, "--units", str(units)], deadline)
        raw = report["setup_end"] - spawned
        setups.append((raw, raw * meter.REFERENCE_S / report["setup_speed"]))
    ticks, raw_ticks = report["ticks"], report["raw_ticks"]
    report["metrics"] = {
        "setup_s": statistics.median(cal for _, cal in setups),
        "ops_per_s": report["ops"] / sum(ticks),
        "tick_ms_p50": _percentile_ms(ticks, 50),
        "tick_ms_p95": _percentile_ms(ticks, 95),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    print(f"units={units} ticks={len(ticks)} ops={report['ops']} wall_s={report['wall_s']:.3f}")
    print(
        f"raw (uncalibrated): setup_s={statistics.median(raw for raw, _ in setups):.4f}"
        f" ops_per_s={report['ops'] / sum(raw_ticks):.6g}"
        f" tick_ms_p50={_percentile_ms(raw_ticks, 50):.4f}"
        f" tick_ms_p95={_percentile_ms(raw_ticks, 95):.4f}"
    )
    print(f"setup_s samples: {', '.join(f'{cal:.4f}' for _, cal in setups)}")
    return report


def trace(workload: str, seed: int, units: int, deadline: float) -> dict:
    """The traced run: every per-layer metric."""
    base = ["--workload", workload, "--seed", str(seed), "--units", str(units)]
    plain, _ = _spawn([*base, "--mode", "run"], deadline)
    spans = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.npz"
    first, _ = _spawn([*base, "--mode", "trace", "--spans", str(spans)], deadline)
    second, _ = _spawn([*base, "--mode", "trace"], deadline)

    mismatched = [
        name
        for name in catalog.EXACT_COUNTS
        if first["layers"][name] != second["layers"][name]
    ]
    if mismatched:
        first["correct"] = False
        first["notes"].append(f"counts differ between traced runs: {', '.join(mismatched)}")
    if not first["digests"] == second["digests"] == plain["digests"]:
        first["correct"] = False
        first["notes"].append("simulated-output digests differ between runs")
    # Tick time excludes the untraced run's calibration samples.
    traced = (sum(first["raw_ticks"]) + sum(second["raw_ticks"])) / 2
    first["metrics"] = {
        **first["layers"],
        "trace.overhead_frac": traced / sum(plain["raw_ticks"]) - 1.0,
    }
    print(f"units={units} spans={first['spans']} written to {spans.relative_to(ROOT)}")
    print(f"wall_s untraced={plain['wall_s']:.3f} traced={first['wall_s']:.3f},"
          f" {second['wall_s']:.3f}")
    print("host-time share by layer (self time over traced wall time):")
    for layer, share in first["shares"].items():
        print(f"  {layer:<12} {share:7.1%}")
    return first


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    units = workloads.units_for(args.workload, args.seconds)
    try:
        if args.trace:
            report = trace(args.workload, args.seed, max(1, units // 2), deadline)
            catalogue = catalog.PER_LAYER
        else:
            report = measure(args.workload, args.seed, units, deadline)
            catalogue = catalog.END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for note in report["notes"]:
        print(f"check: {note}")
    print(f"digest: {_digest(report)} (first unit {report['digests'][0]})")
    metrics = {}
    for name, (unit, _) in catalogue.items():
        metrics[name] = {"value": report["metrics"][name], "unit": unit}
        print(f"{name:<36} {report['metrics'][name]:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": bool(report["correct"]),
                "attempted": int(report["attempted"]),
                "failed": int(report["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
