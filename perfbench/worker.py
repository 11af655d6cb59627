"""One benchmark process: set up a workload, run it, report one JSON line.

Started by ``run.py`` in a fresh interpreter, with the library's
``src`` directory on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload service-32 --seed 1 --units 1 \\
        --mode run

``--mode setup`` stops once the first unit's world is built; ``run``
also runs ``--units`` units under a calibrating :class:`meter.Meter`;
``trace`` runs them uncalibrated with every layer's entry points
wrapped (see ``tracing.py``) and writes the spans to ``--spans``. The
line printed reports ``setup_end``, read from the system-wide monotonic
clock so the parent can subtract its own spawn-time reading, and
``setup_speed``, the reference time measured right after set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
import meter  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, default=1)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--spans", type=Path, help="span file of a traced run")
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer(f"{args.workload}/seed-{args.seed}/{time.time_ns()}")
        tracer.install()

    workload = workloads.WORKLOADS[args.workload]()
    if tracer is not None and hasattr(workload, "around"):
        workload.around = lambda name, call: tracer.call(f"experiments.{name}", call)
    world = workload.build(args.seed)
    setup_end = time.monotonic()
    report: dict = {"setup_end": setup_end}
    if tracer is None:
        report["setup_speed"] = meter.speed_sample()
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    results = []
    ticks = meter.Meter(calibrate=tracer is None)
    clock = time.perf_counter
    start = clock()
    for index in range(args.units):
        if index:
            world = workload.build(args.seed + index)
        results.append(workload.run(world, ticks))
    wall_s = clock() - start

    service = {
        key: sum(result.stats.get(key, 0) for result in results)
        for key in ("offered", "admitted", "shed")
    }
    report.update(
        wall_s=wall_s,
        raw_ticks=ticks.ticks(),
        ticks=ticks.calibrated_ticks() if ticks.calibrate else ticks.ticks(),
        ops=sum(result.ops for result in results),
        attempted=sum(result.attempted for result in results),
        failed=sum(result.failed for result in results),
        correct=all(result.correct for result in results),
        digests=[result.digest for result in results],
        stats=[result.stats for result in results],
        notes=[note for result in results for note in result.notes],
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        import tracing

        tracer.uninstall()
        spans = tracer.arrays()
        times = tracing.span_times(spans, tracer.names)
        report["layers"] = catalog.layer_metrics(times, tracer.pushes, tracer.events, service)
        report["shares"] = tracing.layer_shares(times, spans, wall_s)
        report["spans"] = len(spans["start"])
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
