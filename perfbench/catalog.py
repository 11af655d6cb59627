"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` lists the same names, units and directions; a test
keeps the two in step.
"""

from __future__ import annotations

#: name -> (unit, better). Printed by every untraced run.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "tick_ms_p50": ("ms", "lower"),
    "tick_ms_p95": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better). Printed by every traced run; 0 where the
#: workload never enters the layer. ``README.md`` says which
#: end-to-end metric and workload each one should move.
PER_LAYER: dict[str, tuple[str, str]] = {
    "sim.events": ("count", "lower"),
    "sim.pushes": ("count", "lower"),
    "sim.useful_push_frac": ("ratio", "higher"),
    "sim.self_s": ("s", "lower"),
    "workloads.submit_calls": ("count", "lower"),
    "workloads.submit_self_s": ("s", "lower"),
    "workloads.set_frequency_calls": ("count", "lower"),
    "workloads.route_self_s": ("s", "lower"),
    "workloads.in_flight_calls": ("count", "lower"),
    "workloads.in_flight_s": ("s", "lower"),
    "workloads.arrivals_s": ("s", "lower"),
    "autoscale.snapshot_calls": ("count", "lower"),
    "autoscale.snapshot_s": ("s", "lower"),
    "service.tick_self_s": ("s", "lower"),
    "service.admit_s": ("s", "lower"),
    "service.admitted_frac": ("ratio", "higher"),
    "service.queue_s": ("s", "lower"),
    "service.shed": ("count", "lower"),
    "service.ladder_s": ("s", "lower"),
    "emergency.observe_s": ("s", "lower"),
    "thermal.tank_s": ("s", "lower"),
    "control.heartbeat_s": ("s", "lower"),
    "control.send_calls": ("count", "lower"),
    "control.send_s": ("s", "lower"),
    "control.deliver_s": ("s", "lower"),
    "power.rollup_calls": ("count", "lower"),
    "power.rollup_s": ("s", "lower"),
    "power.arbiter_s": ("s", "lower"),
    "health.mce_s": ("s", "lower"),
    "health.coordinator_s": ("s", "lower"),
    "health.detector_s": ("s", "lower"),
    "rollout.tick_s": ("s", "lower"),
    "rollout.analyzer_s": ("s", "lower"),
    "engine.overhead_s": ("s", "lower"),
    "experiments.partition_s": ("s", "lower"),
    "experiments.heatwave_s": ("s", "lower"),
    "experiments.oversubscribe_s": ("s", "lower"),
    "experiments.healthscan_s": ("s", "lower"),
    "experiments.rollout_s": ("s", "lower"),
    "experiments.degraded_telemetry_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: Per-layer counts that must repeat exactly across traced runs of one
#: seed (times never do).
EXACT_COUNTS = tuple(
    name
    for name in PER_LAYER
    if name.endswith("_calls") or name in ("sim.events", "sim.pushes", "service.shed")
)


def layer_metrics(
    times: dict[str, dict[str, float]],
    pushes: int,
    events: int,
    service: dict[str, int],
) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``.

    ``times`` is :func:`tracing.span_times` output, ``service`` sums the
    service-32 counters (``offered``, ``admitted``, ``shed``).
    """

    def stat(span: str, key: str) -> float:
        return times.get(span, {}).get(key, 0)

    out: dict[str, float] = {
        "sim.events": events,
        "sim.pushes": pushes,
        "sim.useful_push_frac": events / pushes if pushes else 0.0,
        "sim.self_s": stat("sim.run", "self_s"),
        "workloads.submit_calls": stat("workloads.submit", "calls"),
        "workloads.submit_self_s": stat("workloads.submit", "self_s"),
        "workloads.set_frequency_calls": stat("workloads.set_frequency", "calls"),
        "workloads.route_self_s": stat("workloads.route", "self_s"),
        "workloads.in_flight_calls": stat("workloads.in_flight", "calls"),
        "workloads.in_flight_s": stat("workloads.in_flight", "incl_s"),
        "workloads.arrivals_s": stat("workloads.arrivals", "incl_s"),
        "autoscale.snapshot_calls": stat("autoscale.snapshot", "calls"),
        "autoscale.snapshot_s": stat("autoscale.snapshot", "incl_s"),
        "service.tick_self_s": stat("service.tick", "self_s"),
        "service.admit_s": stat("service.admit", "incl_s"),
        "service.admitted_frac": (
            service["admitted"] / service["offered"] if service.get("offered") else 0.0
        ),
        "service.queue_s": stat("service.queue", "incl_s"),
        "service.shed": service.get("shed", 0),
        "service.ladder_s": stat("service.ladder", "incl_s"),
        "emergency.observe_s": stat("emergency.observe", "incl_s"),
        "thermal.tank_s": stat("thermal.tank", "incl_s"),
        "control.heartbeat_s": stat("control.heartbeat", "incl_s"),
        "control.send_calls": stat("control.send", "calls"),
        "control.send_s": stat("control.send", "incl_s"),
        "control.deliver_s": stat("control.deliver", "incl_s"),
        "power.rollup_calls": stat("power.rollup", "calls"),
        "power.rollup_s": stat("power.rollup", "incl_s"),
        "power.arbiter_s": stat("power.arbiter", "incl_s"),
        "health.mce_s": stat("health.mce", "incl_s"),
        "health.coordinator_s": stat("health.coordinator", "incl_s"),
        "health.detector_s": stat("health.detector", "incl_s"),
        "rollout.tick_s": stat("rollout.tick", "incl_s"),
        "rollout.analyzer_s": stat("rollout.analyzer", "incl_s"),
        "engine.overhead_s": stat("engine.run", "self_s"),
    }
    for metric in PER_LAYER:
        if metric.startswith("experiments."):
            scenario = metric[len("experiments.") : -len("_s")].replace("_", "-")
            out[metric] = stat(f"experiments.{scenario}", "incl_s")
    return out
