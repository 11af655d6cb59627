"""The benchmark's three workloads.

Each workload is a sequence of *units* of simulated work, one per
consecutive seed starting at the workload seed. A unit builds its world
from the library's public API, runs it one *tick* at a time under a
:class:`~meter.Meter`, checks its outputs and returns a
:class:`UnitResult`:

* ``fig16-ramp`` — one OC-A auto-scaler DES over the Fig. 16 stepped
  ramp; a tick is one controller decision interval of simulated time.
* ``service-32`` — one robust 32-host ``ServiceCore`` day with the
  overload storm applied after a warm phase; a tick is one
  ``ServiceCore.tick``.
* ``fleet-scenarios`` — the six small robustness experiments, both arms
  each, at one scenario seed; a tick is one experiment.

``ops`` are the operations a unit brings to a terminal state: simulated
requests for the first two, scenario runs for the third.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from meter import Meter

#: Fig. 16 ramp levels kept (500, 1000, 1500 QPS); the 300 s step
#: period is the paper's.
FIG16_LEVELS = 3
#: In-flight requests per attached vcore above which the ramp's horizon
#: counts as a growing backlog (a settled fleet holds a handful).
BACKLOG_PER_VCORE = 10

#: ``ServiceConfig`` defaults are for 4 hosts; ``service-32`` scales
#: every load-bearing capacity by this factor.
SERVICE_SCALE = 8
#: Calm ticks before the storm (100 s of the rising diurnal load), and
#: ticks after it: the 110 s excursion plus 20 s as the ladders relax.
#: The 280 surge ticks are the costliest and the 240 ticks after the
#: surge the cheapest, so the median tick is a calm one and the p95
#: tick a surge one.
SERVICE_WARM_TICKS = 400
SERVICE_STORM_TICKS = 520


@dataclass
class UnitResult:
    """What one unit of work reports back to the runner."""

    #: Operations brought to a terminal state.
    ops: int
    #: Operations attempted and, of those, failed their output check.
    attempted: int
    failed: int
    #: False when the outputs themselves are inconsistent (a request
    #: lost by the accounting), as opposed to an operation that failed.
    correct: bool
    #: sha256 over the unit's simulated statistics.
    digest: str
    #: Per-workload statistics (counts, stages) for the report.
    stats: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _sha(*parts: object) -> str:
    return hashlib.sha256("|".join(repr(part) for part in parts).encode()).hexdigest()


def _is_sha256(text: str) -> bool:
    return len(text) == 64 and all(char in "0123456789abcdef" for char in text)


# ----------------------------------------------------------------------
# fig16-ramp
# ----------------------------------------------------------------------
class Fig16Ramp:
    """One OC-A auto-scaler run over a truncated Fig. 16 ramp.

    The world is the one ``run_fig16_mode`` builds (the same schedule,
    policy, bursty open-loop source and schedule poll), but the DES is
    advanced one decision interval at a time so that each interval's
    host time is a tick sample and every VM that ever served is seen for
    the request-conservation check.
    """

    name = "fig16-ramp"

    def __init__(self, levels: int = FIG16_LEVELS) -> None:
        self.levels = levels

    def build(self, seed: int) -> dict[str, Any]:
        from repro.autoscale.controller import AutoScaler
        from repro.autoscale.policy import AutoscalePolicy, ScalerMode
        from repro.experiments import autoscaling as fig16
        from repro.sim.kernel import Simulator
        from repro.sim.processes import OpenLoopSource, PiecewiseSchedule

        schedule = PiecewiseSchedule.stepped(
            initial=fig16.FIG16_INITIAL_QPS,
            step=fig16.FIG16_STEP_QPS,
            period=fig16.FIG16_STEP_PERIOD_S,
            count=self.levels,
        )
        simulator = Simulator(seed=seed)
        policy = AutoscalePolicy(mode=ScalerMode.OC_A, max_vms=fig16.FIG16_MAX_VMS)
        scaler = AutoScaler(simulator, policy, initial_vms=1, warmup_s=30.0)
        source = OpenLoopSource(
            simulator,
            scaler.load_balancer.route,
            rate_per_second=schedule.value_at(0.0),
            burst_mean=fig16.CLIENT_BURST_MEAN,
        )

        def follow_schedule() -> None:
            target = schedule.value_at(simulator.now)
            if target != source.rate:
                source.set_rate(target)

        simulator.every(fig16.SCHEDULE_POLL_S, follow_schedule, name="load-schedule")
        return {
            "simulator": simulator,
            "scaler": scaler,
            "source": source,
            "interval_s": policy.decision_interval_s,
            "horizon_s": fig16.FIG16_STEP_PERIOD_S * self.levels,
        }

    def run(self, world: dict[str, Any], meter: Meter) -> UnitResult:
        simulator = world["simulator"]
        scaler = world["scaler"]
        balancer = scaler.load_balancer
        interval_s, horizon_s = world["interval_s"], world["horizon_s"]
        seen: dict[int, Any] = {}
        step = 0
        while simulator.now < horizon_s:
            step += 1
            until = min(step * interval_s, horizon_s)
            meter.part(lambda: simulator.run(until=until))
            meter.close_tick()
            for vm in balancer.vms:
                seen.setdefault(id(vm), vm)
        result = scaler.finish()

        generated = world["source"].generated
        completed = len(result.latency) + result.latency.dropped_warmup_samples
        in_flight = sum(vm.in_flight for vm in seen.values())
        dropped = balancer.dropped_requests
        unaccounted = abs(generated - (completed + in_flight + dropped))
        vcores = sum(vm.vcores for vm in balancer.vms)
        backlog = in_flight > BACKLOG_PER_VCORE * max(1, vcores)
        notes = []
        if unaccounted:
            notes.append(f"{unaccounted} requests unaccounted")
        if backlog:
            notes.append(f"growing backlog: {in_flight} in flight on {vcores} vcores")
        stats = {
            "generated": generated,
            "p95_s": result.latency.p95(),
            "mean_s": result.latency.mean(),
            "max_vms": result.max_vms,
            "vm_hours": result.vm_hours(),
            "avg_power_w": result.power.average_watts(),
            "in_flight_at_horizon": in_flight,
        }
        return UnitResult(
            ops=completed + dropped,
            attempted=generated,
            failed=unaccounted + dropped + (in_flight if backlog else 0),
            correct=unaccounted == 0,
            digest=_sha(
                stats["p95_s"],
                stats["mean_s"],
                stats["max_vms"],
                stats["vm_hours"],
                stats["avg_power_w"],
            ),
            stats=stats,
            notes=notes,
        )


# ----------------------------------------------------------------------
# service-32
# ----------------------------------------------------------------------
def service32_config():
    """The 4-host ``ServiceConfig`` defaults scaled to 32 hosts."""
    from repro.service.core import ServiceConfig

    base = ServiceConfig()
    k = SERVICE_SCALE

    def scaled(policy):
        return dataclasses.replace(
            policy, rate_per_s=policy.rate_per_s * k, burst=policy.burst * k
        )

    return dataclasses.replace(
        base,
        hosts=base.hosts * k,
        trough_rps=base.trough_rps * k,
        peak_rps=base.peak_rps * k,
        critical_policy=scaled(base.critical_policy),
        standard_policy=scaled(base.standard_policy),
        batch_policy=scaled(base.batch_policy),
        queue_capacity=base.queue_capacity * k,
        max_in_flight=base.max_in_flight * k,
        tank_capacity_watts=base.tank_capacity_watts * k,
        fluid_mass_grams=base.fluid_mass_grams * k,
    )


def _service_terminal(counters) -> int:
    return (
        counters.completed_ok
        + counters.completed_late
        + counters.rejected_throttled
        + counters.rejected_brownout
        + counters.shed_expired
        + counters.shed_overflow
        + counters.shed_low_priority
        + counters.lost_to_trips
    )


class Service32:
    """A robust 32-host ``ServiceCore`` day through the overload storm."""

    name = "service-32"

    def build(self, seed: int) -> Any:
        from repro.service.core import ServiceCore

        return ServiceCore(seed=seed, config=service32_config(), mode="robust")

    def run(self, core: Any, meter: Meter) -> UnitResult:
        from repro.experiments import overload_storm as storm

        unaccounted = 0
        max_emergency = max_brownout = 0

        def advance(count: int) -> None:
            nonlocal max_emergency, max_brownout
            for _ in range(count):
                meter.part(core.tick)
                meter.close_tick()
                max_emergency = max(max_emergency, int(core.emergency_stage))
                max_brownout = max(max_brownout, int(core.brownout_stage))

        def check() -> int:
            counters = core.counters
            in_system = core.queue_depth + core.in_flight
            return abs(counters.offered - (_service_terminal(counters) + in_system))

        advance(SERVICE_WARM_TICKS)
        unaccounted += check()
        core.apply_op(
            {
                "op": "demand-surge",
                "factor": storm.SURGE_FACTOR,
                "duration_s": storm.SURGE_DURATION_S,
            }
        )
        core.apply_op(
            {
                "op": "thermal-excursion",
                "derate": storm.EXCURSION_DERATE,
                "duration_s": storm.EXCURSION_DURATION_S,
            }
        )
        advance(SERVICE_STORM_TICKS)
        unaccounted += check()

        counters = core.counters
        shed = counters.shed_expired + counters.shed_overflow + counters.shed_low_priority
        stats = {
            "offered": counters.offered,
            "admitted": counters.admitted,
            "shed": shed,
            "refused": counters.rejected_throttled + counters.rejected_brownout,
            "max_emergency_stage": max_emergency,
            "max_brownout_stage": max_brownout,
        }
        return UnitResult(
            ops=_service_terminal(counters),
            attempted=counters.offered,
            failed=unaccounted,
            correct=unaccounted == 0,
            digest=core.signature,
            stats=stats,
            notes=[f"{unaccounted} requests unaccounted"] if unaccounted else [],
        )


# ----------------------------------------------------------------------
# fleet-scenarios
# ----------------------------------------------------------------------
def _partition(seed: int, engine) -> tuple[list[str], list[str]]:
    from repro.experiments import partition_recovery as pr

    c = pr.run_partition_recovery(seed, engine=engine)
    revert = c.robust.host1_revert_at_s
    ok = revert is not None and revert <= pr.PARTITION_AT_S + c.lease_bound_s
    problems = [] if ok else [f"partition: robust revert at {revert} past the lease bound"]
    return [c.naive.timeline_signature, c.robust.timeline_signature], problems


def _heatwave(seed: int, engine) -> tuple[list[str], list[str]]:
    from repro.experiments import heatwave_ride_through as hw

    c = hw.run_heatwave_ride_through(seed, engine=engine)
    violations = c.laddered.tjmax_violations
    problems = [f"heatwave: {violations} Tjmax violations"] if violations else []
    return [c.naive.timeline_signature, c.laddered.timeline_signature], problems


def _oversubscribe(seed: int, engine) -> tuple[list[str], list[str]]:
    from repro.experiments import oversubscription_crisis as oc

    c = oc.run_oversubscription_crisis(seed, engine=engine)
    trips = c.arbitrated.breaker_trips
    problems = [f"oversubscribe: arbitrated breaker trips {list(trips)}"] if trips else []
    return [c.naive.timeline_signature, c.arbitrated.timeline_signature], problems


def _healthscan(seed: int, engine) -> tuple[list[str], list[str]]:
    from repro.experiments import sdc_hunt as sh

    c = sh.run_sdc_hunt(seed, engine=engine)
    robust = c.robust
    problems = []
    if robust.sdc_escapes or robust.crashes:
        problems.append(
            f"healthscan: {robust.sdc_escapes} SDC escapes, {robust.crashes} crashes"
        )
    return [c.naive.run_signature, robust.run_signature], problems


def _rollout(seed: int, engine) -> tuple[list[str], list[str]]:
    from repro.experiments import envelope_rollout as er

    c = er.run_envelope_rollout(seed, engine=engine)
    canary = c.canary
    problems = []
    if not canary.rolled_back or canary.sdc_leaked:
        problems.append(
            f"rollout: rolled_back={canary.rolled_back}, {canary.sdc_leaked} SDCs leaked"
        )
    return [c.naive.run_signature, canary.run_signature], problems


def _degraded_telemetry(seed: int, engine) -> tuple[list[str], list[str]]:
    from repro.experiments import degraded_telemetry as dt

    # Runs its own loop (no sweep engine); no run signature, so the
    # digest covers the whole result.
    del engine
    r = dt.run_degraded_telemetry(seed)
    problems = [
        f"degraded-telemetry: {kind} fail-safe {safe.ticks_above_tjmax} ticks above Tjmax"
        for kind, (_naive, safe) in r.by_kind.items()
        if safe.ticks_above_tjmax > r.bound_ticks
    ]
    latency = r.loss_derate_latency_ticks
    if latency is None or latency > r.bound_ticks:
        problems.append(f"degraded-telemetry: total-loss derate after {latency} ticks")
    return [repr(r)], problems


#: (name, runner) in run order; the name is the ``python -m repro`` one.
SCENARIOS: tuple[tuple[str, Callable[[int, Any], tuple[list[str], list[str]]]], ...] = (
    ("partition", _partition),
    ("heatwave", _heatwave),
    ("oversubscribe", _oversubscribe),
    ("healthscan", _healthscan),
    ("rollout", _rollout),
    ("degraded-telemetry", _degraded_telemetry),
)


class FleetScenarios:
    """The six robustness experiments, both arms, at one scenario seed."""

    name = "fleet-scenarios"

    def __init__(self) -> None:
        #: Wraps each scenario call; the traced run times them here.
        self.around: Callable[[str, Callable[[], Any]], Any] = lambda _name, call: call()

    def build(self, seed: int) -> Any:
        import repro.experiments  # noqa: F401  (set-up covers every scenario's imports)
        from repro.engine.core import SweepEngine

        # Serial, in-process and uncached: every point is executed here.
        return seed, SweepEngine(max_workers=1, cache=None)

    def run(self, world: Any, meter: Meter) -> UnitResult:
        seed, engine = world
        signatures: list[str] = []
        notes: list[str] = []
        failed = 0
        correct = True
        for name, runner in SCENARIOS:
            sigs, problems = meter.part(
                lambda name=name, runner=runner: self.around(
                    name, lambda: runner(seed, engine)
                )
            )
            meter.close_tick()
            # The two arms run different stacks, so their sha256 run
            # signatures must both be well formed and must differ.
            if len(sigs) == 2:
                correct &= sigs[0] != sigs[1] and all(_is_sha256(sig) for sig in sigs)
            signatures.extend(sigs)
            notes.extend(f"seed {seed}: {problem}" for problem in problems)
            failed += bool(problems)
        return UnitResult(
            ops=len(SCENARIOS),
            attempted=len(SCENARIOS),
            failed=failed,
            correct=correct,
            digest=_sha(seed, *signatures),
            notes=notes,
        )


WORKLOADS = {
    Fig16Ramp.name: Fig16Ramp,
    Service32.name: Service32,
    FleetScenarios.name: FleetScenarios,
}

#: Host seconds of one unit at the parent commit on a 2-vCPU VM; a run
#: of ``--seconds S`` does ``round(S / nominal)`` units (at least one),
#: so the simulated work depends only on the seed and ``S``.
NOMINAL_UNIT_S = {
    "fig16-ramp": 15.0,
    "service-32": 21.0,
    "fleet-scenarios": 0.5,
}


def units_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_UNIT_S[workload]))
