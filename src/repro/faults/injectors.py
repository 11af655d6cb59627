"""Deterministic fault injectors wired into the discrete-event kernel.

A :class:`FaultCampaign` owns one simulator, one
:class:`~repro.faults.plan.FaultPlan`, and one
:class:`~repro.faults.timeline.FaultTimeline`. Injectors register per
:class:`~repro.faults.plan.FaultKind`; :meth:`FaultCampaign.arm` walks
the plan and lets each injector schedule its fault as ordinary
simulator events. Sampled fault times come from the campaign's *own*
random streams (seeded from the plan, one stream per spec), so the
injected chaos never perturbs — and is never perturbed by — the model's
random draws.

The injectors deliberately act through callbacks (``on_crash``,
``on_failure``, ...) rather than poking model internals: the same
campaign drives a bare :class:`~repro.cluster.lifecycle.VMLifecycleManager`
in a unit test and a full closed-loop auto-scaler in an experiment.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from ..control.channel import LossyChannel
from ..errors import FaultError, InjectionError
from ..power.predictor import PeakPowerPredictor
from ..power.tree import DeliveryNode, PowerDeliveryHierarchy
from ..reliability.stability import DEFAULT_ERRORS_PER_CRASH, StabilityModel
from ..sim.kernel import Simulator
from ..sim.random import RandomStreams
from ..telemetry.sensors import FaultySensor, SensorFault, SensorFaultMode
from ..thermal.facility import FacilityState
from ..thermal.junction import JunctionModel
from .plan import (
    CHANNEL_FAULT_KINDS,
    FACILITY_FAULT_KINDS,
    HEALTH_FAULT_KINDS,
    ROLLOUT_FAULT_KINDS,
    SENSOR_FAULT_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from .timeline import FaultTimeline

#: Timeline kinds derived from faults (not directly injectable).
TJ_ALARM = "tj-alarm"
BREAKER_BREACH = "breaker-breach"
RECOVERED = "recovered"


class FaultInjector:
    """Base class: schedules one kind of fault into a campaign."""

    kind: FaultKind

    def schedule(self, campaign: "FaultCampaign", index: int, spec: FaultSpec) -> None:
        raise NotImplementedError


class FaultCampaign:
    """Arms a fault plan against one simulator run."""

    def __init__(self, simulator: Simulator, plan: FaultPlan) -> None:
        self.simulator = simulator
        self.plan = plan
        self.timeline = FaultTimeline()
        # Independent stream registry: campaign draws never share state
        # with the model's own RandomStreams.
        self._streams = RandomStreams(plan.seed)
        self._injectors: dict[FaultKind, FaultInjector] = {}
        self._armed = False

    def register(self, injector: FaultInjector) -> "FaultCampaign":
        """Attach an injector; one per kind (returns self for chaining)."""
        if injector.kind in self._injectors:
            raise FaultError(f"an injector for {injector.kind.value} is already registered")
        self._injectors[injector.kind] = injector
        return self

    def arm(self) -> None:
        """Schedule every spec in the plan. Call exactly once, before
        :meth:`Simulator.run`."""
        if self._armed:
            raise FaultError("campaign is already armed")
        self._armed = True
        for index, spec in enumerate(self.plan.specs):
            injector = self._injectors.get(spec.kind)
            if injector is None:
                raise InjectionError(
                    f"no injector registered for {spec.kind.value} "
                    f"(spec {index} of plan {self.plan.scenario!r})"
                )
            injector.schedule(self, index, spec)

    # ------------------------------------------------------------------
    # Time sampling
    # ------------------------------------------------------------------
    def delay_for(
        self, index: int, spec: FaultSpec, derived_rate_per_hour: float | None = None
    ) -> float | None:
        """Seconds from now until spec ``index`` fires, or None for never.

        Pinned specs (``at_s``) convert to a relative delay; sampled
        specs draw an exponential waiting time from the spec's stream at
        ``rate_per_hour`` (the spec's own, else ``derived_rate_per_hour``
        from the injector's physics). A zero rate suppresses the fault;
        an infinite rate fires it immediately.
        """
        now = self.simulator.now
        if spec.at_s is not None:
            if spec.at_s < now:
                raise InjectionError(
                    f"fault {index} pinned to t={spec.at_s}s but campaign armed at {now}s"
                )
            return spec.at_s - now
        rate = spec.rate_per_hour if spec.rate_per_hour is not None else derived_rate_per_hour
        if rate is None:
            raise InjectionError(
                f"fault {index} ({spec.kind.value}) has no time and no rate to sample from"
            )
        if rate <= 0:
            return None
        if math.isinf(rate):
            return 0.0
        return self._streams.exponential(self.plan.stream_key(index), 3600.0 / rate)


def _lookup(mapping: Mapping[str, object], target: str, kind: FaultKind):
    """Resolve a spec target against an injector's target map."""
    if target in mapping:
        return mapping[target]
    if not target and len(mapping) == 1:
        return next(iter(mapping.values()))
    raise InjectionError(
        f"{kind.value} injector has no target {target!r} "
        f"(knows: {', '.join(sorted(mapping)) or 'none'})"
    )


class VMCrashInjector(FaultInjector):
    """Overclock-induced VM crashes, sampled from the stability model.

    The crash *rate* comes from
    :meth:`~repro.reliability.stability.StabilityModel.crash_rate_per_hour`
    at the given overclock ratio, so pushing the ratio past the stable
    margin makes injected crashes exponentially more frequent — the
    paper's "ungraceful crashes under excess voltage/frequency" made
    executable.
    """

    kind = FaultKind.VM_CRASH

    def __init__(
        self,
        on_crash: Callable[[str], None],
        stability: StabilityModel | None = None,
        overclock_ratio: float = 1.0,
        errors_per_crash: float = DEFAULT_ERRORS_PER_CRASH,
    ) -> None:
        self.on_crash = on_crash
        self.stability = stability if stability is not None else StabilityModel()
        self.overclock_ratio = overclock_ratio
        self.errors_per_crash = errors_per_crash

    def schedule(self, campaign: FaultCampaign, index: int, spec: FaultSpec) -> None:
        derived = self.stability.crash_rate_per_hour(
            self.overclock_ratio, self.errors_per_crash
        )
        delay = campaign.delay_for(index, spec, derived_rate_per_hour=derived)
        if delay is None:
            return
        effective = spec.rate_per_hour if spec.rate_per_hour is not None else derived
        detail = (
            f"rate={effective:.2e}/h"
            if spec.at_s is None
            else f"ratio={self.overclock_ratio:.3f}"
        )

        def fire() -> None:
            campaign.timeline.record(
                campaign.simulator.now, spec.kind.value, spec.target, detail
            )
            self.on_crash(spec.target)

        campaign.simulator.after(delay, fire, name=f"fault:vm-crash:{spec.target}")


class HostFailureInjector(FaultInjector):
    """Whole-host failures: every VM on the target goes down at once."""

    kind = FaultKind.HOST_FAILURE

    def __init__(self, on_failure: Callable[[str], None]) -> None:
        self.on_failure = on_failure

    def schedule(self, campaign: FaultCampaign, index: int, spec: FaultSpec) -> None:
        delay = campaign.delay_for(index, spec)
        if delay is None:
            return

        def fire() -> None:
            campaign.timeline.record(
                campaign.simulator.now, spec.kind.value, spec.target
            )
            self.on_failure(spec.target)

        campaign.simulator.after(delay, fire, name=f"fault:host:{spec.target}")


class ThermalExcursionInjector(FaultInjector):
    """Coolant excursions: the thermal reference temperature steps up.

    ``magnitude`` is the step in °C (condenser degradation, facility
    water event, or the effective rise from fluid-level loss). While the
    excursion lasts, junction temperatures are evaluated against the
    elevated reference; a load pushed past ``tj_max`` records a
    ``tj-alarm`` event — the signal a production controller would use to
    de-clock.
    """

    kind = FaultKind.THERMAL_EXCURSION

    def __init__(
        self,
        junctions: Mapping[str, JunctionModel],
        load_watts: Callable[[str], float],
        on_excursion: Callable[[str, float], None] | None = None,
        on_recover: Callable[[str, float], None] | None = None,
    ) -> None:
        self.junctions = dict(junctions)
        self.load_watts = load_watts
        self.on_excursion = on_excursion
        self.on_recover = on_recover

    def elevated_model(self, target: str, delta_c: float) -> JunctionModel:
        base = _lookup(self.junctions, target, self.kind)
        return JunctionModel(
            reference_temp_c=base.reference_temp_c + delta_c,
            thermal_resistance_c_per_w=base.thermal_resistance_c_per_w,
            tj_max_c=base.tj_max_c,
        )

    def schedule(self, campaign: FaultCampaign, index: int, spec: FaultSpec) -> None:
        if spec.magnitude <= 0:
            raise InjectionError("thermal excursion needs a positive magnitude (°C)")
        _lookup(self.junctions, spec.target, self.kind)  # fail fast at arm time
        delay = campaign.delay_for(index, spec)
        if delay is None:
            return

        def fire() -> None:
            now = campaign.simulator.now
            elevated = self.elevated_model(spec.target, spec.magnitude)
            power = self.load_watts(spec.target)
            tj = elevated.junction_temp_c(power)
            campaign.timeline.record(
                now,
                spec.kind.value,
                spec.target,
                f"dT=+{spec.magnitude:.1f}C Tj={tj:.1f}C",
            )
            if tj > elevated.tj_max_c:
                campaign.timeline.record(
                    now,
                    TJ_ALARM,
                    spec.target,
                    f"Tj={tj:.1f}C > Tjmax={elevated.tj_max_c:.1f}C",
                )
            if self.on_excursion is not None:
                self.on_excursion(spec.target, spec.magnitude)
            if spec.duration_s > 0:

                def recover() -> None:
                    campaign.timeline.record(
                        campaign.simulator.now, RECOVERED, spec.target,
                        f"dT=-{spec.magnitude:.1f}C",
                    )
                    if self.on_recover is not None:
                        self.on_recover(spec.target, spec.magnitude)

                campaign.simulator.after(
                    spec.duration_s, recover, name=f"fault:thermal-recover:{spec.target}"
                )

        campaign.simulator.after(delay, fire, name=f"fault:thermal:{spec.target}")


class PowerTripInjector(FaultInjector):
    """Power-delivery trips: a breaker loses part of its rating.

    ``magnitude`` is the fraction of the node's rated limit lost
    (0 < m < 1). The injector derates the target
    :class:`~repro.power.tree.DeliveryNode` in place, records any
    resulting breach (the capping governor's cue) against the rollup of
    ``draws()`` — the caller's live per-host draw map — and restores the
    rating after ``duration_s``.
    """

    kind = FaultKind.POWER_TRIP

    def __init__(
        self,
        hierarchy: PowerDeliveryHierarchy,
        draws: Callable[[], Mapping[str, float]],
        on_trip: Callable[[DeliveryNode], None] | None = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.draws = draws
        self.on_trip = on_trip

    def schedule(self, campaign: FaultCampaign, index: int, spec: FaultSpec) -> None:
        if not 0.0 < spec.magnitude < 1.0:
            raise InjectionError(
                "power trip magnitude is the fraction of the limit lost; "
                f"need 0 < m < 1, got {spec.magnitude}"
            )
        _lookup(self.hierarchy.nodes, spec.target, self.kind)  # fail fast at arm time
        delay = campaign.delay_for(index, spec)
        if delay is None:
            return

        def fire() -> None:
            node = _lookup(self.hierarchy.nodes, spec.target, self.kind)
            now = campaign.simulator.now
            lost = node.rated_watts * spec.magnitude
            node.rated_watts -= lost
            campaign.timeline.record(
                now, spec.kind.value, spec.target,
                f"-{lost:.0f}W limit={node.rated_watts:.0f}W",
            )
            draw = self.hierarchy.rollup(self.draws())[node.name]
            if draw > node.rated_watts:
                campaign.timeline.record(
                    now, BREAKER_BREACH, spec.target,
                    f"draw={draw:.0f}W > limit={node.rated_watts:.0f}W",
                )
            if self.on_trip is not None:
                self.on_trip(node)
            if spec.duration_s > 0:

                def restore() -> None:
                    node.rated_watts += lost
                    campaign.timeline.record(
                        campaign.simulator.now, RECOVERED, spec.target,
                        f"+{lost:.0f}W limit={node.rated_watts:.0f}W",
                    )

                campaign.simulator.after(
                    spec.duration_s, restore, name=f"fault:power-restore:{spec.target}"
                )

        campaign.simulator.after(delay, fire, name=f"fault:power-trip:{spec.target}")


#: FaultKind → transform applied by :class:`SensorFaultInjector`.
_SENSOR_MODE_BY_KIND: dict[FaultKind, SensorFaultMode] = {
    FaultKind.SENSOR_STUCK: SensorFaultMode.STUCK,
    FaultKind.SENSOR_DROPOUT: SensorFaultMode.DROPOUT,
    FaultKind.SENSOR_NOISE: SensorFaultMode.NOISE,
    FaultKind.SENSOR_LAG: SensorFaultMode.LAG,
    FaultKind.SENSOR_SPIKE: SensorFaultMode.SPIKE,
}


class SensorFaultInjector(FaultInjector):
    """Corrupts one telemetry channel instead of breaking hardware.

    One injector instance handles one sensor-fault :class:`FaultKind`
    (the campaign registry maps kind → injector); use
    :func:`register_sensor_injectors` to cover all five at once. At fire
    time the target :class:`~repro.telemetry.sensors.FaultySensor` gets
    the matching transform injected; ``duration_s > 0`` schedules the
    clear. ``magnitude`` follows the transform's meaning — noise sigma,
    spike amplitude, or lag depth in samples.
    """

    def __init__(
        self,
        kind: FaultKind,
        sensors: Mapping[str, FaultySensor],
        on_fault: Callable[[str, SensorFault], None] | None = None,
        on_clear: Callable[[str], None] | None = None,
    ) -> None:
        if kind not in SENSOR_FAULT_KINDS:
            raise InjectionError(f"{kind.value} is not a sensor-fault kind")
        self.kind = kind
        self.sensors = dict(sensors)
        self.on_fault = on_fault
        self.on_clear = on_clear

    def schedule(self, campaign: FaultCampaign, index: int, spec: FaultSpec) -> None:
        _lookup(self.sensors, spec.target, self.kind)  # fail fast at arm time
        mode = _SENSOR_MODE_BY_KIND[self.kind]
        fault = SensorFault(mode=mode, magnitude=spec.magnitude)  # validate early
        delay = campaign.delay_for(index, spec)
        if delay is None:
            return

        def fire() -> None:
            sensor = _lookup(self.sensors, spec.target, self.kind)
            sensor.inject(fault)
            detail = (
                f"magnitude={spec.magnitude:g}" if spec.magnitude else mode.value
            )
            campaign.timeline.record(
                campaign.simulator.now, spec.kind.value, spec.target, detail
            )
            if self.on_fault is not None:
                self.on_fault(spec.target, fault)
            if spec.duration_s > 0:

                def clear() -> None:
                    sensor.clear()
                    campaign.timeline.record(
                        campaign.simulator.now, RECOVERED, spec.target, mode.value
                    )
                    if self.on_clear is not None:
                        self.on_clear(spec.target)

                campaign.simulator.after(
                    spec.duration_s, clear, name=f"fault:sensor-clear:{spec.target}"
                )

        campaign.simulator.after(delay, fire, name=f"fault:sensor:{spec.target}")


class ChannelFaultInjector(FaultInjector):
    """Breaks the actuation transport instead of hardware or telemetry.

    One injector instance handles one control-plane
    :class:`~repro.faults.plan.FaultKind` (use
    :func:`register_channel_injectors` to cover all four at once). The
    target names the controller→host *link*; at fire time the matching
    :class:`~repro.control.channel.LossyChannel` override is set —
    elevated drop probability, added delay, duplicate probability, or a
    full partition — and cleared again after ``duration_s``.
    ``magnitude`` follows the kind's meaning: a probability for drops
    and duplicates, seconds for delays; partitions ignore it
    (``duration_s == 0`` partitions until something calls ``heal``).
    """

    def __init__(
        self,
        kind: FaultKind,
        channels: Mapping[str, LossyChannel],
        on_fault: Callable[[str, FaultSpec], None] | None = None,
        on_clear: Callable[[str], None] | None = None,
    ) -> None:
        if kind not in CHANNEL_FAULT_KINDS:
            raise InjectionError(f"{kind.value} is not a control-plane fault kind")
        self.kind = kind
        self.channels = dict(channels)
        self.on_fault = on_fault
        self.on_clear = on_clear

    def _validate(self, spec: FaultSpec) -> None:
        if self.kind is FaultKind.CMD_DROP and not 0.0 < spec.magnitude <= 1.0:
            raise InjectionError("cmd-drop magnitude is a probability in (0, 1]")
        if self.kind is FaultKind.CMD_DUPLICATE and not 0.0 < spec.magnitude < 1.0:
            raise InjectionError("cmd-duplicate magnitude is a probability in (0, 1)")
        if self.kind is FaultKind.CMD_DELAY and spec.magnitude <= 0.0:
            raise InjectionError("cmd-delay magnitude is a positive delay in seconds")

    def schedule(self, campaign: FaultCampaign, index: int, spec: FaultSpec) -> None:
        self._validate(spec)
        _lookup(self.channels, spec.target, self.kind)  # fail fast at arm time
        delay = campaign.delay_for(index, spec)
        if delay is None:
            return

        def fire() -> None:
            channel = _lookup(self.channels, spec.target, self.kind)
            now = campaign.simulator.now
            target = spec.target
            if self.kind is FaultKind.CMD_PARTITION:
                duration = spec.duration_s if spec.duration_s > 0 else None
                channel.partition(target, duration)
                detail = (
                    f"for {spec.duration_s:.0f}s" if duration is not None else "until healed"
                )
            elif self.kind is FaultKind.CMD_DROP:
                # p=1 is allowed (a total blackhole) even though baseline
                # channel configs cap below 1 — that is the fault's point.
                channel.set_drop(target, spec.magnitude)
                detail = f"p={spec.magnitude:g}"
            elif self.kind is FaultKind.CMD_DUPLICATE:
                channel.set_duplicate(target, spec.magnitude)
                detail = f"p={spec.magnitude:g}"
            else:  # CMD_DELAY
                channel.set_extra_delay(target, spec.magnitude)
                detail = f"+{spec.magnitude:g}s"
            campaign.timeline.record(now, spec.kind.value, target, detail)
            if self.on_fault is not None:
                self.on_fault(target, spec)
            if spec.duration_s > 0 and self.kind is not FaultKind.CMD_PARTITION:

                def clear() -> None:
                    if self.kind is FaultKind.CMD_DROP:
                        channel.clear_drop(target)
                    elif self.kind is FaultKind.CMD_DUPLICATE:
                        channel.clear_duplicate(target)
                    else:
                        channel.clear_extra_delay(target)
                    campaign.timeline.record(
                        campaign.simulator.now, RECOVERED, target, self.kind.value
                    )
                    if self.on_clear is not None:
                        self.on_clear(target)

                campaign.simulator.after(
                    spec.duration_s, clear, name=f"fault:cmd-clear:{target}"
                )
            elif spec.duration_s > 0:
                # The channel expires partitions lazily; record the heal
                # eagerly so timelines carry the full fault window.

                def healed() -> None:
                    campaign.timeline.record(
                        campaign.simulator.now, RECOVERED, target, "partition healed"
                    )
                    if self.on_clear is not None:
                        self.on_clear(target)

                campaign.simulator.after(
                    spec.duration_s, healed, name=f"fault:cmd-heal:{target}"
                )

        campaign.simulator.after(delay, fire, name=f"fault:cmd:{spec.target}")


#: FaultKind → the :class:`~repro.thermal.facility.FacilityState` field
#: the fault derates (heat waves are additive and handled separately).
_FACILITY_FIELD_BY_KIND: dict[FaultKind, str] = {
    FaultKind.FACILITY_CONDENSER: "pump_fraction",
    FaultKind.FACILITY_WATER: "water_fraction",
    FaultKind.FACILITY_BROWNOUT: "power_fraction",
}


class FacilityFaultInjector(FaultInjector):
    """Breaks the cooling plant itself — the shared-fate fault class.

    One injector instance handles one ``facility-*``
    :class:`~repro.faults.plan.FaultKind` (use
    :func:`register_facility_injectors` to cover all four at once). The
    target names a :class:`~repro.thermal.facility.FacilityState`; at
    fire time the matching term derates — pump, water, or utility-power
    fraction for condenser/water/brownout faults (``magnitude`` is the
    fraction lost, up to 1.0 = total loss), or an additive ambient rise
    in °C for heat waves — and ``duration_s > 0`` schedules the inverse.
    Unlike every other kind, one facility fault threatens *all* hosts
    sharing the tank at once.
    """

    def __init__(
        self,
        kind: FaultKind,
        facilities: Mapping[str, FacilityState],
        on_fault: Callable[[str, FaultSpec], None] | None = None,
        on_clear: Callable[[str], None] | None = None,
    ) -> None:
        if kind not in FACILITY_FAULT_KINDS:
            raise InjectionError(f"{kind.value} is not a facility fault kind")
        self.kind = kind
        self.facilities = dict(facilities)
        self.on_fault = on_fault
        self.on_clear = on_clear

    def _validate(self, spec: FaultSpec) -> None:
        if self.kind is FaultKind.FACILITY_HEATWAVE:
            if spec.magnitude <= 0.0:
                raise InjectionError(
                    "facility-heatwave magnitude is a positive ambient rise in °C"
                )
        elif not 0.0 < spec.magnitude <= 1.0:
            raise InjectionError(
                f"{self.kind.value} magnitude is the fraction of capacity "
                f"lost; need 0 < m <= 1, got {spec.magnitude}"
            )

    def schedule(self, campaign: FaultCampaign, index: int, spec: FaultSpec) -> None:
        self._validate(spec)
        _lookup(self.facilities, spec.target, self.kind)  # fail fast at arm time
        delay = campaign.delay_for(index, spec)
        if delay is None:
            return

        def fire() -> None:
            state = _lookup(self.facilities, spec.target, self.kind)
            now = campaign.simulator.now
            if self.kind is FaultKind.FACILITY_HEATWAVE:
                state.ambient_extra_c += spec.magnitude

                def undo() -> None:
                    state.ambient_extra_c -= spec.magnitude

                detail = (
                    f"+{spec.magnitude:g}C ambient={state.ambient_c:.1f}C "
                    f"cond={state.condenser_fraction():.3f}"
                )
            else:
                field = _FACILITY_FIELD_BY_KIND[self.kind]
                lost = getattr(state, field) * spec.magnitude
                setattr(state, field, getattr(state, field) - lost)

                def undo() -> None:
                    setattr(state, field, getattr(state, field) + lost)

                detail = (
                    f"-{spec.magnitude:g} {field}={getattr(state, field):.3f} "
                    f"cond={state.condenser_fraction():.3f}"
                )
            campaign.timeline.record(now, spec.kind.value, spec.target, detail)
            if self.on_fault is not None:
                self.on_fault(spec.target, spec)
            if spec.duration_s > 0:

                def clear() -> None:
                    undo()
                    campaign.timeline.record(
                        campaign.simulator.now,
                        RECOVERED,
                        spec.target,
                        f"{self.kind.value} cond={state.condenser_fraction():.3f}",
                    )
                    if self.on_clear is not None:
                        self.on_clear(spec.target)

                campaign.simulator.after(
                    spec.duration_s, clear, name=f"fault:facility-clear:{spec.target}"
                )

        campaign.simulator.after(delay, fire, name=f"fault:facility:{spec.target}")


class PowerPredictionFaultInjector(FaultInjector):
    """Biases the peak-power predictor instead of breaking hardware.

    ``magnitude`` is the under-prediction fraction (0 < m < 1): every
    prediction scales down by it, so admission control keeps clearing
    VMs against watts that will not be there at peak. The target names a
    :class:`~repro.power.predictor.PeakPowerPredictor`;
    ``duration_s > 0`` schedules the bias clear. This is the quiet fault
    of the family — nothing trips at injection time; the damage surfaces
    only when real draws exceed the optimistic grants.
    """

    kind = FaultKind.POWER_UNDERPREDICTION

    def __init__(
        self,
        predictors: Mapping[str, PeakPowerPredictor],
        on_fault: Callable[[str, FaultSpec], None] | None = None,
        on_clear: Callable[[str], None] | None = None,
    ) -> None:
        self.predictors = dict(predictors)
        self.on_fault = on_fault
        self.on_clear = on_clear

    def schedule(self, campaign: FaultCampaign, index: int, spec: FaultSpec) -> None:
        if not 0.0 < spec.magnitude < 1.0:
            raise InjectionError(
                "power-underprediction magnitude is the fraction predictions "
                f"shrink by; need 0 < m < 1, got {spec.magnitude}"
            )
        _lookup(self.predictors, spec.target, self.kind)  # fail fast at arm time
        delay = campaign.delay_for(index, spec)
        if delay is None:
            return

        def fire() -> None:
            predictor = _lookup(self.predictors, spec.target, self.kind)
            predictor.inject_bias(spec.magnitude)
            campaign.timeline.record(
                campaign.simulator.now,
                spec.kind.value,
                spec.target,
                f"bias={spec.magnitude:g}",
            )
            if self.on_fault is not None:
                self.on_fault(spec.target, spec)
            if spec.duration_s > 0:

                def clear() -> None:
                    predictor.clear_bias()
                    campaign.timeline.record(
                        campaign.simulator.now, RECOVERED, spec.target,
                        "prediction bias cleared",
                    )
                    if self.on_clear is not None:
                        self.on_clear(spec.target)

                campaign.simulator.after(
                    spec.duration_s,
                    clear,
                    name=f"fault:power-predict-clear:{spec.target}",
                )

        campaign.simulator.after(
            delay, fire, name=f"fault:power-predict:{spec.target}"
        )


class PowerSurgeInjector(FaultInjector):
    """Synchronized demand peaks: the diversity bet lost all at once.

    ``magnitude`` is the fractional draw increase (0.3 = every host in
    the target subtree pulls 30% above its metered baseline) — the
    correlated-peak event oversubscription bets against. The injector
    acts through callbacks so the same campaign drives a bare draw model
    in unit tests and the full crisis experiment: ``on_surge(target,
    fraction)`` at fire time, ``on_end(target)`` after ``duration_s``.
    """

    kind = FaultKind.POWER_SURGE

    def __init__(
        self,
        on_surge: Callable[[str, float], None],
        on_end: Callable[[str], None] | None = None,
        targets: Mapping[str, object] | None = None,
    ) -> None:
        self.on_surge = on_surge
        self.on_end = on_end
        self.targets = dict(targets) if targets is not None else None

    def schedule(self, campaign: FaultCampaign, index: int, spec: FaultSpec) -> None:
        if spec.magnitude <= 0.0:
            raise InjectionError(
                "power-surge magnitude is a positive fractional draw increase"
            )
        if self.targets is not None:
            _lookup(self.targets, spec.target, self.kind)  # fail fast at arm time
        delay = campaign.delay_for(index, spec)
        if delay is None:
            return

        def fire() -> None:
            self.on_surge(spec.target, spec.magnitude)
            campaign.timeline.record(
                campaign.simulator.now,
                spec.kind.value,
                spec.target,
                f"+{spec.magnitude:g}x draw",
            )
            if spec.duration_s > 0:

                def end() -> None:
                    campaign.timeline.record(
                        campaign.simulator.now, RECOVERED, spec.target, "surge ended"
                    )
                    if self.on_end is not None:
                        self.on_end(spec.target)

                campaign.simulator.after(
                    spec.duration_s, end, name=f"fault:power-surge-end:{spec.target}"
                )

        campaign.simulator.after(delay, fire, name=f"fault:power-surge:{spec.target}")


class SiliconHealthInjector(FaultInjector):
    """Ages silicon and pollutes machine-check telemetry on demand.

    One injector instance handles one silicon-health
    :class:`~repro.faults.plan.FaultKind` (use
    :func:`register_health_injectors` to cover all three at once); like
    every injector it acts through callbacks so the same campaign
    drives a bare :class:`~repro.health.part.SiliconPart` map in a unit
    test and the full health pipeline in ``experiments.sdc_hunt``:

    * ``silicon-margin-drift`` — ``on_drift(host, magnitude)``: the
      host's stable margin drops by ``magnitude`` ratio units at fire
      time (accelerated aging; magnitude must be positive).
    * ``mce-burst`` — ``on_burst(host, count)``: ``magnitude`` (≥ 1,
      rounded) spurious correctable errors land in the host's next
      observation window — noise the detector must not over-react to.
    * ``sdc`` — ``on_sdc(host)``: one forced silent corruption charged
      to the host's ground-truth record.
    """

    def __init__(
        self,
        kind: FaultKind,
        on_drift: Callable[[str, float], None] | None = None,
        on_burst: Callable[[str, int], None] | None = None,
        on_sdc: Callable[[str], None] | None = None,
        targets: Mapping[str, object] | None = None,
    ) -> None:
        if kind not in HEALTH_FAULT_KINDS:
            raise InjectionError(f"{kind.value} is not a silicon-health fault kind")
        self.kind = kind
        self.on_drift = on_drift
        self.on_burst = on_burst
        self.on_sdc = on_sdc
        self.targets = dict(targets) if targets is not None else None

    def _validate(self, spec: FaultSpec) -> None:
        if self.kind is FaultKind.SILICON_MARGIN_DRIFT:
            if spec.magnitude <= 0.0:
                raise InjectionError(
                    "silicon-margin-drift magnitude is a positive ratio loss"
                )
            if self.on_drift is None:
                raise InjectionError("silicon-margin-drift needs an on_drift callback")
        elif self.kind is FaultKind.MCE_BURST:
            if spec.magnitude < 1.0:
                raise InjectionError("mce-burst magnitude is an error count >= 1")
            if self.on_burst is None:
                raise InjectionError("mce-burst needs an on_burst callback")
        elif self.on_sdc is None:
            raise InjectionError("sdc needs an on_sdc callback")

    def schedule(self, campaign: FaultCampaign, index: int, spec: FaultSpec) -> None:
        self._validate(spec)
        if self.targets is not None:
            _lookup(self.targets, spec.target, self.kind)  # fail fast at arm time
        delay = campaign.delay_for(index, spec)
        if delay is None:
            return

        def fire() -> None:
            now = campaign.simulator.now
            if self.kind is FaultKind.SILICON_MARGIN_DRIFT:
                self.on_drift(spec.target, spec.magnitude)
                detail = f"-{spec.magnitude:g} stable margin"
            elif self.kind is FaultKind.MCE_BURST:
                count = int(round(spec.magnitude))
                self.on_burst(spec.target, count)
                detail = f"{count} spurious CEs"
            else:
                self.on_sdc(spec.target)
                detail = "forced silent corruption"
            campaign.timeline.record(now, spec.kind.value, spec.target, detail)

        campaign.simulator.after(
            delay, fire, name=f"fault:{self.kind.value}:{spec.target}"
        )


class RolloutFaultInjector(FaultInjector):
    """Breaks change management: bad envelopes and wedged pushes.

    One injector instance handles one change-management
    :class:`~repro.faults.plan.FaultKind` (use
    :func:`register_rollout_injectors` to cover both); like every
    injector it acts through callbacks, so the same campaign drives a
    bare dict of envelopes in a unit test and the full
    :class:`~repro.rollout.controller.RolloutController` pipeline in
    ``experiments.envelope_rollout``:

    * ``bad-envelope`` — ``on_bad_envelope(target, magnitude)``: a
      config push raises the target scope's envelope ``magnitude``
      ratio units above what the silicon sustains (magnitude must be
      positive) — the mischaracterized change the canary must catch.
    * ``rollout-stall`` — ``on_stall(target, duration_s)``: the
      envelope push to ``target`` hangs unconfirmed for ``duration_s``
      (wedged config agent); the controller must refuse to bake a
      half-applied wave.
    """

    def __init__(
        self,
        kind: FaultKind,
        on_bad_envelope: Callable[[str, float], None] | None = None,
        on_stall: Callable[[str, float], None] | None = None,
        targets: Mapping[str, object] | None = None,
    ) -> None:
        if kind not in ROLLOUT_FAULT_KINDS:
            raise InjectionError(f"{kind.value} is not a rollout fault kind")
        self.kind = kind
        self.on_bad_envelope = on_bad_envelope
        self.on_stall = on_stall
        self.targets = dict(targets) if targets is not None else None

    def _validate(self, spec: FaultSpec) -> None:
        if self.kind is FaultKind.BAD_ENVELOPE:
            if spec.magnitude <= 0.0:
                raise InjectionError(
                    "bad-envelope magnitude is a positive ratio overshoot"
                )
            if self.on_bad_envelope is None:
                raise InjectionError("bad-envelope needs an on_bad_envelope callback")
        else:
            if spec.duration_s <= 0.0:
                raise InjectionError("rollout-stall needs a positive duration")
            if self.on_stall is None:
                raise InjectionError("rollout-stall needs an on_stall callback")

    def schedule(self, campaign: FaultCampaign, index: int, spec: FaultSpec) -> None:
        self._validate(spec)
        if self.targets is not None:
            _lookup(self.targets, spec.target, self.kind)  # fail fast at arm time
        delay = campaign.delay_for(index, spec)
        if delay is None:
            return

        def fire() -> None:
            now = campaign.simulator.now
            if self.kind is FaultKind.BAD_ENVELOPE:
                self.on_bad_envelope(spec.target, spec.magnitude)
                detail = f"+{spec.magnitude:g} over the stable envelope"
            else:
                self.on_stall(spec.target, spec.duration_s)
                detail = f"push wedged for {spec.duration_s:g}s"
            campaign.timeline.record(now, spec.kind.value, spec.target, detail)

        campaign.simulator.after(
            delay, fire, name=f"fault:{self.kind.value}:{spec.target}"
        )


def register_rollout_injectors(
    campaign: FaultCampaign,
    on_bad_envelope: Callable[[str, float], None],
    on_stall: Callable[[str, float], None],
    targets: Mapping[str, object] | None = None,
) -> FaultCampaign:
    """Register one :class:`RolloutFaultInjector` per rollout kind."""
    for kind in sorted(ROLLOUT_FAULT_KINDS, key=lambda k: k.value):
        campaign.register(
            RolloutFaultInjector(
                kind,
                on_bad_envelope=on_bad_envelope,
                on_stall=on_stall,
                targets=targets,
            )
        )
    return campaign


def register_health_injectors(
    campaign: FaultCampaign,
    on_drift: Callable[[str, float], None],
    on_burst: Callable[[str, int], None],
    on_sdc: Callable[[str], None],
    targets: Mapping[str, object] | None = None,
) -> FaultCampaign:
    """Register one :class:`SiliconHealthInjector` per health kind."""
    for kind in sorted(HEALTH_FAULT_KINDS, key=lambda k: k.value):
        campaign.register(
            SiliconHealthInjector(
                kind,
                on_drift=on_drift,
                on_burst=on_burst,
                on_sdc=on_sdc,
                targets=targets,
            )
        )
    return campaign


def register_power_injectors(
    campaign: FaultCampaign,
    predictors: Mapping[str, PeakPowerPredictor],
    on_surge: Callable[[str, float], None],
    on_surge_end: Callable[[str], None] | None = None,
    surge_targets: Mapping[str, object] | None = None,
) -> FaultCampaign:
    """Register both ``power-*`` injectors against one campaign."""
    campaign.register(PowerPredictionFaultInjector(predictors))
    campaign.register(
        PowerSurgeInjector(on_surge, on_end=on_surge_end, targets=surge_targets)
    )
    return campaign


def register_facility_injectors(
    campaign: FaultCampaign,
    facilities: Mapping[str, FacilityState],
    on_fault: Callable[[str, FaultSpec], None] | None = None,
    on_clear: Callable[[str], None] | None = None,
) -> FaultCampaign:
    """Register one :class:`FacilityFaultInjector` per facility kind."""
    for kind in sorted(FACILITY_FAULT_KINDS, key=lambda k: k.value):
        campaign.register(
            FacilityFaultInjector(kind, facilities, on_fault=on_fault, on_clear=on_clear)
        )
    return campaign


def register_channel_injectors(
    campaign: FaultCampaign,
    channels: Mapping[str, LossyChannel],
    on_fault: Callable[[str, FaultSpec], None] | None = None,
    on_clear: Callable[[str], None] | None = None,
) -> FaultCampaign:
    """Register one :class:`ChannelFaultInjector` per control-plane kind."""
    for kind in sorted(CHANNEL_FAULT_KINDS, key=lambda k: k.value):
        campaign.register(
            ChannelFaultInjector(kind, channels, on_fault=on_fault, on_clear=on_clear)
        )
    return campaign


def register_sensor_injectors(
    campaign: FaultCampaign,
    sensors: Mapping[str, FaultySensor],
    on_fault: Callable[[str, SensorFault], None] | None = None,
    on_clear: Callable[[str], None] | None = None,
) -> FaultCampaign:
    """Register one :class:`SensorFaultInjector` per sensor-fault kind."""
    for kind in sorted(SENSOR_FAULT_KINDS, key=lambda k: k.value):
        campaign.register(
            SensorFaultInjector(kind, sensors, on_fault=on_fault, on_clear=on_clear)
        )
    return campaign


__all__ = [
    "FaultCampaign",
    "FaultInjector",
    "VMCrashInjector",
    "HostFailureInjector",
    "ThermalExcursionInjector",
    "PowerTripInjector",
    "SensorFaultInjector",
    "ChannelFaultInjector",
    "FacilityFaultInjector",
    "PowerPredictionFaultInjector",
    "PowerSurgeInjector",
    "SiliconHealthInjector",
    "RolloutFaultInjector",
    "register_health_injectors",
    "register_rollout_injectors",
    "register_sensor_injectors",
    "register_channel_injectors",
    "register_facility_injectors",
    "register_power_injectors",
    "TJ_ALARM",
    "BREAKER_BREACH",
    "RECOVERED",
]
