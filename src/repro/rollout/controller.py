"""The rollout state machine: advance, halt, roll back, freeze, resume.

:class:`RolloutController` walks a :class:`~repro.rollout.plan.RolloutPlan`
one wave at a time. Each control tick it:

1. **freezes** — no pushes, no bake credit, no new waves (retreat via
   the rollback rung stays armed) — while any configured fleet ladder
   is escalated: the thermal :class:`~repro.emergency.ladder.EmergencyCoordinator`,
   the :class:`~repro.power.ladder.PowerEmergencyCoordinator`, a
   :class:`~repro.health.coordinator.FleetHealthCoordinator` past its
   out-of-service budget, or an operator hold — because shipping config
   into a fleet that is actively fighting a fire destroys the control
   group and doubles the incident;
2. runs the :class:`~repro.rollout.analyzer.CanaryAnalyzer` over the
   canary (pushed) vs control (not-yet-pushed) cohorts and drives the
   folded margin through a three-rung
   :class:`~repro.emergency.ladder.StagedLadder` (NORMAL → HALT →
   ROLLBACK) — the same hysteretic machinery behind the emergency,
   power, brownout, and health ladders, so a single noisy window halts
   (and later resumes) instead of flapping straight to rollback;
3. advances the wave phase machine (pending → applying → baking →
   next wave → complete) only while the guard ladder sits at NORMAL.

Rollback re-pushes the *prior* envelope to every host the rollout
touched, in wave order, at **emergency priority** — through
:class:`~repro.control.bus.CommandBus` that bypasses open circuit
breakers, exactly like a thermal revoke, because the rollback must
reach even a host the control plane has written off.

Every tick ends with a full state snapshot appended to a
:class:`~repro.engine.journal.RunJournal`; a SIGKILL at any point
resumes bit-identically from the last durable tick (the SIGKILL chaos
test pins this down).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import IntEnum
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..emergency.ladder import StagedLadder
from ..errors import RolloutError
from ..telemetry.counters import RolloutCounters
from .analyzer import CanaryAnalyzer, CohortStats
from .plan import RolloutPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..control.bus import CommandBus
    from ..engine.journal import RunJournal
    from ..faults.timeline import FaultTimeline
    from ..health.coordinator import FleetHealthCoordinator

#: Timeline kinds the rollout layer records (part of run signatures).
ROLLOUT_ESCALATE = "rollout-escalate"
ROLLOUT_RELAX = "rollout-relax"
ROLLOUT_WAVE = "rollout-wave"
ROLLOUT_FREEZE = "rollout-freeze"
ROLLOUT_UNFREEZE = "rollout-unfreeze"
ROLLOUT_STALLED = "rollout-stalled"
ROLLOUT_COMPLETE = "rollout-complete"

#: Rollout phases (plain strings: they land in journal snapshots).
PHASE_PENDING = "pending"
PHASE_APPLYING = "applying"
PHASE_BAKING = "baking"
PHASE_COMPLETE = "complete"
PHASE_ROLLED_BACK = "rolled-back"

#: Analyzer margin at or below which the wave advance halts.
HALT_MARGIN = 0.0
#: Analyzer margin at or below which the rollout rolls back.
ROLLBACK_MARGIN = -0.5


class RolloutStage(IntEnum):
    """Guard-ladder rungs over the canary-analysis margin."""

    NORMAL = 0
    HALT = 1
    ROLLBACK = 2


@dataclass(frozen=True)
class HostSignals:
    """One host's per-tick observables fed to the controller."""

    #: Correctable errors this host logged this window.
    ce_errors: float = 0.0
    #: Ungraceful crashes this window (reboot loops count every window).
    crashes: int = 0
    #: True when the reliability guard clamped below the request.
    guard_limited: bool = False
    #: Host p99 latency this window, seconds (0 = not measured).
    p99_s: float = 0.0
    #: Completed requests this window (0 = not measured).
    goodput: float = 0.0


class CallbackEnvelopeActuator:
    """Synchronous envelope pusher with injectable stalls.

    ``apply(host, ratio)`` is invoked when a push lands. Pushes are
    idempotent on ``(host, ratio)`` — re-pushing a confirmed value is a
    dedup hit, not a second actuation. :meth:`inject_stall` wedges a
    host's config agent for N ticks (the ``rollout-stall`` fault):
    non-emergency pushes to it sit unconfirmed until the stall drains;
    emergency pushes (rollback) punch through, mirroring the command
    bus's breaker bypass.
    """

    def __init__(self, apply: Callable[[str, float], None]) -> None:
        self._apply = apply
        self._confirmed: dict[str, float] = {}
        self._pending: dict[str, float] = {}
        self._stalled: dict[str, int] = {}
        self.pushes = 0
        self.dedup_hits = 0

    def push(self, host: str, ratio: float, emergency: bool = False) -> bool:
        """Issue one envelope push; False means deduplicated away."""
        if self._confirmed.get(host) == ratio and host not in self._pending:
            self.dedup_hits += 1
            return False
        self.pushes += 1
        if self._stalled.get(host, 0) > 0 and not emergency:
            self._pending[host] = ratio
            return True
        self._pending.pop(host, None)
        if emergency:
            self._stalled.pop(host, None)
        self._apply(host, ratio)
        self._confirmed[host] = ratio
        return True

    def tick(self) -> None:
        """Drain one tick of stall time and flush unwedged pushes."""
        for host in sorted(self._stalled):
            self._stalled[host] -= 1
            if self._stalled[host] <= 0:
                del self._stalled[host]
        for host in sorted(self._pending):
            if self._stalled.get(host, 0) > 0:
                continue
            ratio = self._pending.pop(host)
            self._apply(host, ratio)
            self._confirmed[host] = ratio

    def inject_stall(self, host: str, ticks: int) -> None:
        """Wedge ``host``'s config agent for ``ticks`` controller ticks."""
        if ticks < 1:
            raise RolloutError("a stall must last at least one tick")
        self._stalled[host] = max(self._stalled.get(host, 0), ticks)

    def pending_hosts(self) -> tuple[str, ...]:
        return tuple(sorted(self._pending))

    def confirmed_ratio(self, host: str) -> float | None:
        return self._confirmed.get(host)

    def snapshot(self) -> dict:
        return {
            "confirmed": dict(self._confirmed),
            "pending": dict(self._pending),
            "stalled": dict(self._stalled),
            "pushes": self.pushes,
            "dedup_hits": self.dedup_hits,
        }

    def restore(self, state: dict) -> None:
        self._confirmed = dict(state["confirmed"])
        self._pending = dict(state["pending"])
        self._stalled = dict(state["stalled"])
        self.pushes = int(state["pushes"])
        self.dedup_hits = int(state["dedup_hits"])


class BusEnvelopeActuator:
    """Envelope pusher over the real :class:`~repro.control.bus.CommandBus`.

    Each push is one idempotency-keyed ``SET_FREQUENCY`` command whose
    payload is the envelope ratio; confirmation is the command's ack.
    Rollback pushes go out with ``emergency=True``, bypassing open
    circuit breakers the same way thermal revokes do. The bus owns
    retries, dedup, and breaker bookkeeping — this class only tracks
    which hosts have confirmed which ratio.
    """

    def __init__(self, bus: "CommandBus") -> None:
        from ..control.bus import CommandKind

        self._bus = bus
        self._kind = CommandKind.SET_FREQUENCY
        self._confirmed: dict[str, float] = {}
        self._pending: dict[str, float] = {}
        self.pushes = 0
        self.dedup_hits = 0
        self.failures = 0

    def push(self, host: str, ratio: float, emergency: bool = False) -> bool:
        """Issue one envelope push; False means deduplicated away."""
        if self._confirmed.get(host) == ratio and host not in self._pending:
            self.dedup_hits += 1
            return False
        self.pushes += 1
        self._pending[host] = ratio

        def on_applied(_ack: Any, host: str = host, ratio: float = ratio) -> None:
            if self._pending.get(host) == ratio:
                del self._pending[host]
            self._confirmed[host] = ratio

        def on_failed(_command: Any, _reason: str) -> None:
            # Leave the push pending: stall detection is the rollout
            # controller's job, and a later reconcile may still land it.
            self.failures += 1

        self._bus.send(
            self._kind,
            host,
            payload=ratio,
            on_applied=on_applied,
            on_failed=on_failed,
            emergency=emergency,
        )
        return True

    def tick(self) -> None:
        """No-op: the simulator pumps the bus between controller ticks."""

    def pending_hosts(self) -> tuple[str, ...]:
        return tuple(sorted(self._pending))

    def confirmed_ratio(self, host: str) -> float | None:
        return self._confirmed.get(host)


class RolloutController:
    """Drives one envelope change through its plan, safely.

    Call :meth:`tick` once per control window with per-host
    :class:`HostSignals`. The controller owns cohort membership (canary
    = pushed hosts, control = the rest, quarantined hosts excluded from
    both), the guard ladder, freeze gating, stall detection, and the
    journal. All state round-trips through :meth:`snapshot` /
    :meth:`restore`; with a journal attached, :meth:`resume` continues
    a killed rollout from its last durable tick.
    """

    def __init__(
        self,
        plan: RolloutPlan,
        actuator: CallbackEnvelopeActuator | BusEnvelopeActuator,
        analyzer: CanaryAnalyzer | None = None,
        counters: RolloutCounters | None = None,
        timeline: "FaultTimeline | None" = None,
        emergency: Any | None = None,
        power: Any | None = None,
        health: "FleetHealthCoordinator | None" = None,
        health_freeze_fraction: float | None = None,
        max_apply_ticks: int = 3,
        journal: "RunJournal | None" = None,
        run_id: str = "rollout",
        extra_snapshot: Callable[[], Any] | None = None,
    ) -> None:
        if max_apply_ticks < 1:
            raise RolloutError("max_apply_ticks must be at least 1")
        self.plan = plan
        self.actuator = actuator
        self.analyzer = analyzer if analyzer is not None else CanaryAnalyzer()
        self.counters = counters if counters is not None else RolloutCounters()
        self.timeline = timeline
        self.emergency = emergency
        self.power = power
        self.health = health
        # The health coordinator's own quarantine gating keeps the
        # drained fraction strictly *under* its budget, so freezing at
        # the budget itself would never trigger. The rollout freezes at
        # half the drain budget by default: a fleet spending serious
        # quarantine capacity is mid-incident, and a config push would
        # both add risk and contaminate the control cohort.
        if health_freeze_fraction is not None and not 0.0 < health_freeze_fraction <= 1.0:
            raise RolloutError("health_freeze_fraction must be in (0, 1]")
        self.health_freeze_fraction = health_freeze_fraction
        self.max_apply_ticks = max_apply_ticks
        self.journal = journal
        self.run_id = run_id
        self.extra_snapshot = extra_snapshot

        self.phase = PHASE_PENDING
        self.wave_index = 0
        self.bake_progress = 0
        self.apply_ticks = 0
        self.ticks = 0
        self.applied_hosts: list[str] = []
        self._wave_targets: tuple[str, ...] = ()
        self._frozen_reasons: tuple[str, ...] = ()
        self._operator_hold = False

        self.ladder = StagedLadder(
            stages=RolloutStage,
            thresholds={
                RolloutStage.HALT: HALT_MARGIN,
                RolloutStage.ROLLBACK: ROLLBACK_MARGIN,
            },
            hysteresis=0.25,
            relax_clean_ticks=2,
            timeline=timeline,
            escalate_kind=ROLLOUT_ESCALATE,
            relax_kind=ROLLOUT_RELAX,
            margin_format=lambda margin: f"margin={margin:+.2f}",
        )
        self.ladder.register(
            RolloutStage.HALT, self._engage_halt, self._release_halt
        )
        self.ladder.register(RolloutStage.ROLLBACK, self._engage_rollback)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.phase in (PHASE_COMPLETE, PHASE_ROLLED_BACK)

    @property
    def frozen(self) -> bool:
        return bool(self._frozen_reasons)

    @property
    def current_wave_name(self) -> str:
        if self.wave_index < len(self.plan.waves):
            return self.plan.waves[self.wave_index].name
        return "done"

    @property
    def exposed_hosts(self) -> tuple[str, ...]:
        """Every host ever pushed the new envelope, in wave order."""
        return tuple(self.applied_hosts)

    # ------------------------------------------------------------------
    # Operator hold (the service /ops rollout endpoint lands here)
    # ------------------------------------------------------------------
    def hold(self) -> None:
        """Operator freeze: no wave advances until :meth:`release`."""
        self._operator_hold = True

    def release(self) -> None:
        self._operator_hold = False

    # ------------------------------------------------------------------
    # Guard-ladder actions
    # ------------------------------------------------------------------
    def _engage_halt(self) -> str:
        self.counters.halts += 1
        return f"wave {self.wave_index} advance halted"

    def _release_halt(self) -> str:
        self.counters.resumes += 1
        return "wave advance resumed"

    def _engage_rollback(self) -> str:
        reverted = 0
        for host in self.applied_hosts:
            if self.actuator.push(
                host, self.plan.change.from_ratio, emergency=True
            ):
                self.counters.rollback_pushes += 1
                reverted += 1
        self.counters.rollbacks += 1
        self.phase = PHASE_ROLLED_BACK
        return (
            f"rolled back {reverted} host(s) to "
            f"{self.plan.change.from_ratio:.3f}"
        )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def tick(
        self, now: float, signals: Mapping[str, HostSignals] | None = None
    ) -> str:
        """Fold one control window in; returns the resulting phase."""
        if self.done:
            return self.phase
        self.ticks += 1
        signals = signals if signals is not None else {}

        # Freezing blocks every *advance* (pushes, bake progress, new
        # waves) but not the analyzer or the rollback rung: a rollout
        # may always retreat during a fleet emergency, never proceed.
        frozen = self._freeze_gate(now)
        if frozen:
            self.counters.frozen_ticks += 1
        else:
            self.actuator.tick()
        stalled = False if frozen else self._check_stall(now)

        if self.applied_hosts and self.phase in (PHASE_APPLYING, PHASE_BAKING):
            canary, control = self._cohorts(signals)
            analysis = self.analyzer.observe(canary, control)
            self.counters.analyses += 1
            if not analysis.healthy:
                self.counters.analyses_unhealthy += 1
            margin = analysis.margin
            if stalled:
                # A half-applied wave must never bake: force the ladder
                # past the rollback rung regardless of cohort health.
                margin = min(margin, ROLLBACK_MARGIN)
            self.ladder.observe(now, margin)
            if self.done:
                self._journal_tick()
                return self.phase

        if not frozen and self.ladder.stage is RolloutStage.NORMAL:
            self._advance(now)
        self._journal_tick()
        return self.phase

    def _freeze_gate(self, now: float) -> bool:
        reasons = self._freeze_reasons()
        if reasons:
            for reason in reasons:
                counter = {
                    "emergency": "freezes_emergency",
                    "power": "freezes_power",
                    "health": "freezes_health",
                }.get(reason)
                if counter is not None:
                    setattr(
                        self.counters,
                        counter,
                        getattr(self.counters, counter) + 1,
                    )
            if not self._frozen_reasons and self.timeline is not None:
                self.timeline.record(
                    now,
                    ROLLOUT_FREEZE,
                    "+".join(reasons),
                    f"wave {self.wave_index} {self.phase}",
                )
        elif self._frozen_reasons:
            if self.timeline is not None:
                self.timeline.record(
                    now,
                    ROLLOUT_UNFREEZE,
                    "+".join(self._frozen_reasons),
                    f"wave {self.wave_index} {self.phase}",
                )
        self._frozen_reasons = reasons
        return bool(reasons)

    def _freeze_reasons(self) -> tuple[str, ...]:
        reasons = []
        if self.emergency is not None and self.emergency.emergency:
            reasons.append("emergency")
        if self.power is not None and self.power.emergency:
            reasons.append("power")
        if self.health is not None:
            limit = self.health_freeze_fraction
            if limit is None:
                limit = 0.5 * self.health.config.max_out_of_service_fraction
            if self.health.out_of_service_fraction() >= limit:
                reasons.append("health")
        if self._operator_hold:
            reasons.append("operator")
        return tuple(reasons)

    def _in_service(self, host: str) -> bool:
        return self.health is None or self.health.in_service(host)

    def _cohorts(
        self, signals: Mapping[str, HostSignals]
    ) -> tuple[CohortStats, CohortStats]:
        applied = set(self.applied_hosts)
        canary_hosts = [h for h in self.applied_hosts if self._in_service(h)]
        control_hosts = [
            h for h in self.plan.hosts if h not in applied and self._in_service(h)
        ]
        excluded = (len(self.applied_hosts) - len(canary_hosts)) + (
            (self.plan.fleet_size - len(applied)) - len(control_hosts)
        )
        self.counters.cohort_excluded_hosts += excluded
        return (
            self._aggregate(canary_hosts, signals),
            self._aggregate(control_hosts, signals),
        )

    @staticmethod
    def _aggregate(
        hosts: list[str], signals: Mapping[str, HostSignals]
    ) -> CohortStats:
        present = [signals[h] for h in hosts if h in signals]
        return CohortStats(
            hosts=len(hosts),
            ce_errors=sum(s.ce_errors for s in present),
            crashes=sum(s.crashes for s in present),
            guard_limited=sum(1 for s in present if s.guard_limited),
            # Cohort p99 is the worst member's p99: one saturated host
            # is exactly the regression a canary exists to surface.
            p99_s=max((s.p99_s for s in present), default=0.0),
            goodput=sum(s.goodput for s in present),
        )

    def _check_stall(self, now: float) -> bool:
        if self.phase != PHASE_APPLYING:
            return False
        pending = set(self.actuator.pending_hosts())
        unconfirmed = [h for h in self._wave_targets if h in pending]
        if not unconfirmed:
            return False
        self.apply_ticks += 1
        if self.apply_ticks >= self.max_apply_ticks:
            self.counters.stalls += 1
            if self.timeline is not None:
                self.timeline.record(
                    now,
                    ROLLOUT_STALLED,
                    self.current_wave_name,
                    f"{len(unconfirmed)} push(es) unconfirmed after "
                    f"{self.apply_ticks} tick(s)",
                )
            return True
        return False

    def _advance(self, now: float) -> None:
        if self.phase == PHASE_PENDING:
            self._start_wave(now)
            return
        if self.phase == PHASE_APPLYING:
            pending = set(self.actuator.pending_hosts())
            if not any(h in pending for h in self._wave_targets):
                self.phase = PHASE_BAKING
                self.bake_progress = 0
            return
        if self.phase == PHASE_BAKING:
            wave = self.plan.waves[self.wave_index]
            self.counters.bake_ticks += 1
            self.bake_progress += 1
            if self.bake_progress >= wave.bake_ticks:
                self._complete_wave(now, wave)

    def _start_wave(self, now: float) -> None:
        wave = self.plan.waves[self.wave_index]
        targets = tuple(h for h in wave.hosts if self._in_service(h))
        excluded = len(wave.hosts) - len(targets)
        self.counters.cohort_excluded_hosts += excluded
        self.counters.waves_started += 1
        for host in targets:
            if self.actuator.push(host, self.plan.change.to_ratio):
                self.counters.envelope_pushes += 1
        self.applied_hosts.extend(targets)
        self._wave_targets = targets
        self.phase = PHASE_APPLYING
        self.apply_ticks = 0
        if self.timeline is not None:
            self.timeline.record(
                now,
                ROLLOUT_WAVE,
                wave.name,
                f"wave {wave.index}: pushed {len(targets)} host(s)"
                + (f", {excluded} excluded" if excluded else ""),
            )

    def _complete_wave(self, now: float, wave: Any) -> None:
        self.counters.waves_completed += 1
        if self.timeline is not None:
            self.timeline.record(
                now,
                ROLLOUT_WAVE,
                wave.name,
                f"wave {wave.index}: baked {wave.bake_ticks} tick(s), healthy",
            )
        self.wave_index += 1
        if self.wave_index >= len(self.plan.waves):
            self.phase = PHASE_COMPLETE
            self.counters.completes += 1
            if self.timeline is not None:
                self.timeline.record(
                    now,
                    ROLLOUT_COMPLETE,
                    self.plan.change.change_id,
                    f"{len(self.applied_hosts)} host(s) on "
                    f"{self.plan.change.to_ratio:.3f}",
                )
        else:
            self.phase = PHASE_PENDING

    # ------------------------------------------------------------------
    # Crash safety
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The controller's full state as plain picklable values."""
        state = {
            "change_id": self.plan.change.change_id,
            "phase": self.phase,
            "wave_index": self.wave_index,
            "bake_progress": self.bake_progress,
            "apply_ticks": self.apply_ticks,
            "ticks": self.ticks,
            "applied_hosts": tuple(self.applied_hosts),
            "wave_targets": self._wave_targets,
            "frozen_reasons": self._frozen_reasons,
            "operator_hold": self._operator_hold,
            "ladder": self.ladder.snapshot(),
            "analyzer": self.analyzer.snapshot(),
            "counters": {
                f.name: getattr(self.counters, f.name)
                for f in fields(self.counters)
            },
        }
        if hasattr(self.actuator, "snapshot"):
            state["actuator"] = self.actuator.snapshot()
        return state

    def restore(self, state: dict) -> None:
        """Rewind to a :meth:`snapshot` taken from the same plan."""
        if state.get("change_id") != self.plan.change.change_id:
            raise RolloutError(
                f"snapshot belongs to change {state.get('change_id')!r}, "
                f"not {self.plan.change.change_id!r}"
            )
        self.phase = state["phase"]
        self.wave_index = int(state["wave_index"])
        self.bake_progress = int(state["bake_progress"])
        self.apply_ticks = int(state["apply_ticks"])
        self.ticks = int(state["ticks"])
        self.applied_hosts = list(state["applied_hosts"])
        self._wave_targets = tuple(state["wave_targets"])
        self._frozen_reasons = tuple(state["frozen_reasons"])
        self._operator_hold = bool(state["operator_hold"])
        self.ladder.restore(state["ladder"])
        self.analyzer.restore(state["analyzer"])
        for name, value in state["counters"].items():
            setattr(self.counters, name, value)
        if "actuator" in state and hasattr(self.actuator, "restore"):
            self.actuator.restore(state["actuator"])

    def _journal_tick(self) -> None:
        if self.journal is None:
            return
        payload = {"controller": self.snapshot()}
        if self.extra_snapshot is not None:
            payload["extra"] = self.extra_snapshot()
        self.journal.record(
            f"rollout:{self.run_id}:tick:{self.ticks}",
            f"tick-{self.ticks}",
            payload,
        )

    def resume(self) -> tuple[int, Any | None]:
        """Restore the newest journaled tick; ``(0, None)`` if fresh.

        Returns the restored tick number and whatever ``extra_snapshot``
        payload was journaled with it, so the caller can rewind its own
        world state to the same instant.
        """
        if self.journal is None:
            raise RolloutError("cannot resume a controller without a journal")
        prefix = f"rollout:{self.run_id}:tick:"
        best_tick, best = 0, None
        for key, value in self.journal.replayed.items():
            if not key.startswith(prefix):
                continue
            tick = int(key[len(prefix) :])
            if tick > best_tick:
                best_tick, best = tick, value
        if best is None:
            return 0, None
        self.restore(best["controller"])
        return best_tick, best.get("extra")


__all__ = [
    "ROLLOUT_ESCALATE",
    "ROLLOUT_RELAX",
    "ROLLOUT_WAVE",
    "ROLLOUT_FREEZE",
    "ROLLOUT_UNFREEZE",
    "ROLLOUT_STALLED",
    "ROLLOUT_COMPLETE",
    "PHASE_PENDING",
    "PHASE_APPLYING",
    "PHASE_BAKING",
    "PHASE_COMPLETE",
    "PHASE_ROLLED_BACK",
    "HALT_MARGIN",
    "ROLLBACK_MARGIN",
    "RolloutStage",
    "HostSignals",
    "CallbackEnvelopeActuator",
    "BusEnvelopeActuator",
    "RolloutController",
]
