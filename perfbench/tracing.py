"""Span tracing of the library's layers, installed from outside.

:meth:`Tracer.install` replaces public entry points of the library's
classes with thin wrappers that record one span per call: its name,
start, end and the span that was open when it began (its parent). The
library's own code is untouched; only a traced benchmark process
installs the wrappers. Spans are kept in flat arrays in memory and
written to disk once at exit; :func:`span_times` and
``catalog.layer_metrics`` derive every per-layer number from them:

* a span's *self time* is its duration minus the durations of its
  direct children;
* a metric's *inclusive time* is the time covered by its spans, counted
  once where spans of the same metric nest.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: (module, class or None for a module function, attributes, span name).
#: A span name is ``<layer>.<entry>``; entries sharing a name form one
#: metric. ``PUBLIC`` stands for every public method the class defines.
PUBLIC = ("*",)
ENTRY_POINTS: tuple[tuple[str, str | None, tuple[str, ...], str], ...] = (
    ("repro.sim.kernel", "Simulator", ("run",), "sim.run"),
    ("repro.workloads.queueing", "ServerVM", ("submit",), "workloads.submit"),
    ("repro.workloads.queueing", "ServerVM", ("set_frequency",), "workloads.set_frequency"),
    ("repro.workloads.queueing", "LoadBalancer", ("route",), "workloads.route"),
    ("repro.workloads.queueing", "LoadBalancer", ("in_flight",), "workloads.in_flight"),
    ("repro.workloads.diurnal", "ArrivalProcess", ("arrivals",), "workloads.arrivals"),
    (
        "repro.workloads.queueing",
        "ServerVM",
        ("counter_snapshot", "utilization_from"),
        "autoscale.snapshot",
    ),
    ("repro.service.core", "ServiceCore", ("tick",), "service.tick"),
    ("repro.service.admission", "AdmissionController", ("admit",), "service.admit"),
    ("repro.service.backlog", "BoundedDeadlineQueue", ("push", "pop", "expire"), "service.queue"),
    ("repro.service.backlog", "QueueDelayController", ("observe",), "service.ladder"),
    ("repro.service.brownout", "BrownoutLadder", ("observe",), "service.ladder"),
    ("repro.emergency.ladder", "EmergencyCoordinator", ("observe",), "emergency.observe"),
    ("repro.power.ladder", "PowerEmergencyCoordinator", ("observe",), "emergency.observe"),
    ("repro.thermal.transient", "TankFluidRC", ("set_heat", "sample"), "thermal.tank"),
    ("repro.control.link", "ActuationLink", ("heartbeat",), "control.heartbeat"),
    ("repro.control.bus", "CommandBus", ("send",), "control.send"),
    ("repro.control.channel", "LossyChannel", ("deliver",), "control.deliver"),
    (
        "repro.power.tree",
        "PowerDeliveryHierarchy",
        ("rollup", "worst_headroom_fraction", "observe_breakers"),
        "power.rollup",
    ),
    ("repro.power.arbiter", "PowerBudgetArbiter", PUBLIC, "power.arbiter"),
    ("repro.health.mce", "MachineCheckStream", ("sample_window",), "health.mce"),
    ("repro.health.coordinator", "FleetHealthCoordinator", ("tick",), "health.coordinator"),
    ("repro.health.detector", "DriftDetector", ("observe",), "health.detector"),
    ("repro.rollout.controller", "RolloutController", ("tick",), "rollout.tick"),
    ("repro.rollout.analyzer", "CanaryAnalyzer", ("observe",), "rollout.analyzer"),
    ("repro.engine.core", "SweepEngine", ("run",), "engine.run"),
    # The sweep engine's task functions: engine overhead is engine.run
    # minus these.
    ("repro.experiments.partition_recovery", None, ("run_partition_mode",), "engine.task"),
    ("repro.experiments.heatwave_ride_through", None, ("run_heatwave_mode",), "engine.task"),
    (
        "repro.experiments.oversubscription_crisis",
        None,
        ("run_oversubscription_mode",),
        "engine.task",
    ),
    ("repro.experiments.sdc_hunt", None, ("run_sdc_mode",), "engine.task"),
    ("repro.experiments.envelope_rollout", None, ("run_rollout_mode",), "engine.task"),
)

#: Span names whose self time belongs to another layer than their prefix
#: (a sweep task's own code is experiment code).
LAYER_OF = {"engine.task": "experiments"}


class Tracer:
    """Flat in-memory span store plus a few plain counters."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: EventQueue pushes (counted, not spanned: they are the
        #: hottest call in the DES and their time stays with the caller).
        self.pushes = 0
        #: Events every Simulator.run executed.
        self.events = 0
        self._installed: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` recording one span called ``name`` per call."""
        name_id = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def call(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` inside a span called ``name``."""
        return self.wrap(fn, name)()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for module_name, class_name, attributes, span_name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            if attributes == PUBLIC:
                attributes = tuple(
                    attr
                    for attr, value in vars(owner).items()
                    if not attr.startswith("_") and inspect.isfunction(value)
                )
            for attr in attributes:
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, property):
                    replacement: Any = property(self.wrap(original.fget, span_name))
                else:
                    replacement = self.wrap(original, span_name)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, replacement)
        self._install_counters()

    def _install_counters(self) -> None:
        from repro.sim.events import EventQueue
        from repro.sim.kernel import Simulator

        push = EventQueue.push
        run = Simulator.run  # already spanned by install()
        tracer = self

        def counted_push(queue: Any, *args: Any, **kwargs: Any) -> Any:
            tracer.pushes += 1
            return push(queue, *args, **kwargs)

        # Simulator.run is the only caller of Simulator.step.
        def counted_run(simulator: Any, *args: Any, **kwargs: Any) -> Any:
            before = simulator.processed_events
            try:
                return run(simulator, *args, **kwargs)
            finally:
                tracer.events += simulator.processed_events - before

        for owner, attr, replacement in (
            (EventQueue, "push", counted_push),
            (Simulator, "run", counted_run),
        ):
            self._installed.append((owner, attr, inspect.getattr_static(owner, attr)))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Write every span (and the name table and run id) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            **self.arrays(),
        )


def span_times(spans: dict[str, np.ndarray], names: list[str]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and inclusive ``incl_s``."""
    name, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    self_time = duration - children
    out: dict[str, dict[str, float]] = {}
    for name_id, span_name in enumerate(names):
        mask = name == name_id
        if not mask.any():
            out[span_name] = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
            continue
        starts, ends = spans["start"][mask], spans["end"][mask]
        # Spans are stored in start order, so a span is outermost among
        # its own name exactly when it starts after every earlier one
        # has ended.
        covered = np.maximum.accumulate(ends)
        outer = np.ones(len(starts), dtype=bool)
        outer[1:] = starts[1:] >= covered[:-1]
        out[span_name] = {
            "calls": int(mask.sum()),
            "self_s": float(self_time[mask].sum()),
            "incl_s": float((ends[outer] - starts[outer]).sum()),
        }
    return out


def layer_shares(
    times: dict[str, dict[str, float]], spans: dict[str, np.ndarray], wall_s: float
) -> dict[str, float]:
    """Share of ``wall_s`` spent in each layer's own code.

    ``times`` is :func:`span_times` of ``spans``. Time outside every
    span is the benchmark's loop and checks.
    """
    shares: dict[str, float] = {}
    for span_name, stat in times.items():
        layer = LAYER_OF.get(span_name, span_name.split(".", 1)[0])
        shares[layer] = shares.get(layer, 0.0) + stat["self_s"] / wall_s
    top = spans["parent"] < 0
    outside = wall_s - float((spans["end"][top] - spans["start"][top]).sum())
    shares["benchmark"] = outside / wall_s
    return dict(sorted(shares.items(), key=lambda item: -item[1]))
