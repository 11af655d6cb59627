"""Golden pins for the closed-loop DES hot path.

The values below were recorded before the processor-sharing VM, the
kernel run loop and the load balancer's in-flight count were rewritten
for speed. Any change to a float, to the order events fire in or to the
number of events dispatched moves at least one of them, so the suite
itself proves that a hot-path optimisation changed no output.
"""

from repro.autoscale.policy import ScalerMode
from repro.experiments import autoscaling
from repro.service.core import ServiceCore
from repro.sim.kernel import Simulator


def test_fig16_oc_a_short_ramp_is_bit_identical(monkeypatch):
    made: list[Simulator] = []

    class RecordingSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(autoscaling, "Simulator", RecordingSimulator)
    result = autoscaling.run_fig16_mode(
        ScalerMode.OC_A, seed=1, levels=2, step_period_s=90.0
    )
    assert repr(result.latency.p95()) == "0.08243872453194286"
    assert repr(result.latency.mean()) == "0.023348327732420612"
    assert result.max_vms == 2
    assert repr(result.vm_hours()) == "0.065"
    assert repr(result.power.average_watts()) == "96.15356883630362"
    assert len(made) == 1
    assert made[0].processed_events == 177784


def test_robust_service_core_signature_is_bit_identical():
    core = ServiceCore(seed=1, mode="robust")
    for _ in range(100):
        core.tick()
    core.apply_op({"op": "demand-surge", "factor": 2.6, "duration_s": 10.0})
    core.apply_op({"op": "thermal-excursion", "derate": 0.3, "duration_s": 15.0})
    for _ in range(100):
        core.tick()
    assert core.apply_op({"op": "vm-crash", "host": "h1"}) == "dropped=1"
    for _ in range(100):
        core.tick()
    assert core.signature == (
        "7cc4ef6448d4a8b09c29e979dbe972719ad554fbaad7fc5dbb34bc5ee66f7167"
    )
    assert core.counters.completed_ok == 14049
    assert core.in_flight == 3
