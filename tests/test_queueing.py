"""Tests for the processor-sharing server VM and load balancer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, WorkloadError
from repro.sim import EventQueue, OpenLoopSource, Simulator
from repro.telemetry import LatencyRecorder
from repro.workloads import DEFAULT_SERVICE_MEAN_S, LoadBalancer, ServerVM

#: Offered load per vcore at a given QPS on a 4-vcore VM.
def offered_rho(qps, vcores=4):
    return qps * DEFAULT_SERVICE_MEAN_S / vcores



def run_vm(qps, seconds=60.0, frequency=None, seed=3, vcores=4):
    simulator = Simulator(seed=seed)
    recorder = LatencyRecorder()
    vm = ServerVM(simulator, "vm", vcores=vcores, latency_recorder=recorder)
    if frequency is not None:
        vm.set_frequency(frequency)
    OpenLoopSource(simulator, vm.submit, rate_per_second=qps)
    simulator.run(until=seconds)
    return vm, recorder, simulator


class TestServerVM:
    def test_utilization_matches_offered_load(self):
        vm, _, sim = run_vm(qps=700)
        utilization = vm.cumulative_busy_seconds / (sim.now * vm.vcores)
        assert utilization == pytest.approx(offered_rho(700), abs=0.03)

    def test_throughput_conserved(self):
        vm, recorder, _ = run_vm(qps=500)
        assert vm.completed_requests == pytest.approx(500 * 60, rel=0.1)
        assert len(recorder) == vm.completed_requests

    def test_latency_grows_with_load(self):
        _, light, _ = run_vm(qps=200)
        _, heavy, _ = run_vm(qps=900)
        assert heavy.p95() > light.p95()
        assert heavy.mean() > light.mean()

    def test_overclocking_reduces_latency(self):
        _, base, _ = run_vm(qps=880)
        _, fast, _ = run_vm(qps=880, frequency=4.1)
        ratio = fast.mean() / base.mean()
        # Per-request, Eq. 1 bounds the direct gain; under load the
        # queueing feedback amplifies it well beyond that bound.
        eq1_bound = 0.85 * 3.4 / 4.1 + 0.15
        assert ratio < eq1_bound
        assert ratio > 0.05

    def test_overclocking_rescues_a_saturated_vm(self):
        """At 1000 QPS a base-clock VM is past capacity (rho=1.05) and its
        queue grows without bound; at 4.1 GHz the same VM is stable."""
        base_vm, base, _ = run_vm(qps=1000)
        fast_vm, fast, _ = run_vm(qps=1000, frequency=4.1)
        assert base_vm.in_flight > 50          # diverging backlog
        assert fast_vm.in_flight < 50          # stable
        assert fast.mean() < base.mean() / 5.0

    def test_overclocking_gain_near_eq1_when_unloaded(self):
        _, base, _ = run_vm(qps=100)
        _, fast, _ = run_vm(qps=100, frequency=4.1)
        eq1_bound = 0.85 * 3.4 / 4.1 + 0.15
        assert fast.mean() / base.mean() == pytest.approx(eq1_bound, abs=0.05)

    def test_overclocking_reduces_utilization_by_eq1(self):
        vm_base, _, sim_base = run_vm(qps=750)
        vm_fast, _, sim_fast = run_vm(qps=750, frequency=4.1)
        util_base = vm_base.cumulative_busy_seconds / (sim_base.now * 4)
        util_fast = vm_fast.cumulative_busy_seconds / (sim_fast.now * 4)
        expected = util_base * (0.85 * 3.4 / 4.1 + 0.15)
        assert util_fast == pytest.approx(expected, abs=0.03)

    def test_counters_reflect_scalable_fraction(self):
        vm, _, sim = run_vm(qps=800)
        snapshot = vm.counter_snapshot()
        delta = snapshot.delta(type(snapshot)(time=0.0, aperf=0.0, pperf=0.0, busy_seconds=0.0))
        assert delta.scalable_fraction == pytest.approx(0.85, abs=1e-6)

    def test_frequency_change_mid_run(self):
        simulator = Simulator(seed=5)
        recorder = LatencyRecorder()
        vm = ServerVM(simulator, "vm", latency_recorder=recorder)
        OpenLoopSource(simulator, vm.submit, rate_per_second=1000)
        simulator.at(30.0, lambda: vm.set_frequency(4.1))
        simulator.run(until=60.0)
        assert vm.frequency_ghz == 4.1
        assert vm.completed_requests > 50_000

    def test_saturated_vm_backlogs(self):
        vm, _, _ = run_vm(qps=2000, seconds=30.0)  # capacity ~950 QPS
        assert vm.in_flight > 100

    def test_unmoved_completion_is_kept_and_fires_once(self, monkeypatch):
        """A second job that leaves the head's finish time exactly where
        it was keeps the pending completion instead of re-arming it."""
        pushes = []
        push = EventQueue.push

        def counting_push(queue, time, callback, name=""):
            pushes.append((time, name))
            return push(queue, time, callback, name)

        monkeypatch.setattr(EventQueue, "push", counting_push)
        simulator = Simulator()
        vm = ServerVM(
            simulator, "vm", vcores=2, service_mean_s=1.0, service_cv=0.0,
            scalable_fraction=1.0,
        )
        done = []

        def record(completion, arrival):
            done.append((completion, arrival))

        simulator.at(0.0, lambda: vm.submit(0.0, on_complete=record))
        simulator.at(
            0.5, lambda: vm.submit(0.5, demand_scale=4.0, on_complete=record)
        )
        simulator.run(until=0.75)
        completions = [time for time, name in pushes if name == "vm:complete"]
        assert completions == [1.0]
        simulator.run()
        assert done == [(1.0, 0.0), (4.5, 0.5)]
        completions = [time for time, name in pushes if name == "vm:complete"]
        assert completions == [1.0, 4.5]
        assert vm.completed_requests == 2
        assert vm.in_flight == 0

    def test_moved_completion_is_rearmed(self):
        """Past vcores, a new job slows the head, so its completion moves."""
        simulator = Simulator()
        vm = ServerVM(
            simulator, "vm", vcores=1, service_mean_s=1.0, service_cv=0.0,
            scalable_fraction=1.0,
        )
        done = []
        simulator.at(0.0, lambda: vm.submit(0.0, on_complete=lambda c, a: done.append(c)))
        simulator.at(
            0.5,
            lambda: vm.submit(0.5, demand_scale=4.0, on_complete=lambda c, a: done.append(c)),
        )
        simulator.run()
        # Head: 0.5 s alone, then 0.5 s of work at half rate; the rest of
        # the second job's work then runs alone.
        assert done == [1.5, 5.0]
        assert simulator.pending_events == 0

    def test_validation(self):
        simulator = Simulator()
        with pytest.raises(ConfigurationError):
            ServerVM(simulator, "vm", vcores=0)
        with pytest.raises(ConfigurationError):
            ServerVM(simulator, "vm", scalable_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ServerVM(simulator, "vm", service_mean_s=0.0)
        vm = ServerVM(simulator, "vm")
        with pytest.raises(WorkloadError):
            vm.set_frequency(0.0)


class TestLoadBalancer:
    def test_round_robin_distribution(self):
        simulator = Simulator(seed=1)
        balancer = LoadBalancer()
        vms = [ServerVM(simulator, f"vm{i}") for i in range(3)]
        for vm in vms:
            balancer.attach(vm)
        OpenLoopSource(simulator, balancer.route, rate_per_second=900, deterministic=True)
        simulator.run(until=30.0)
        counts = [vm.completed_requests + vm.in_flight for vm in vms]
        assert max(counts) - min(counts) <= 1

    def test_detach_redirects_traffic(self):
        simulator = Simulator(seed=1)
        balancer = LoadBalancer()
        vms = [ServerVM(simulator, f"vm{i}") for i in range(2)]
        for vm in vms:
            balancer.attach(vm)
        OpenLoopSource(simulator, balancer.route, rate_per_second=200, deterministic=True)
        simulator.at(10.0, lambda: balancer.detach(vms[1]))
        simulator.run(until=20.0)
        total = sum(vm.completed_requests + vm.in_flight for vm in vms)
        assert total == pytest.approx(4000, abs=5)
        vm1_share = vms[1].completed_requests + vms[1].in_flight
        assert vm1_share == pytest.approx(1000, abs=5)

    def test_no_vms_drops_requests(self):
        balancer = LoadBalancer()
        balancer.route(0.0)
        assert balancer.dropped_requests == 1

    def test_attach_detach_validation(self):
        simulator = Simulator()
        balancer = LoadBalancer()
        vm = ServerVM(simulator, "vm")
        balancer.attach(vm)
        with pytest.raises(ConfigurationError):
            balancer.attach(vm)
        balancer.detach(vm)
        with pytest.raises(ConfigurationError):
            balancer.detach(vm)


#: One step of the balancer property test: (operation, VM index, value).
_balancer_ops = st.lists(
    st.tuples(
        st.sampled_from(["attach", "detach", "route", "drop", "run"]),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.0, max_value=0.05),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(_balancer_ops)
def test_balancer_in_flight_matches_attached_vms(ops):
    simulator = Simulator(seed=11)
    balancer = LoadBalancer()
    vms = [ServerVM(simulator, f"vm{i}", vcores=1 + i % 2) for i in range(4)]
    for op, index, value in ops:
        vm = vms[index]
        if op == "attach" and vm not in balancer.vms:
            balancer.attach(vm)
        elif op == "detach" and vm in balancer.vms:
            balancer.detach(vm)
        elif op == "route":
            balancer.route(simulator.now)
        elif op == "drop":
            vm.drop_all_jobs()
        elif op == "run":
            simulator.run(until=simulator.now + value)
        assert balancer.in_flight == sum(vm.in_flight for vm in balancer.vms)
