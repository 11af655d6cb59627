"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import EventQueue, Simulator


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append(3))
        queue.push(1.0, lambda: fired.append(1))
        queue.push(2.0, lambda: fired.append(2))
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == [1, 2, 3]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        for index in range(10):
            queue.push(5.0, lambda i=index: fired.append(i))
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == list(range(10))

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        keep = queue.push(1.0, lambda: fired.append("keep"))
        drop = queue.push(0.5, lambda: fired.append("drop"))
        drop.cancel()
        assert len(queue) == 1
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == ["keep"]
        del keep

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0

    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push(float("nan"), lambda: None)


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.at(5.0, lambda: times.append(sim.now))
        sim.at(10.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0, 10.0]
        assert sim.now == 10.0

    def test_run_until_advances_clock_to_horizon(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_run_until_does_not_fire_later_events(self):
        sim = Simulator()
        fired = []
        sim.at(50.0, lambda: fired.append("early"))
        sim.at(150.0, lambda: fired.append("late"))
        sim.run(until=100.0)
        assert fired == ["early"]
        sim.run(until=200.0)
        assert fired == ["early", "late"]

    def test_after_schedules_relative(self):
        sim = Simulator()
        result = []
        sim.at(10.0, lambda: sim.after(5.0, lambda: result.append(sim.now)))
        sim.run()
        assert result == [15.0]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_periodic_events_fire_until_cancelled(self):
        sim = Simulator()
        ticks = []
        handle = sim.every(10.0, lambda: ticks.append(sim.now))
        sim.at(35.0, handle.cancel)
        sim.run(until=100.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_periodic_start_after_override(self):
        sim = Simulator()
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now), start_after=0.0)
        sim.run(until=25.0)
        assert ticks == [0.0, 10.0, 20.0]

    def test_every_requires_positive_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_max_events_bound(self):
        sim = Simulator()
        for index in range(10):
            sim.at(float(index), lambda: None)
        sim.run(max_events=4)
        assert sim.processed_events == 4

    def test_max_events_zero_runs_nothing(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.run(max_events=0)
        assert fired == []
        assert sim.processed_events == 0
        assert sim.now == 0.0
        assert sim.pending_events == 1

    def test_cancelled_head_past_until_neither_fires_nor_blocks(self):
        sim = Simulator()
        fired = []
        sim.at(150.0, lambda: fired.append("cancelled")).cancel()
        sim.at(160.0, lambda: fired.append(sim.now))
        sim.run(until=155.0)
        assert fired == []
        assert sim.now == 155.0
        sim.run(until=170.0)
        assert fired == [160.0]
        assert sim.now == 170.0
        assert sim.processed_events == 1

    def test_step_runs_one_live_event(self):
        sim = Simulator()
        fired = []
        sim.at(1.0, lambda: fired.append(1)).cancel()
        sim.at(2.0, lambda: fired.append(2))
        sim.at(3.0, lambda: fired.append(3))
        assert sim.step()
        assert fired == [2]
        assert sim.now == 2.0
        assert sim.step()
        assert not sim.step()
        assert fired == [2, 3]
        assert sim.processed_events == 2

    def test_event_in_the_past_is_rejected(self):
        sim = Simulator()
        sim.at(10.0, lambda: None)
        sim.run()
        sim._queue.push(5.0, lambda: None)  # bypasses Simulator.at's check
        with pytest.raises(SimulationError):
            sim.run()

    def test_reset_clears_state(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.processed_events == 0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time(self, times):
        sim = Simulator()
        observed = []
        for time in times:
            sim.at(time, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(times)


class TestRandomStreams:
    def test_streams_are_deterministic(self):
        sim1, sim2 = Simulator(seed=42), Simulator(seed=42)
        draws1 = [sim1.streams.exponential("a", 1.0) for _ in range(10)]
        draws2 = [sim2.streams.exponential("a", 1.0) for _ in range(10)]
        assert draws1 == draws2

    def test_streams_are_independent_by_name(self):
        sim = Simulator(seed=0)
        a_first = sim.streams.exponential("a", 1.0)
        sim2 = Simulator(seed=0)
        # Interleave a draw from stream b; stream a must be unaffected.
        sim2.streams.exponential("b", 1.0)
        a_second = sim2.streams.exponential("a", 1.0)
        assert a_first == a_second

    def test_different_seeds_differ(self):
        assert (
            Simulator(seed=1).streams.exponential("a", 1.0)
            != Simulator(seed=2).streams.exponential("a", 1.0)
        )

    @given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=0.0, max_value=3.0))
    def test_lognormal_mean_and_cv(self, mean, cv):
        import numpy as np

        sim = Simulator(seed=7)
        draws = np.array([sim.streams.lognormal("s", mean, cv) for _ in range(4000)])
        assert np.mean(draws) == pytest.approx(mean, rel=0.35 + 0.35 * cv)

    def test_lognormal_zero_cv_is_deterministic(self):
        sim = Simulator()
        assert sim.streams.lognormal("s", 5.0, 0.0) == 5.0

    def test_lognormal_rejects_bad_inputs(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.streams.lognormal("s", -1.0, 0.5)
        with pytest.raises(ValueError):
            sim.streams.lognormal("s", 1.0, -0.5)
