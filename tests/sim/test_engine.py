"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import SimError, Simulator
from repro.sim.engine import _COMPACT_FLOOR


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_during_run(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [5.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.schedule_at(0.5, lambda: None)


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run_until(6.0)
        assert fired == [1, 5]

    def test_boundary_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, 1)
        sim.run_until(2.0)
        assert fired == [1]

    def test_clock_reaches_end_even_when_idle(self):
        sim = Simulator()
        sim.run_until(7.0)
        assert sim.now == 7.0

    def test_backwards_run_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimError):
            sim.run_until(3.0)

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimError):
                sim.run_until(10.0)

        sim.schedule(1.0, reenter)
        sim.run_until(2.0)


class TestPostFastPath:
    """post()/post_at(): the handle-free path for uncancellable events."""

    def test_post_fires_with_args(self):
        sim = Simulator()
        seen = []
        sim.post(1.0, seen.append, "a")
        sim.post(0.5, seen.append, "b")
        sim.run()
        assert seen == ["b", "a"]
        assert sim.now == 1.0

    def test_post_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.post_at(5.0, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [5.0]

    def test_post_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.post(-0.1, lambda: None)

    def test_post_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.post_at(0.5, lambda: None)

    def test_post_and_schedule_interleave_fifo(self):
        # Both paths consume one sequence number per call, so mixing
        # them preserves scheduling order among same-time events — the
        # property that makes post() digest-neutral.
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "s1")
        sim.post(1.0, order.append, "p1")
        sim.schedule(1.0, order.append, "s2")
        sim.post(1.0, order.append, "p2")
        sim.run()
        assert order == ["s1", "p1", "s2", "p2"]

    def test_post_counts_in_pending_and_processed(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 2

    def test_cancelled_events_not_counted_as_processed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.5, lambda: None).cancel()
        sim.post(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_counts_live_events(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        h1.cancel()
        assert sim.pending() == 1

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        # Regression: cancelling a handle whose event already fired
        # used to decrement the live counter a second time, driving
        # pending() negative and corrupting later accounting.
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending() == 0
        handle.cancel()
        assert sim.pending() == 0
        handle.cancel()  # still idempotent after firing
        assert sim.pending() == 0
        # The counter must stay coherent for events scheduled later.
        sim.schedule(1.0, lambda: None)
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0

    def test_cancel_after_fire_inside_run(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        # A later event cancels the earlier, already-fired one: the
        # cancel must be a no-op, not a second live-counter decrement.
        sim.schedule(2.0, handle.cancel)
        sim.run()
        assert fired == [1]
        assert handle.cancelled  # fired handles read as cancelled
        assert sim.pending() == 0
        assert sim.events_processed == 2


class TestStop:
    def test_stop_halts_processing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, 3)
        sim.run()
        assert fired == [1]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_run_after_stop_resumes(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert (fired, sim.now) == ([], 1.0)
        sim.run()
        assert (fired, sim.now) == ([2], 2.0)

    def test_stopped_run_until_keeps_clock_at_stop(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.run_until(5.0)
        assert sim.now == 1.0


_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0])
_OPS = st.sampled_from(
    ["schedule", "schedule_at", "post", "post_at", "cancel", "cancel",
     "burst"]
)


class _Model:
    """An independent account of which events are live, and their keys.

    Keys are ``(time, creation order)``: events fire in time order, FIFO
    among equal times.  Each event's callback checks that it is the
    smallest live key, then runs ops drawn from the test's data — so
    schedules, posts and cancels (of live, fired and cancelled events
    alike) are issued from inside events as well as between runs.
    """

    def __init__(self, sim, data):
        self.sim = sim
        self.data = data
        self.live = {}  # event id -> key
        self.handles = []  # (event id, handle) of cancellable events
        self.fired = []
        self.created = 0

    def check_pending(self):
        assert self.sim.pending() == len(self.live)

    def _new(self, time):
        eid = self.created
        self.created += 1
        self.live[eid] = (time, eid)
        return eid

    def fire(self, eid):
        key = self.live.pop(eid)  # KeyError: a cancelled event fired
        assert not self.live or key < min(self.live.values())
        assert self.sim.now == key[0]
        self.fired.append(eid)
        self.check_pending()
        if self.created < 150:
            self.ops(self.data.draw(st.integers(0, 3)))

    def ops(self, count):
        sim, draw = self.sim, self.data.draw
        for _ in range(count):
            op = draw(_OPS)
            if op in ("schedule", "post"):
                delay = draw(_DELAYS)
                eid = self._new(sim.now + delay)
                if op == "schedule":
                    self.handles.append(
                        (eid, sim.schedule(delay, self.fire, eid))
                    )
                else:
                    sim.post(delay, self.fire, eid)
            elif op in ("schedule_at", "post_at"):
                time = sim.now + draw(_DELAYS)
                eid = self._new(time)
                if op == "schedule_at":
                    self.handles.append(
                        (eid, sim.schedule_at(time, self.fire, eid))
                    )
                else:
                    sim.post_at(time, self.fire, eid)
            elif op == "cancel":
                if self.handles:
                    eid, handle = draw(st.sampled_from(self.handles))
                    handle.cancel()
                    self.live.pop(eid, None)
            else:
                # Enough cancelled entries to cross the compaction floor.
                burst = []
                for _ in range(draw(st.integers(1, 2 * _COMPACT_FLOOR))):
                    delay = draw(_DELAYS)
                    eid = self._new(sim.now + delay)
                    burst.append(
                        (eid, sim.schedule(delay, self.fire, eid))
                    )
                self.handles.extend(burst)
                for eid, handle in burst:
                    if draw(st.booleans()) or draw(st.booleans()):
                        handle.cancel()
                        del self.live[eid]
            self.check_pending()


class TestOrderProperty:
    @given(st.data())
    def test_live_events_fire_in_time_then_scheduling_order(self, data):
        sim = Simulator()
        model = _Model(sim, data)
        for _ in range(data.draw(st.integers(1, 4))):
            model.ops(data.draw(st.integers(0, 6)))
            if data.draw(st.booleans()):
                sim.run()
                assert not model.live
            else:
                end = sim.now + data.draw(_DELAYS)
                sim.run_until(end)
                assert sim.now == end
                assert all(t > end for t, _ in model.live.values())
            model.check_pending()
        sim.run()
        assert not model.live
        model.check_pending()
        assert sim.events_processed == len(model.fired)


class TestCompaction:
    def test_rto_churn_keeps_heap_bounded(self):
        # A TCP sender cancels and re-arms its RTO timer on every new
        # ACK; without compaction each ACK would leave one dead entry.
        sim = Simulator()
        state = {"acks": 0, "timeouts": 0, "timer": None}

        def on_rto():
            state["timeouts"] += 1

        def on_ack():
            state["timer"].cancel()
            state["timer"] = sim.schedule(0.2, on_rto)
            state["acks"] += 1
            assert sim.pending() == 1  # the timer; this ACK has fired
            assert len(sim._heap) - sim.pending() <= _COMPACT_FLOOR
            if state["acks"] < 10_000:
                sim.post(0.001, on_ack)

        state["timer"] = sim.schedule(0.2, on_rto)
        sim.post(0.001, on_ack)
        sim.run()
        assert (state["acks"], state["timeouts"]) == (10_000, 1)
        assert sim.pending() == 0 and not sim._heap
        assert sim.events_processed == 10_001

    def test_churn_between_runs(self):
        sim = Simulator()
        sim.post(100.0, lambda: None)
        timer = sim.schedule(1.0, lambda: None)
        for _ in range(10_000):
            timer.cancel()
            timer = sim.schedule(1.0, lambda: None)
            assert sim.pending() == 2
            assert len(sim._heap) - sim.pending() <= _COMPACT_FLOOR
        sim.run()
        assert sim.events_processed == 2

    def test_small_heaps_are_left_alone(self):
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None)
                   for _ in range(_COMPACT_FLOOR)]
        for handle in handles:
            handle.cancel()
        assert len(sim._heap) == _COMPACT_FLOOR
        assert sim.pending() == 0
