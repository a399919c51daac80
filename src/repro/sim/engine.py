"""Discrete-event simulation engine.

A minimal, fast event loop over a binary heap.  Every heap entry is a
4-tuple ``(time, seq, payload, args)``:

* ``seq`` comes from the simulator's one sequence counter and breaks
  ties deterministically (FIFO among same-time events), which —
  together with seeded RNG streams (:mod:`repro.sim.rng`) — makes every
  simulation bit-reproducible.  Keys ``(time, seq)`` are unique.
* ``args`` is None for a cancellable entry, whose ``payload`` is an
  :class:`EventHandle`; otherwise ``payload`` is a bare callable fired
  as ``payload(*args)``.

Two scheduling paths produce these entries:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`EventHandle` supporting O(1) cancellation — for timers that
  may be cancelled (retransmission timeouts, in-flight deliveries).
* :meth:`Simulator.post` / :meth:`Simulator.post_at` are the
  no-allocation fast path for events that are **never cancelled**
  (serializer completions, periodic monitor ticks): the callback and
  its arguments go straight into the heap entry, no handle object.
  Link channels (:mod:`repro.sim.link`) build the same post entries
  themselves and push them onto :attr:`Simulator._heap` directly, with
  ``next(Simulator._seq)`` as the key.

Every path consumes one sequence number per event, so mixing them does
not perturb event order — a ``post`` fires exactly when the equivalent
``schedule`` would have.

A cancelled entry stays in the heap until it surfaces; the simulator
counts them, so :meth:`Simulator.pending` is exact at any moment.  When
cancelled entries make up more than half of a heap above a small fixed
size, the heap is rebuilt without them.  Keys are unique, so the order
in which live events pop cannot change; this keeps a TCP flow, which
cancels and re-arms its retransmission timer on every new ACK, from
growing the heap with dead timers.

This engine replaces Mininet's real-time kernel datapath in the paper's
evaluation: instead of emulating Linux interfaces, we schedule packet
transmissions and arrivals as events on a virtual clock.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Simulator", "SimError", "EventHandle"]

#: Heaps at or below this many entries are never compacted: rebuilding
#: a small heap costs more than popping its few dead entries.
_COMPACT_FLOOR = 64


class SimError(RuntimeError):
    """Raised on engine misuse (negative delays, running twice, ...)."""


class EventHandle:
    """Handle to a scheduled event; supports O(1) cancellation.

    Cancellation marks the entry dead and counts it on the simulator;
    the heap discards dead entries when they surface or when it is
    compacted.
    """

    __slots__ = ("time", "_fn", "_args", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., None],
        args: Tuple[Any, ...],
        sim: "Simulator",
    ):
        self.time = time
        self._fn: Optional[Callable[..., None]] = fn
        self._args = args
        self._sim = sim

    def cancel(self) -> None:
        if self._fn is None:
            return
        self._fn = None
        self._args = ()
        self._sim._cancelled()

    @property
    def cancelled(self) -> bool:
        return self._fn is None

    def _fire(self) -> None:
        # Clear the handle *before* invoking: a fired event is no
        # longer in the heap, so a late cancel() must be a no-op rather
        # than count a dead entry that does not exist.  (Consequence:
        # `cancelled` is True for fired handles too — it means "cancel
        # is a no-op".)
        fn = self._fn
        if fn is not None:
            args = self._args
            self._fn = None
            self._args = ()
            fn(*args)


class Simulator:
    """The event loop and virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, link.deliver, packet)
        sim.run_until(10.0)

    Time is in seconds (floats).  Events scheduled for the same instant
    fire in scheduling order.
    """

    def __init__(self) -> None:
        # Entry format: see the module docstring.
        self._heap: List[Tuple[float, int, Any, Optional[Tuple[Any, ...]]]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._dead = 0  # cancelled entries still in the heap
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run *delay* seconds from now."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        handle = EventHandle(self._now + delay, fn, args, self)
        heapq.heappush(self._heap, (handle.time, next(self._seq), handle, None))
        return handle

    def schedule_at(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual *time*."""
        if time < self._now:
            raise SimError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        handle = EventHandle(time, fn, args, self)
        heapq.heappush(self._heap, (time, next(self._seq), handle, None))
        return handle

    def post(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` with no cancellation handle.

        The no-allocation fast path for events that are never cancelled
        (serializer completions, monitor ticks).  Fires in exactly the
        slot the equivalent :meth:`schedule` call would have used.
        """
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._heap, (self._now + delay, next(self._seq), fn, args)
        )

    def post_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Absolute-time variant of :meth:`post`."""
        if time < self._now:
            raise SimError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        heapq.heappush(self._heap, (time, next(self._seq), fn, args))

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

    def run_until(self, end_time: float) -> None:
        """Process events with time <= *end_time*; clock ends at *end_time*.

        The clock advances to *end_time* even if the heap drains early,
        so periodic samplers observe a consistent final timestamp.
        """
        if end_time < self._now:
            raise SimError(f"end_time {end_time} is before now {self._now}")
        if self._drain(end_time):
            self._now = end_time

    def run(self) -> None:
        """Process every pending event (until the heap drains or stop()).

        The clock is left at the last event's time.
        """
        self._drain(math.inf)

    def _drain(self, end_time: float) -> bool:
        """The event loop: pop and fire events with time <= *end_time*.

        Returns False when :meth:`stop` ended the loop.
        """
        if self._running:
            raise SimError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        # events_processed is batched into a local and folded back in
        # the finally block (an attribute write per event was visible
        # in profiles), so it is stale *inside* a run.  pending() reads
        # the heap and the dead count, and is exact inside a run too.
        processed = 0
        try:
            while heap and not self._stopped:
                if heap[0][0] > end_time:
                    break
                time, _, payload, args = heappop(heap)
                if args is None:
                    # Cancellable path: payload is an EventHandle.
                    if payload._fn is None:
                        self._dead -= 1
                        continue
                    processed += 1
                    self._now = time
                    payload._fire()
                else:
                    processed += 1
                    self._now = time
                    payload(*args)
            return not self._stopped
        finally:
            self._running = False
            self.events_processed += processed

    def _cancelled(self) -> None:
        """Count one more dead entry; compact when they dominate."""
        self._dead += 1
        heap = self._heap
        if self._dead * 2 > len(heap) > _COMPACT_FLOOR:
            # In place: a running loop holds a reference to this list.
            heap[:] = [
                e for e in heap if e[3] is not None or e[2]._fn is not None
            ]
            heapq.heapify(heap)
            self._dead = 0

    def pending(self) -> int:
        """Number of live (non-cancelled) events in the queue.

        O(1) and exact at any moment, inside a run too: the heap's size
        minus the cancelled entries still in it.
        """
        return len(self._heap) - self._dead
