"""Retained pre-refactor scheduler: the heap-only reference loop.

This is the event loop as it stood before the rewrite of
:mod:`repro.sim.scheduler` — a heap of ``Event`` objects compared by
``Event.__lt__``, ``step`` via ``heap.remove``. It is
kept as the golden-determinism oracle: ``tests/test_simcore_determinism.py``
drives this implementation and the production one through identical random
schedule/cancel/run/step interleavings and asserts byte-identical dispatch
order and :class:`~repro.sim.scheduler.RunStats`.

Do not optimize this file. Behavioral fixes that change dispatch order
must be applied to both implementations (and are a red flag: the whole
point of the pair is that dispatch order never changes).
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.types import Time
from repro.sim.events import Event, Payload, is_choice
from repro.sim.scheduler import RunStats


class HeapOnlyScheduler:
    """The pre-refactor :class:`~repro.sim.scheduler.Scheduler`.

    API-compatible with the production scheduler (``Simulation`` can be
    built over either).
    """

    COMPACT_MIN_HEAP = 128

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self._now: Time = 0.0
        self._live = 0
        self._cancelled_in_heap = 0
        self.compactions = 0
        self._running = False
        self.dispatch: Optional[Callable[[Event], None]] = None
        self.controlled = False

    @property
    def now(self) -> Time:
        return self._now

    @property
    def pending(self) -> int:
        return self._live

    def iter_pending(self):
        """Every live (pending, not cancelled) event, unordered."""
        return (ev for ev in self._heap if not ev.cancelled and ev.queued)

    def schedule(self, delay: float, payload: Payload,
                 after: Event | None = None) -> Event:
        if not delay >= 0:  # a NaN fails it too
            raise SimulationError(f"cannot schedule at delay {delay}")
        ev = Event(time=self._now + delay, seq=self._seq, payload=payload,
                   after=after)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def schedule_at(self, time: Time, payload: Payload,
                    after: Event | None = None) -> Event:
        if not time >= self._now:
            if not (self.controlled and time < self._now):  # NaN raises
                raise SimulationError(
                    f"cannot schedule at {time} (current time {self._now})"
                )
            time = self._now
        ev = Event(time=time, seq=self._seq, payload=payload, after=after)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def cancel(self, event: Event) -> None:
        if event.cancelled:
            return
        event.cancelled = True
        if not event.queued:
            return
        self._live -= 1
        self._cancelled_in_heap += 1
        if (
            len(self._heap) > self.COMPACT_MIN_HEAP
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        live = []
        for ev in self._heap:
            if ev.cancelled:
                ev.queued = False
            else:
                live.append(ev)
        self._heap = live
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self.compactions += 1

    @property
    def next_seq(self) -> int:
        return self._seq

    def co_enabled(self) -> list[Event]:
        out = [
            ev
            for ev in self._heap
            if not ev.cancelled
            and not (ev.after is not None and not ev.after.fired)
        ]
        out.sort()
        return out

    def enable_controlled(self) -> None:
        self.controlled = True

    def choice_events(self) -> list[Event]:
        return [ev for ev in self.co_enabled() if is_choice(ev.payload)]

    def next_forced(self) -> Event | None:
        return next((e for e in self.co_enabled() if not is_choice(e.payload)), None)

    def step(self, ev: Event) -> None:
        if self.dispatch is None:
            raise SimulationError("no dispatch function installed")
        if ev.cancelled or not ev.queued:
            raise SimulationError(f"cannot step a non-pending event {ev!r}")
        self._heap.remove(ev)  # O(heap); controlled runs are small by design
        heapq.heapify(self._heap)
        ev.queued = False
        ev.fired = True
        self._live -= 1
        self._now = max(self._now, ev.time)
        self.dispatch(ev)

    def run(
        self,
        until: Time | None = None,
        max_events: int | None = None,
    ) -> RunStats:
        if self.dispatch is None:
            raise SimulationError("no dispatch function installed")
        if self._running:
            raise SimulationError("scheduler is already running (re-entrant run)")
        self._running = True
        stats = RunStats()
        try:
            while self._heap:
                if max_events is not None and stats.events_processed >= max_events:
                    break
                ev = self._heap[0]
                if ev.cancelled:
                    heapq.heappop(self._heap)
                    ev.queued = False
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and ev.time > until:
                    break
                heapq.heappop(self._heap)
                ev.queued = False
                ev.fired = True
                self._live -= 1
                self._now = ev.time
                self.dispatch(ev)
                stats.events_processed += 1
            else:
                stats.exhausted = True
        finally:
            self._running = False
        if until is not None and stats.exhausted:
            self._now = max(self._now, until)
        stats.end_time = self._now
        return stats
