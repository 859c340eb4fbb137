"""Deterministic discrete-event scheduler: one keyed heap.

Determinism contract (unchanged since the first version): given the same
seed and the same sequence of ``schedule`` calls, a run produces the
identical event order on any platform — there is no wall-clock anywhere
and ties break by creation order. Everything below is an *implementation*
of global ``(time, creation_seq)`` order, never a relaxation of it.

Every pending event — delivery, timer, shared-memory step, callback —
sits in one binary heap of ``(time, seq, Event)`` tuples. ``seq`` is
globally unique, so a comparison never reaches the event object: every
sift and ``heapify`` runs entirely on C-level float/int tuple comparisons
instead of one Python ``__lt__`` call per level.

Removal is by marking. ``cancel`` flags the event and leaves it in the
heap as a tombstone that :meth:`Scheduler.run` pops and skips when it
reaches the top; once tombstones outnumber live entries the heap is
compacted in place. Controlled-schedule mode (bounded model checking)
uses the same heap: :meth:`Scheduler.step` dispatches an event out of
order by marking it, leaving it to be swept the same way.

An :class:`~repro.sim.events.Event` handle names one event for good:
cancelling a handle whose event already fired is inert, whatever has
been scheduled since.

The pre-refactor loop is retained in :mod:`repro.sim._reference` as the
golden-determinism oracle (``tests/test_simcore_determinism.py``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from ..errors import SimulationError
from ..types import Time
from .events import Event, Payload

_INF = math.inf


@dataclass(slots=True)
class RunStats:
    """Summary of one scheduler run segment. Every field is a pure function
    of the seed, so two runs claimed identical compare with ``==``."""

    events_processed: int = 0
    end_time: Time = 0.0
    exhausted: bool = False
    """True when the queue emptied (quiescence) rather than hitting a limit."""
    consensus: Optional[dict] = None
    """Aggregated replication-pipeline counters (batches flushed, proposal
    stalls, window occupancy, noop slots, batch-size histogram), merged by
    the runner over every hosted process exposing ``consensus_stats()``.
    ``None`` when no process does. Deterministic for a fixed seed."""
    service: Optional[dict] = None
    """Aggregated serving-layer counters (queue depth peaks, admitted /
    shed / degraded-mode tallies), summed by the runner over every hosted
    process exposing ``service_stats()``. ``None`` when no process does.
    Counter values are pure functions of the seed, so the dict belongs in
    the deterministic fields."""


class Scheduler:
    """Event queue with virtual time.

    The owner installs a ``dispatch`` callable that interprets event
    payloads; the scheduler itself knows nothing about processes or
    networks, which keeps it reusable for both the message-passing and
    shared-memory layers.
    """

    #: lazily-deleted events never trigger compaction below this heap size —
    #: small heaps drain their tombstones through normal pops for free
    COMPACT_MIN_HEAP = 128

    # Counters of the timer wheel and event pool this loop no longer has,
    # always 0: their only reader is benchmarks/e2e/workloads.py:113-115.
    timer_wheel_hits = freelist_reuses = wheel_compactions = 0

    def __init__(self) -> None:
        # heap entries are (time, seq, Event): seq is unique, so heap
        # comparisons stay in C and never call Event.__lt__
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._now: Time = 0.0
        self._live = 0
        self._dead_in_heap = 0
        self.compactions = 0
        self._running = False
        self.dispatch: Optional[Callable[[Event], None]] = None
        self.controlled = False
        """Controlled-schedule mode (bounded model checking): the owner
        picks events with :meth:`step` instead of :meth:`run` popping heap
        order. The clock only moves forward (``max`` over dispatched event
        times) and :meth:`schedule_at` clamps past times to *now* — an
        event dispatched "early" relative to its timestamp may leave the
        clock ahead of producers that compute absolute times."""

    @property
    def now(self) -> Time:
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-dispatched, not-cancelled events.

        A live counter maintained by ``schedule``/``cancel``/``run`` — O(1),
        never a recount (long chaos runs poll this in hot loops).
        """
        return self._live

    def iter_pending(self) -> Iterator[Event]:
        """Every live (pending, not cancelled) event, unordered.

        Recounts and invariant checks must use this rather than poking at
        ``_heap``, which also holds tombstones.
        """
        for _t, _s, ev in self._heap:
            if ev.queued and not ev.cancelled:
                yield ev

    # -- intake ------------------------------------------------------------

    def _enqueue(self, time: Time, payload: Payload,
                 after: Event | None) -> Event:
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time=time, seq=seq, payload=payload, after=after)
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def schedule(self, delay: float, payload: Payload,
                 after: Event | None = None) -> Event:
        """Enqueue ``payload`` to occur ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._enqueue(self._now + delay, payload, after)

    def schedule_at(self, time: Time, payload: Payload,
                    after: Event | None = None) -> Event:
        """Enqueue ``payload`` at absolute virtual time ``time``."""
        if time < self._now:
            if not self.controlled:
                raise SimulationError(
                    f"cannot schedule at {time} before current time {self._now}"
                )
            # controlled mode dispatched some event "late" in virtual time;
            # absolute-time producers are clamped to now instead of rejected
            time = self._now
        return self._enqueue(time, payload, after)

    # -- cancellation ------------------------------------------------------

    def cancel(self, event: Event) -> None:
        """Mark an event so it is skipped when reached (O(1) cancellation).

        Tombstones are usually drained lazily by :meth:`run`, but
        cancel-heavy load can accumulate far-future tombstones that never
        reach the top — so once dead entries outnumber live ones (and the
        heap is past ``COMPACT_MIN_HEAP``) the heap is compacted in place:
        O(n) rebuild, amortized O(1) per cancellation, keeping the heap
        within 2x its live population.
        """
        if event.cancelled:
            return
        event.cancelled = True
        if not event.queued:
            # cancel-after-fire: the event already dispatched (or was
            # swept), so there is no tombstone to count and the removal
            # already decremented the live counter
            return
        self._live -= 1
        self._dead_in_heap += 1
        if (
            len(self._heap) > self.COMPACT_MIN_HEAP
            and self._dead_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without tombstones (event order is unaffected:
        the surviving events carry their original (time, seq) keys).

        Mutates the list in place rather than rebinding ``self._heap``:
        ``run`` works through a local alias, and a cancel issued *inside a
        dispatch callback* can land here mid-run — rebinding would leave
        the loop draining a stale list."""
        live = []
        for entry in self._heap:
            ev = entry[2]
            if ev.cancelled or not ev.queued:
                ev.queued = False
            else:
                live.append(entry)
        self._heap[:] = live
        heapq.heapify(self._heap)  # C tuple comparisons throughout
        self._dead_in_heap = 0
        self.compactions += 1

    def close(self) -> None:
        """Drop the dispatch hook and every queued event (controlled-mode
        tombstones too): payloads close over the owner. Counters survive."""
        self.dispatch = None
        self._heap.clear()
        self._live = self._dead_in_heap = 0

    # -- choice-point API (controlled-schedule mode) -----------------------

    @property
    def next_seq(self) -> int:
        """The seq the next scheduled event will get.

        The model checker snapshots this around a dispatch to identify the
        events that dispatch created (their causal parents for the
        happens-before relation).
        """
        return self._seq

    def co_enabled(self) -> list[Event]:
        """Every pending, unblocked event, sorted by ``(time, seq)``.

        The *choice set* of controlled-schedule mode: any of these could be
        dispatched next. Sorting (with the explicit seq tie-break events
        already carry) makes the enumeration bit-identical across
        processes and Python versions — schedule ids index into this
        canonical order, so replay determinism depends on it.

        An event chained behind a predecessor (``after``) is excluded
        until the predecessor has *fired*. A predecessor cancelled before
        firing therefore blocks its successors **forever**: the chain
        models a producer's ordering guarantee ("never deliver #k before
        #k-1"), and a schedule in which #k-1 can no longer happen has no
        valid position for #k — unblocking it would let the model checker
        explore deliveries the real producer could never emit. (In
        practice a chain head is only cancelled when its target crashed,
        which cancels the successors too; blocked-forever is the safe
        default for any future producer that cancels mid-chain.)
        """
        out = [
            entry
            for entry in self._heap
            if entry[2].queued
            and not entry[2].cancelled
            and not (entry[2].after is not None and not entry[2].after.fired)
        ]
        out.sort()  # C tuple sort; never reaches the Event
        return [entry[2] for entry in out]

    def step(self, ev: Event) -> None:
        """Dispatch exactly ``ev``, out of heap order (controlled mode).

        The clock advances to ``max(now, ev.time)`` — never backwards —
        because a controlled schedule may fire a logically-later event
        before a timestamp-earlier one (that is the point: the asynchronous
        adversary is not bound by the delays the producers happened to
        draw).

        Mark-and-skip: the event is flagged dispatched and left in place
        as a tombstone for lazy sweeping, replacing the old
        ``heap.remove`` + full ``heapify`` pair that made deep controlled
        explorations quadratic in heap size.
        """
        if self.dispatch is None:
            raise SimulationError("no dispatch function installed")
        if ev.cancelled or not ev.queued:
            raise SimulationError(f"cannot step a non-pending event {ev!r}")
        ev.queued = False
        ev.fired = True
        self._live -= 1
        self._dead_in_heap += 1
        self._now = max(self._now, ev.time)
        self.dispatch(ev)

    # -- main loop ---------------------------------------------------------

    def run(
        self,
        until: Time | None = None,
        max_events: int | None = None,
    ) -> RunStats:
        """Dispatch events in order until quiescence, ``until``, or ``max_events``.

        Events with time strictly greater than ``until`` stay queued (a
        subsequent ``run`` may continue). Re-entrant calls are rejected.

        The loop body is deliberately flat — bound locals, hoisted
        ``until``/``max_events`` sentinels — because at 10^6 events every
        attribute load in here is a visible slice of wall clock.
        """
        if self.dispatch is None:
            raise SimulationError("no dispatch function installed")
        if self._running:
            raise SimulationError("scheduler is already running (re-entrant run)")
        self._running = True
        stats = RunStats()
        heap = self._heap
        heappop = heapq.heappop
        dispatch = self.dispatch
        horizon = _INF if until is None else until
        limit = _INF if max_events is None else max_events
        processed = 0
        try:
            while processed < limit:
                if not heap:
                    stats.exhausted = True
                    break
                t, _seq, ev = heap[0]
                if ev.cancelled or not ev.queued:
                    heappop(heap)
                    ev.queued = False
                    self._dead_in_heap -= 1
                    continue
                if t > horizon:
                    break
                heappop(heap)
                ev.queued = False
                ev.fired = True
                self._live -= 1
                self._now = t
                dispatch(ev)
                processed += 1
        finally:
            self._running = False
            stats.events_processed = processed
        if until is not None and stats.exhausted:
            # Quiescent before the horizon: advance the clock to the horizon so
            # 'run until T' always ends at T regardless of queue contents.
            self._now = max(self._now, until)
        stats.end_time = self._now
        return stats
