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
classifies each event once, when it is enqueued: *forced* events stay in
the heap, *choice* events go to a dict keyed by ``seq``, so neither
:meth:`Scheduler.next_forced` nor :meth:`Scheduler.choice_events`
rescans the other set, and :meth:`Scheduler.step` removes what it
dispatches.

An :class:`~repro.sim.events.Event` handle names one event for good:
cancelling a handle whose event already fired is inert, whatever has
been scheduled since.

The pre-refactor loop is retained beside the tests that use it as the
golden-determinism oracle (``tests/_reference_scheduler.py``, driven by
``tests/test_simcore_determinism.py``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from ..errors import SimulationError
from ..types import Time
from .events import Event, Payload, is_choice

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


def _canonical(events: Iterable[Event]) -> list[Event]:
    """The unblocked ``events`` by ``(time, seq)``, in a C tuple sort."""
    out = [(ev.time, ev.seq, ev) for ev in events
           if ev.after is None or ev.after.fired]
    out.sort()
    return [entry[2] for entry in out]


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
        self._choices: dict[int, Event] = {}  # controlled mode, by seq
        self._seq = 0
        self.now: Time = 0.0
        """The virtual clock, a plain attribute (read on every trace record
        and send); only the scheduler advances it."""
        self._live = 0
        self._dead_in_heap = 0
        self.compactions = 0
        self._running = False
        self.dispatch: Optional[Callable[[Event], None]] = None
        self.controlled = False
        """Controlled-schedule mode (bounded model checking), switched on by
        :meth:`enable_controlled`: the owner picks events with :meth:`step`.
        The clock only moves forward (``max`` over dispatched event times)
        and :meth:`schedule_at` clamps past times to *now* — an event
        dispatched "early" relative to its timestamp may leave the clock
        ahead of producers that compute absolute times."""

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
        yield from self._choices.values()

    # -- intake ------------------------------------------------------------

    def _enqueue(self, time: Time, payload: Payload,
                 after: Event | None) -> Event:
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, payload, after)
        if self.controlled and is_choice(payload):
            self._choices[seq] = ev
        else:
            heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def schedule(self, delay: float, payload: Payload,
                 after: Event | None = None) -> Event:
        """Enqueue ``payload`` to occur ``delay`` time units from now."""
        # a NaN fails this comparison too: it would sort arbitrarily in the
        # heap and become the clock when dispatched (``inf`` passes)
        if not delay >= 0:
            raise SimulationError(f"cannot schedule at delay {delay}")
        return self._enqueue(self.now + delay, payload, after)

    def schedule_at(self, time: Time, payload: Payload,
                    after: Event | None = None) -> Event:
        """Enqueue ``payload`` at absolute virtual time ``time``."""
        if not time >= self.now:
            if not (self.controlled and time < self.now):  # NaN raises here
                raise SimulationError(
                    f"cannot schedule at {time} (current time {self.now})"
                )
            # controlled mode dispatched some event "late" in virtual time;
            # absolute-time producers are clamped to now instead of rejected
            time = self.now
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
        if self.controlled and self._choices.pop(event.seq, None) is not None:
            event.queued = False  # a choice leaves its dict at once
            return
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
        choices too): payloads close over the owner. Counters survive."""
        self.dispatch = None
        self._heap.clear()
        self._choices.clear()
        self._live = self._dead_in_heap = 0

    # -- choice-point API (controlled-schedule mode) -----------------------

    def enable_controlled(self) -> None:
        """Switch to controlled mode: pending choices move to the choice
        dict, forced events stay in the heap, tombstones are dropped."""
        self.controlled = True
        forced = []
        for entry in self._heap:
            ev = entry[2]
            if ev.cancelled or not ev.queued:
                ev.queued = False
            elif is_choice(ev.payload):
                self._choices[ev.seq] = ev
            else:
                forced.append(entry)
        self._heap[:] = forced
        heapq.heapify(self._heap)
        self._dead_in_heap = 0

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

        The forced events and the choice events of controlled-schedule
        mode, merged: any of these could be dispatched next. Sorting (with
        the explicit seq tie-break events already carry) makes the
        enumeration bit-identical across processes and Python versions —
        schedule ids index into this canonical order, so replay
        determinism depends on it.

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
        return _canonical(self.iter_pending())

    def choice_events(self) -> list[Event]:
        """The choice events of :meth:`co_enabled`, in its order, read
        without touching the forced heap."""
        return _canonical(self._choices.values())

    def next_forced(self) -> Event | None:
        """The first forced event of :meth:`co_enabled`, or ``None``: the
        heap's top once its tombstones are popped."""
        heap = self._heap
        while heap and (heap[0][2].cancelled or not heap[0][2].queued):
            heapq.heappop(heap)[2].queued = False
            self._dead_in_heap -= 1
        if not heap:
            return None
        ev = heap[0][2]
        if ev.after is None or ev.after.fired:
            return ev
        # no producer chains forced events; a blocked top takes the full scan
        return next((e for e in self.co_enabled() if not is_choice(e.payload)), None)

    def step(self, ev: Event) -> None:
        """Dispatch exactly ``ev``, out of heap order (controlled mode).

        The clock advances to ``max(now, ev.time)`` — never backwards —
        because a controlled schedule may fire a logically-later event
        before a timestamp-earlier one (that is the point: the asynchronous
        adversary is not bound by the delays the producers happened to
        draw).

        A choice leaves its dict and the heap's top is popped; only a
        forced event stepped from below the top stays as a tombstone.
        """
        if self.dispatch is None:
            raise SimulationError("no dispatch function installed")
        if ev.cancelled or not ev.queued:
            raise SimulationError(f"cannot step a non-pending event {ev!r}")
        if self._choices.pop(ev.seq, None) is None:
            if self._heap and self._heap[0][2] is ev:
                heapq.heappop(self._heap)
            else:
                self._dead_in_heap += 1
        ev.queued = False
        ev.fired = True
        self._live -= 1
        self.now = max(self.now, ev.time)
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
                self.now = t
                dispatch(ev)
                processed += 1
        finally:
            self._running = False
            stats.events_processed = processed
        if until is not None and stats.exhausted:
            # Quiescent before the horizon: advance the clock to the horizon so
            # 'run until T' always ends at T regardless of queue contents.
            self.now = max(self.now, until)
        stats.end_time = self.now
        return stats
