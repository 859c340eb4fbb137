"""Deterministic discrete-event scheduler: keyed heap + hierarchical timer wheel.

Determinism contract (unchanged since the first version): given the same
seed and the same sequence of ``schedule`` calls, a run produces the
identical event order on any platform — there is no wall-clock anywhere
and ties break by creation order. Everything below is an *implementation*
of global ``(time, creation_seq)`` order, never a relaxation of it.

Three structural changes over the pre-refactor loop (retained in
:mod:`repro.sim._reference` as the golden-determinism oracle):

- **Keyed heap entries.** The heap stores ``(time, seq, Event)`` tuples,
  not events. ``seq`` is globally unique, so a comparison never reaches
  the event object — every sift and ``heapify`` runs entirely on C-level
  float/int tuple comparisons instead of one Python ``__lt__`` call per
  level. On a 10^5-element pending set that turns a ~30-call Python pop
  into a C operation; it is the single largest win on deep-queue runs.
- **A hierarchical timer wheel** for :class:`~repro.sim.events.TimerFire`
  payloads. Timer churn dominates long runs — retransmission layers and
  adaptive-timeout policies arm timers they almost always cancel before
  expiry. A wheel-parked timer costs one dict-bucket append to arm and an
  O(1) mark to cancel; a cancelled timer evaporates when its bucket
  drains, having never touched the heap or a compaction pass. The wheel
  never dispatches: buckets whose time window the run loop is about to
  enter are drained *into the heap first* (events keep their original
  ``(time, seq)`` keys), so the heap top is the true global minimum at
  every dispatch — bit-identical order with the reference, property-
  tested in ``tests/test_simcore_determinism.py``.
- **A bounded free-list** recycling ``TimerFire`` event slots after
  dispatch (or tombstone sweep), sparing allocator/GC traffic on
  timer-heavy runs. Only timer events are recycled: their single external
  reference — the owning :class:`~repro.sim.runner.Simulation`'s timer
  table — is dropped before any user code runs, whereas callback/delivery
  events may be retained by producers (the SRB oracle chains them via
  ``after``) and must keep their identity forever. Consequence: a raw
  ``Event`` handle for a *timer* is invalidated once that timer fires or
  its tombstone is swept (the slot may already be a different event);
  cancel timers through ``Simulation.cancel_timer``, which tracks
  liveness. Cancel-after-fire on retained non-timer events stays inert
  exactly as before.

Controlled-schedule mode (bounded model checking) bypasses both the wheel
and the free-list: schedule ids index canonical ``co_enabled`` order and
must replay against byte-stable event identities, so timers go straight
to the heap and nothing is recycled there.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from ..errors import SimulationError
from ..types import Time
from .events import Event, Payload, TimerFire

_INF = math.inf


@dataclass(slots=True)
class RunStats:
    """Summary of one scheduler run segment. Every field is a pure function
    of the seed, so two runs claimed identical compare with ``==``."""

    events_processed: int = 0
    end_time: Time = 0.0
    exhausted: bool = False
    """True when the queue emptied (quiescence) rather than hitting a limit."""
    timer_wheel_hits: int = 0
    """Timers routed through the wheel during this segment (bucketed
    instead of heap-pushed) — deterministic for a fixed seed."""
    freelist_reuses: int = 0
    """Events allocated from the free-list during this segment instead of
    freshly — deterministic for a fixed seed."""
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


class _TimerWheel:
    """Sparse hierarchical timer wheel over virtual (float) time.

    Three tiers of slot granularity ``base``, ``base*fanout``,
    ``base*fanout²``; a timer lands in the finest tier whose horizon
    (``fanout`` slots) covers its distance from *now* at insert time.
    Buckets are plain lists in insertion order, keyed by the single int
    ``(slot << 2) | tier`` — int dict keys hash for free, and the whole
    arm path is one if-chain, one division, one ``dict.get`` and one
    ``list.append`` (inlined in :meth:`Scheduler._enqueue`; it is the
    hottest code in timer-heavy runs). A mini-heap of
    ``(window_start, key)`` pairs tracks
    un-drained buckets, and ``next_start`` caches the earliest window so
    the run loop's per-dispatch merge check is one attribute read.

    Draining moves a bucket's surviving events into the caller's keyed
    heap (tombstones are swept without ever touching it); events carry
    their original ``(time, seq)`` keys so the merged order is exact. A
    bucket is drained once its *window start* reaches the dispatch
    candidate's time — events later in the window enter the heap a little
    early, which costs a few C comparisons but can never reorder anything.
    """

    __slots__ = ("base", "fanout", "h0", "h1", "g1", "g2", "buckets",
                 "bucket_heap", "next_start", "live", "tombstones")

    def __init__(self, base: float, fanout: int) -> None:
        self.base = base
        self.fanout = fanout
        self.h0 = base * fanout  # tier-0 horizon
        self.g1 = base * fanout  # tier-1 granularity
        self.h1 = self.g1 * fanout
        self.g2 = self.g1 * fanout  # tier-2 granularity (unbounded horizon)
        self.buckets: dict[int, list[Event]] = {}
        self.bucket_heap: list[tuple[float, int]] = []
        self.next_start = math.inf
        self.live = 0
        self.tombstones = 0

    def _refresh_next_start(self) -> None:
        heap = self.bucket_heap
        buckets = self.buckets
        while heap:
            start, key = heap[0]
            if key in buckets:
                self.next_start = start
                return
            heapq.heappop(heap)  # stale key left by a compaction rebuild
        self.next_start = math.inf

    def drain_next(self, heap: list[tuple[float, int, Event]],
                   freelist: "_FreeList") -> None:
        """Move the earliest bucket's survivors into the keyed ``heap``.

        Bulk transfer: survivors are appended and the heap re-heapified in
        one C call rather than sifted in one ``heappush`` at a time — a
        draining bucket is usually the same order of magnitude as the
        near-horizon heap it joins, where O(n) ``heapify`` beats k
        O(log n) pushes outright.
        """
        while True:
            _start, key = heapq.heappop(self.bucket_heap)
            bucket = self.buckets.pop(key, None)
            if bucket is not None:
                break
        if self.tombstones:
            survivors: list[tuple[float, int, Event]] = []
            keep = survivors.append
            for ev in bucket:
                ev.in_wheel = False
                if ev.cancelled or not ev.queued:
                    self.tombstones -= 1
                    ev.queued = False
                    freelist.release(ev)
                else:
                    keep((ev.time, ev.seq, ev))
        else:
            for ev in bucket:
                ev.in_wheel = False
            survivors = [(ev.time, ev.seq, ev) for ev in bucket]
        self.live -= len(survivors)
        heap.extend(survivors)
        heapq.heapify(heap)  # C tuple comparisons
        self._refresh_next_start()

    def compact(self, freelist: "_FreeList") -> None:
        """Sweep tombstones out of every bucket in place (O(wheel),
        amortized O(1) per cancellation — the wheel-side analog of heap
        compaction).

        Buckets are filtered, never re-keyed: an event's slot key is a
        pure function of its (immutable) time, so surviving events stay
        exactly where they are and the sweep costs one list rebuild per
        bucket instead of a tier-math insert per survivor. Emptied buckets
        drop out of the dict; their ``bucket_heap`` entries go stale and
        are skipped lazily by :meth:`_refresh_next_start` / :meth:`drain_next`.
        """
        live = 0
        release = freelist.release
        for key, bucket in list(self.buckets.items()):
            keep = []
            ap = keep.append
            for ev in bucket:
                if ev.cancelled or not ev.queued:
                    ev.queued = False
                    ev.in_wheel = False
                    release(ev)
                else:
                    ap(ev)
            if keep:
                self.buckets[key] = keep
                live += len(keep)
            else:
                del self.buckets[key]
        self.live = live
        self.tombstones = 0
        self._refresh_next_start()

    def events(self) -> Iterator[Event]:
        """Every live event still parked in the wheel, unordered."""
        for bucket in self.buckets.values():
            for ev in bucket:
                if ev.queued and not ev.cancelled:
                    yield ev


class _FreeList:
    """Bounded pool of recycled ``TimerFire`` event slots.

    The acquire side lives inlined in :meth:`Scheduler._enqueue` (the arm
    path is too hot for a method call); this class owns the pool, the
    release-side filtering, and the reuse counter.
    """

    __slots__ = ("slots", "max_size", "reuses")

    def __init__(self, max_size: int) -> None:
        self.slots: list[Event] = []
        self.max_size = max_size
        self.reuses = 0

    def release(self, ev: Event) -> None:
        """Pool ``ev``'s slot if it is a (dead) timer and there is room."""
        if type(ev.payload) is TimerFire and len(self.slots) < self.max_size:
            ev.payload = None  # type: ignore[assignment] — drop the refs now
            ev.after = None
            ev.in_wheel = False
            self.slots.append(ev)


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
    #: wheel tombstones likewise ride for free below this population
    COMPACT_MIN_WHEEL = 256
    #: timer-wheel geometry: tier k buckets span WHEEL_BASE * WHEEL_FANOUT**k
    #: time units; from a 1-unit finest slot the three tiers bracket every
    #: delay the protocol stacks draw (RTT-scale retransmits through
    #: multi-hundred-unit GST recovery timers)
    WHEEL_BASE = 1.0
    WHEEL_FANOUT = 32
    #: recycled-event pool bound — wheel buckets release their swept
    #: tombstones in per-window bursts, so the pool must hold a full
    #: window's worth of churn to keep the arm path allocation-free
    #: (~1 MB of Event slots at the bound; still trivial for memory)
    FREELIST_MAX = 8192

    def __init__(self) -> None:
        # heap entries are (time, seq, Event): seq is unique, so heap
        # comparisons stay in C and never call Event.__lt__
        self._heap: list[tuple[float, int, Event]] = []
        self._wheel = _TimerWheel(self.WHEEL_BASE, self.WHEEL_FANOUT)
        self._freelist = _FreeList(self.FREELIST_MAX)
        self._seq = 0
        self._now: Time = 0.0
        self._live = 0
        self._dead_in_heap = 0
        self.compactions = 0
        self.wheel_compactions = 0
        self.timer_wheel_hits = 0
        self._running = False
        self.dispatch: Optional[Callable[[Event], None]] = None
        self.controlled = False
        """Controlled-schedule mode (bounded model checking): the owner
        picks events with :meth:`step` instead of :meth:`run` popping heap
        order. The clock only moves forward (``max`` over dispatched event
        times) and :meth:`schedule_at` clamps past times to *now* — an
        event dispatched "early" relative to its timestamp may leave the
        clock ahead of producers that compute absolute times. The timer
        wheel and the free-list are bypassed in this mode: schedule-id
        replay depends on stable event identities and a single canonical
        pending set."""

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

    @property
    def freelist_reuses(self) -> int:
        """Events allocated from the recycled pool instead of freshly."""
        return self._freelist.reuses

    def iter_pending(self) -> Iterator[Event]:
        """Every live (pending, not cancelled) event, unordered.

        The diagnostic view across both storage tiers — recounts and
        invariant checks must use this rather than poking at ``_heap``,
        which holds neither parked timers nor only-live entries.
        """
        for _t, _s, ev in self._heap:
            if ev.queued and not ev.cancelled:
                yield ev
        yield from self._wheel.events()

    # -- intake ------------------------------------------------------------

    def _enqueue(self, time: Time, payload: Payload,
                 after: Event | None) -> Event:
        # The arm path is the hottest code in timer-heavy runs (several
        # schedules per dispatch), so the free-list acquire and the wheel
        # insert are inlined here rather than called: the method-dispatch
        # overhead alone is a measurable fraction of a bucket append.
        seq = self._seq
        self._seq = seq + 1
        if not self.controlled:
            fl = self._freelist
            slots = fl.slots
            if slots:
                # recycled slot: release() cleared payload/after/in_wheel,
                # so only the live fields need re-initializing
                ev = slots.pop()
                ev.time = time
                ev.seq = seq
                ev.payload = payload
                ev.cancelled = False
                ev.queued = True
                ev.fired = False
                ev.after = after
                fl.reuses += 1
            else:
                ev = Event(time=time, seq=seq, payload=payload, after=after)
            if type(payload) is TimerFire and time != _INF:
                wheel = self._wheel
                dt = time - self._now
                if dt < wheel.h0:
                    g = wheel.base
                    tier = 0
                elif dt < wheel.h1:
                    g = wheel.g1
                    tier = 1
                else:
                    g = wheel.g2
                    tier = 2
                slot = int(time / g)
                key = (slot << 2) | tier
                bucket = wheel.buckets.get(key)
                if bucket is None:
                    bucket = wheel.buckets[key] = []
                    start = slot * g
                    heapq.heappush(wheel.bucket_heap, (start, key))
                    if start < wheel.next_start:
                        wheel.next_start = start
                bucket.append(ev)
                wheel.live += 1
                ev.in_wheel = True
                self.timer_wheel_hits += 1
                self._live += 1
                return ev
        else:
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

        Wheel-parked timers evaporate when their bucket drains — no heap
        tombstone, no compaction share, which is the wheel's whole win on
        cancel-heavy workloads. Heap tombstones are usually drained lazily
        by :meth:`run`, but cancel-heavy non-timer load can still
        accumulate far-future tombstones that never reach the top — so
        once dead entries outnumber live ones (and the structure is past
        its ``COMPACT_MIN_*`` floor) the heap or wheel is compacted in
        place: O(n) rebuild, amortized O(1) per cancellation, keeping each
        structure within 2x its live population.
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
        if event.in_wheel:
            wheel = self._wheel
            wheel.live -= 1
            wheel.tombstones += 1
            size = wheel.live + wheel.tombstones
            if size > self.COMPACT_MIN_WHEEL and wheel.tombstones * 2 > size:
                wheel.compact(self._freelist)
                self.wheel_compactions += 1
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
        release = self._freelist.release
        live = []
        for entry in self._heap:
            ev = entry[2]
            if ev.cancelled or not ev.queued:
                ev.queued = False
                release(ev)
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
        self._wheel = _TimerWheel(self.WHEEL_BASE, self.WHEEL_FANOUT)
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
        for ev in self._wheel.events():
            if not (ev.after is not None and not ev.after.fired):
                out.append((ev.time, ev.seq, ev))
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
        if ev.in_wheel:
            self._wheel.live -= 1
            self._wheel.tombstones += 1
        else:
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
        ``until``/``max_events`` sentinels, the free-list release inlined —
        because at 10^6 events every attribute load in here is a visible
        slice of wall clock.
        """
        if self.dispatch is None:
            raise SimulationError("no dispatch function installed")
        if self._running:
            raise SimulationError("scheduler is already running (re-entrant run)")
        self._running = True
        stats = RunStats()
        wheel_hits0 = self.timer_wheel_hits
        reuses0 = self._freelist.reuses
        heap = self._heap
        wheel = self._wheel
        freelist = self._freelist
        fslots = freelist.slots
        fmax = freelist.max_size
        release = freelist.release
        heappop = heapq.heappop
        dispatch = self.dispatch
        horizon = _INF if until is None else until
        limit = math.inf if max_events is None else max_events
        processed = 0
        try:
            while processed < limit:
                if heap:
                    t, _seq, ev = heap[0]
                    ns = wheel.next_start
                    if ns <= t and ns <= horizon:
                        # merge point: a wheel bucket's window could hold
                        # an event at or before the heap candidate
                        wheel.drain_next(heap, freelist)
                        continue
                    if ev.cancelled or not ev.queued:
                        heappop(heap)
                        ev.queued = False
                        self._dead_in_heap -= 1
                        release(ev)
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
                    # inline freelist.release (the per-dispatch fast path)
                    payload = ev.payload
                    if type(payload) is TimerFire and len(fslots) < fmax:
                        ev.payload = None  # type: ignore[assignment]
                        ev.after = None
                        ev.in_wheel = False
                        fslots.append(ev)
                else:
                    ns = wheel.next_start
                    if ns <= horizon and ns != _INF:
                        wheel.drain_next(heap, freelist)
                        continue
                    if not wheel.live:
                        stats.exhausted = True
                    break  # the wheel holds only post-``until`` timers
        finally:
            self._running = False
            stats.events_processed = processed
        if until is not None and stats.exhausted:
            # Quiescent before the horizon: advance the clock to the horizon so
            # 'run until T' always ends at T regardless of queue contents.
            self._now = max(self._now, until)
        stats.end_time = self._now
        stats.timer_wheel_hits = self.timer_wheel_hits - wheel_hits0
        stats.freelist_reuses = self._freelist.reuses - reuses0
        return stats
