"""Tests for the discrete-event scheduler."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim.events import (
    Callback,
    MessageDeliver,
    OpLinearize,
    OpRespond,
    TimerFire,
)
from repro.sim.scheduler import Scheduler

NAN = math.nan


def make_scheduler(log):
    s = Scheduler()
    s.dispatch = lambda ev: log.append((ev.time, ev.payload.label))
    return s


class TestOrdering:
    def test_time_order(self):
        log = []
        s = make_scheduler(log)
        s.schedule(2.0, Callback(fn=lambda: None, label="b"))
        s.schedule(1.0, Callback(fn=lambda: None, label="a"))
        s.run()
        assert [l for _, l in log] == ["a", "b"]

    def test_fifo_tiebreak_at_same_time(self):
        log = []
        s = make_scheduler(log)
        for i in range(5):
            s.schedule(1.0, Callback(fn=lambda: None, label=f"e{i}"))
        s.run()
        assert [l for _, l in log] == [f"e{i}" for i in range(5)]

    def test_clock_advances_to_event_times(self):
        s = Scheduler()
        times = []
        s.dispatch = lambda ev: times.append(s.now)
        s.schedule(3.5, Callback(fn=lambda: None))
        s.schedule(1.25, Callback(fn=lambda: None))
        s.run()
        assert times == [1.25, 3.5]

    def test_schedule_at_absolute(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        s.schedule_at(10.0, Callback(fn=lambda: None))
        stats = s.run()
        assert stats.end_time == 10.0


class TestLimits:
    def test_until_leaves_future_events(self):
        log = []
        s = make_scheduler(log)
        s.schedule(1.0, Callback(fn=lambda: None, label="early"))
        s.schedule(5.0, Callback(fn=lambda: None, label="late"))
        stats = s.run(until=2.0)
        assert [l for _, l in log] == ["early"]
        assert not stats.exhausted
        assert s.pending == 1
        s.run()
        assert [l for _, l in log] == ["early", "late"]

    def test_until_advances_clock_when_quiescent(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        stats = s.run(until=42.0)
        assert stats.exhausted and s.now == 42.0

    def test_max_events(self):
        log = []
        s = make_scheduler(log)
        for i in range(10):
            s.schedule(float(i), Callback(fn=lambda: None, label=str(i)))
        stats = s.run(max_events=3)
        assert stats.events_processed == 3
        assert len(log) == 3


class TestCancellation:
    def test_cancelled_event_skipped(self):
        log = []
        s = make_scheduler(log)
        ev = s.schedule(1.0, Callback(fn=lambda: None, label="cancel-me"))
        s.schedule(2.0, Callback(fn=lambda: None, label="keep"))
        s.cancel(ev)
        s.run()
        assert [l for _, l in log] == ["keep"]

    def test_pending_ignores_cancelled(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        ev = s.schedule(1.0, Callback(fn=lambda: None))
        assert s.pending == 1
        s.cancel(ev)
        assert s.pending == 0

    def test_double_cancel_counts_once(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        ev = s.schedule(1.0, Callback(fn=lambda: None))
        s.schedule(2.0, Callback(fn=lambda: None))
        s.cancel(ev)
        s.cancel(ev)
        assert s.pending == 1

    def test_pending_tracks_dispatch_and_cancel_through_run(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        evs = [s.schedule(float(i + 1), Callback(fn=lambda: None)) for i in range(5)]
        assert s.pending == 5
        s.cancel(evs[3])
        assert s.pending == 4
        s.run(until=2.0)  # dispatches t=1 and t=2
        assert s.pending == 2
        s.run()
        assert s.pending == 0

    def test_cancel_after_fire_is_inert(self):
        # cancelling an already-dispatched event must not decrement the
        # live counter again or count a tombstone that is not in the heap
        log = []
        s = make_scheduler(log)
        fired = [
            s.schedule(float(i), Callback(fn=lambda: None, label=f"e{i}"))
            for i in range(5)
        ]
        s.schedule(10.0, Callback(fn=lambda: None, label="live"))
        s.run(until=6.0)
        assert s.pending == 1
        for ev in fired:
            s.cancel(ev)
            s.cancel(ev)
        assert s.pending == 1
        assert s._dead_in_heap == 0
        s.run()
        assert [l for _, l in log][-1] == "live"

    def test_cancel_after_fire_no_spurious_compaction(self):
        # a storm of cancel-after-fire calls over a large heap used to
        # inflate the tombstone count past the compaction threshold and
        # trigger O(n) rebuilds of a heap that holds no tombstones at all
        s = Scheduler()
        s.dispatch = lambda ev: None
        fired = [s.schedule(0.0, Callback(fn=lambda: None)) for _ in range(400)]
        for _ in range(200):
            s.schedule(5.0, Callback(fn=lambda: None))
        s.run(until=1.0)
        for ev in fired:
            s.cancel(ev)
        assert s.compactions == 0
        assert s.pending == 200
        assert len(s._heap) == 200

    def test_fired_timer_handle_cannot_cancel_a_later_timer(self):
        # a handle names one event for good: once ``a`` has fired, no later
        # event may come back under it, so cancelling ``a`` touches nothing
        fired = []
        s = Scheduler()
        s.dispatch = lambda ev: fired.append(ev.payload.tag)
        a = s.schedule(1.0, TimerFire(pid=0, tag="a", timer_id=0))
        s.run()
        b = s.schedule(1.0, TimerFire(pid=0, tag="b", timer_id=1))
        s.cancel(a)
        assert b is not a and not b.cancelled
        s.run()
        assert fired == ["a", "b"]


class TestMisuse:
    def test_negative_delay(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        with pytest.raises(SimulationError):
            s.schedule(-1.0, Callback(fn=lambda: None))

    def test_schedule_in_past(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        s.schedule(5.0, Callback(fn=lambda: None))
        s.run()
        with pytest.raises(SimulationError):
            s.schedule_at(1.0, Callback(fn=lambda: None))

    def test_no_dispatch_installed(self):
        s = Scheduler()
        with pytest.raises(SimulationError):
            s.run()

    def test_reentrant_run_rejected(self):
        s = Scheduler()

        def dispatch(ev):
            with pytest.raises(SimulationError):
                s.run()

        s.dispatch = dispatch
        s.schedule(1.0, Callback(fn=lambda: None))
        s.run()

    def test_events_scheduled_during_dispatch_run(self):
        log = []
        s = Scheduler()

        def dispatch(ev):
            log.append(ev.payload.label)
            if ev.payload.label == "first":
                s.schedule(1.0, Callback(fn=lambda: None, label="second"))

        s.dispatch = dispatch
        s.schedule(1.0, Callback(fn=lambda: None, label="first"))
        s.run()
        assert log == ["first", "second"]


class TestHeapCompaction:
    """Cancel-heavy load must not let tombstones pile up in the heap."""

    def test_heap_bounded_under_mass_cancellation(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        evs = [s.schedule(float(i + 1), Callback(fn=lambda: None))
               for i in range(10_000)]
        for ev in evs[100:]:  # cancel 9900 far-future events
            s.cancel(ev)
        # compaction keeps the heap within 2x the live count (plus the
        # small-heap floor below which lazy deletion is cheaper)
        assert s.pending == 100
        assert len(s._heap) <= max(2 * s.pending, Scheduler.COMPACT_MIN_HEAP)
        assert s.compactions >= 1
        s.run()
        assert s.pending == 0 and len(s._heap) == 0

    def test_small_heaps_never_compact(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        evs = [s.schedule(float(i + 1), Callback(fn=lambda: None))
               for i in range(Scheduler.COMPACT_MIN_HEAP)]
        for ev in evs:
            s.cancel(ev)
        assert s.compactions == 0  # drained lazily by run() instead
        s.run()
        assert s.pending == 0 and len(s._heap) == 0

    def test_order_and_pending_survive_compaction(self):
        log = []
        s = Scheduler()
        s.dispatch = lambda ev: log.append(ev.payload.label)
        keep, drop = [], []
        for i in range(1_000):
            ev = s.schedule(float(i + 1), Callback(fn=lambda: None, label=i))
            (keep if i % 10 == 0 else drop).append(ev)
        for ev in drop:
            s.cancel(ev)
        assert s.compactions >= 1
        assert s.pending == len(keep)
        s.run()
        assert log == sorted(ev.payload.label for ev in keep)

    def test_interleaved_cancel_and_dispatch(self):
        # compaction while run() is also draining tombstones lazily: the
        # two bookkeeping paths must agree on the tombstone count
        s = Scheduler()
        cancelled = []
        evs = {}

        def dispatch(ev):
            i = ev.payload.label
            victim = evs.pop(i + 500, None)
            if victim is not None and not victim.cancelled:
                s.cancel(victim)
                cancelled.append(victim)

        s.dispatch = dispatch
        for i in range(2_000):
            evs[i] = s.schedule(float(i + 1), Callback(fn=lambda: None, label=i))
        stats = s.run()
        assert stats.exhausted
        assert s.pending == 0 and len(s._heap) == 0
        assert stats.events_processed == 2_000 - len(cancelled)


class TestControlledModeLeavesNoTombstones:
    """Controlled mode keeps forced events in the heap and choices in a dict;
    stepping or cancelling either leaves nothing behind to rescan."""

    def test_stepped_and_cancelled_events_leave_both_sets(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        early = [s.schedule(float(i), TimerFire(pid=0, tag=i, timer_id=i))
                 for i in range(20)]
        s.cancel(early[0])
        s.enable_controlled()
        assert len(s._heap) == 0 and len(s._choices) == 19
        forced = [s.schedule(float(i), Callback(fn=lambda: None))
                  for i in range(20)]
        s.cancel(forced[5])
        s.cancel(early[1])
        while (ev := s.next_forced()) is not None:
            s.step(ev)
        assert s._heap == [] and s._dead_in_heap == 0
        while choices := s.choice_events():
            s.step(choices[-1])
        assert s._choices == {} and s.pending == 0
        assert sum(ev.fired for ev in early + forced) == 40 - 3


class TestPendingUnderRestartStorms:
    """``pending`` is an O(1) live counter; crash/restart cycles cancel
    timers wholesale and must keep it consistent with the heap."""

    def _recount(self, sim):
        # iter_pending skips the heap's tombstones
        return sum(1 for _ in sim.scheduler.iter_pending())

    def test_counter_matches_heap_after_repeated_crash_restart(self):
        from repro.sim import Process, ReliableAsynchronous, Simulation

        class Noisy(Process):
            """Keeps several overlapping timers and chatters constantly."""

            def on_start(self):
                for k in range(1, 4):
                    self.ctx.set_timer(float(k), ("tick", k))

            def on_timer(self, tag):
                k = tag[1]
                self.ctx.broadcast(("noise", self.pid), include_self=False)
                self.ctx.set_timer(float(k), tag)

            def on_message(self, src, msg):
                pass

        procs = [Noisy() for _ in range(4)]
        sim = Simulation(procs, ReliableAsynchronous(0.05, 0.4), seed=31)
        # a storm: every process cycles through crash/restart repeatedly,
        # with windows overlapping across processes
        for pid in range(4):
            for k in range(5):
                sim.crash_at(pid, 3.0 + 7.0 * k + pid)
                sim.restart_at(pid, 6.0 + 7.0 * k + pid, factory=Noisy)
        sim.run(until=60.0)
        assert sim.scheduler.pending == self._recount(sim)
        # every process ended alive: its repeating timers must be pending
        assert not sim.crashed_pids
        assert sim.scheduler.pending > 0

    def test_no_orphaned_timers_for_dead_incarnations(self):
        from repro.sim import Process, ReliableAsynchronous, Simulation

        class SlowTimer(Process):
            def on_start(self):
                self.ctx.set_timer(100.0, "slow")  # outlives every crash below

        procs = [SlowTimer(), SlowTimer()]
        sim = Simulation(procs, ReliableAsynchronous(), seed=32)
        for k in range(3):
            sim.crash_at(0, 1.0 + 2.0 * k)
            sim.restart_at(0, 2.0 + 2.0 * k, factory=SlowTimer)
        sim.run(until=10.0)
        # pid 0's slow timer was re-armed by its 3rd incarnation only; the
        # three dead incarnations' copies are cancelled, not pending
        assert sim.scheduler.pending == self._recount(sim) == 2
        live = list(sim.scheduler.iter_pending())
        assert sorted(ev.payload.pid for ev in live) == [0, 1]


class TestNaNTimesRejected:
    """A NaN compares false with everything: let into the heap it sorts
    arbitrarily, and dispatched it becomes the clock. Every entry point
    rejects it; ``inf`` stays legal."""

    def test_schedule_rejects_nan_and_keeps_the_order(self):
        log = []
        s = make_scheduler(log)
        with pytest.raises(SimulationError):
            s.schedule(NAN, Callback(fn=lambda: None, label="nan"))
        s.schedule(5.0, Callback(fn=lambda: None, label="five"))
        s.schedule(1.0, Callback(fn=lambda: None, label="one"))
        s.run()
        assert log == [(1.0, "one"), (5.0, "five")]
        assert s.now == 5.0
        s.schedule(100.0, Callback(fn=lambda: None, label="late"))
        stats = s.run(until=50.0)
        # the event 100 units on stays queued, and the clock stays a number
        assert stats.events_processed == 0 and stats.end_time == 5.0
        assert s.pending == 1

    def test_schedule_at_rejects_nan(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        with pytest.raises(SimulationError):
            s.schedule_at(NAN, Callback(fn=lambda: None))
        assert s.pending == 0

    def test_controlled_mode_clamps_the_past_but_rejects_nan(self):
        s = Scheduler()
        s.dispatch = lambda ev: None
        s.enable_controlled()
        s.step(s.schedule(3.0, TimerFire(pid=0, tag="t", timer_id=0)))
        assert s.now == 3.0
        assert s.schedule_at(1.0, Callback(fn=lambda: None)).time == 3.0
        with pytest.raises(SimulationError):
            s.schedule_at(NAN, Callback(fn=lambda: None))
        with pytest.raises(SimulationError):
            s.schedule(NAN, Callback(fn=lambda: None))

    def test_infinite_delay_is_legal(self):
        log = []
        s = make_scheduler(log)
        s.schedule(math.inf, Callback(fn=lambda: None, label="never"))
        s.schedule_at(math.inf, Callback(fn=lambda: None, label="never"))
        assert s.run(until=1e9).events_processed == 0
        assert s.pending == 2 and log == []

    def test_reference_loop_rejects_nan_too(self):
        from ._reference_scheduler import HeapOnlyScheduler

        s = HeapOnlyScheduler()
        with pytest.raises(SimulationError):
            s.schedule(NAN, Callback(fn=lambda: None))
        with pytest.raises(SimulationError):
            s.schedule_at(NAN, Callback(fn=lambda: None))

    def _sim(self, adversary):
        from repro.sim import Process, Simulation

        class Sender(Process):
            def on_start(self):
                self.ctx.send(1, "m")

        return Simulation([Sender(), Process()], adversary, seed=0)

    def test_adversary_nan_message_delay_raises(self):
        from repro.sim import ReliableAsynchronous

        class NaNDelays(ReliableAsynchronous):
            def message_delay(self, src, dst, msg, now):
                return NAN

        sim = self._sim(NaNDelays())
        with pytest.raises(SimulationError):
            sim.run(until=10.0)
        assert sim.scheduler.pending == 0

    def test_adversary_nan_duplicate_delay_raises(self):
        from repro.sim import ReliableAsynchronous

        class NaNCopies(ReliableAsynchronous):
            def extra_deliveries(self, src, dst, msg, now):
                return [NAN]

        sim = self._sim(NaNCopies())
        with pytest.raises(SimulationError):
            sim.run(until=10.0)

    @pytest.mark.parametrize("which", [0, 1], ids=["linearize", "respond"])
    def test_adversary_nan_op_delay_raises(self, which):
        from repro.sim import Process, ReliableAsynchronous, SharedObject, Simulation

        class NaNOps(ReliableAsynchronous):
            def op_delays(self, pid, object_name, op, now):
                return (NAN, 1.0) if which == 0 else (1.0, NAN)

        class Invoker(Process):
            def on_start(self):
                self.ctx.invoke("o", "noop")

        class Obj(SharedObject):
            def op_noop(self, pid):
                return None

        sim = Simulation([Invoker()], NaNOps(), seed=0)
        sim.memory.register(Obj("o"))
        with pytest.raises(SimulationError):
            sim.run(until=10.0)


PAYLOADS = [
    (MessageDeliver, (0, 1, "m", 2.5, True),
     dict(src=0, dst=1, msg="m", send_time=2.5, duplicate=True)),
    (MessageDeliver, (0, 1, "m", 2.5),
     dict(src=0, dst=1, msg="m", send_time=2.5, duplicate=False)),
    (TimerFire, (3, "tag", 7), dict(pid=3, tag="tag", timer_id=7)),
    (OpLinearize, (1, 4, "reg", "write", ("v",), 0.25),
     dict(pid=1, handle=4, object_name="reg", op="write", args=("v",),
          resp_delay=0.25)),
    (OpLinearize, (1, 4, "reg", "read", ()),
     dict(pid=1, handle=4, object_name="reg", op="read", args=(),
          resp_delay=0.0)),
    (OpRespond, (1, 4, "reg", "read", "v"),
     dict(pid=1, handle=4, object_name="reg", op="read", result="v")),
    (Callback, (print, "lbl", 2, True),
     dict(fn=print, label="lbl", pid=2, choice=True)),
    (Callback, (print,), dict(fn=print, label="", pid=None, choice=False)),
]


class TestPayloadContract:
    """An event's payload is one small immutable tuple, built positionally
    on the hot path and by keyword in tests and scripts."""

    @pytest.mark.parametrize("cls,args,kwargs", PAYLOADS)
    def test_positional_and_keyword_build_the_same_value(self, cls, args, kwargs):
        positional, keyword = cls(*args), cls(**kwargs)
        assert positional == keyword and type(positional) is cls
        assert {f: getattr(keyword, f) for f in kwargs} == kwargs
        assert isinstance(positional, tuple) and not hasattr(positional, "__dict__")

    @pytest.mark.parametrize("cls,args,kwargs", PAYLOADS)
    def test_payloads_reject_attribute_assignment(self, cls, args, kwargs):
        payload = cls(*args)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(payload, name, None)
        with pytest.raises(AttributeError):
            payload.extra = 1  # type: ignore[attr-defined]
        assert payload == cls(**kwargs)
