"""Golden determinism: the rewritten scheduler vs. the pre-refactor loop.

The R7 rewrite (keyed-tuple heap + heap-tombstone compaction +
mark-and-skip ``step``) claims *bit-identical* ``(time, seq)`` dispatch
order. These tests drive :class:`repro.sim.scheduler.Scheduler` and the
retained :class:`tests._reference_scheduler.HeapOnlyScheduler` through the same
randomized command programs and assert the two implementations are
observationally indistinguishable:

- run-mode: identical ``(seq, time)`` dispatch logs, identical
  ``events_processed``/``end_time`` per segment, identical final
  quiescence — under interleaved schedules, ``after``-chains, cancels,
  and partial ``run`` calls (``max_events`` and ``until`` horizons);
- controlled-mode: identical ``co_enabled()`` enumerations at *every*
  round (schedule ids index into this canonical order, so DPOR replay
  determinism rides on it), under adversarial step choices;
- the decided after-cancelled-predecessor semantics (blocked **forever**
  — see the ``co_enabled`` docstring) as an explicit regression pin on
  both implementations;
- full stack: one SRB-over-reliable-channel system built on each
  scheduler dispatches the same ``(time, seq)`` order end to end.

``_interpret_run`` never cancels or chains behind a handle whose event
has fired or was cancelled: it tracks liveness by the seq recorded at
schedule time. Neither implementation needs that care — a handle names
one event for good, so cancelling a fired one is inert on both (pinned
in ``tests/test_scheduler.py``) — but it keeps the drawn programs the
same as they have always been.

Cross-implementation stats comparison covers ``events_processed`` /
``end_time`` / ``exhausted``; whole-``RunStats`` reproducibility is
asserted new-scheduler-vs-itself.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.srb_from_uni import build_mp_srb_system
from repro.faults.chaos import DEFAULT_CHANNEL
from repro.sim.events import Callback, TimerFire
from repro.sim.scheduler import Scheduler
from repro.workloads import OrderHasher, open_loop_arrivals

from ._reference_scheduler import HeapOnlyScheduler

FINAL_DRAIN = 1_000_000.0  # past any schedulable time the programs reach

_run_ops = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), st.floats(0.0, 50.0), st.just(0)),
        st.tuples(st.just("after"), st.floats(0.0, 50.0),
                  st.integers(0, 63)),
        st.tuples(st.just("cancel"), st.just(0.0), st.integers(0, 63)),
        st.tuples(st.just("run"), st.just(0.0), st.integers(0, 8)),
        st.tuples(st.just("until"), st.floats(0.0, 100.0), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


def _interpret_run(sched_cls, ops):
    """Replay one drawn command program in free-running mode.

    Returns the dispatch log and the implementation-independent slice of
    each segment's stats, plus the whole ``RunStats`` (for
    same-implementation reproducibility checks only).
    """
    s = sched_cls()
    log: list = []
    gone: set = set()  # seqs fired or cancelled — handles no longer owned

    def dispatch(ev):
        log.append((ev.seq, ev.time))
        gone.add(ev.seq)

    s.dispatch = dispatch
    handles: list = []  # (seq-at-schedule-time, event)
    segments = []
    full_stats = []
    for kind, delay, idx in ops:
        if kind == "sched" or kind == "after":
            after = None
            if kind == "after" and handles:
                seq, ev0 = handles[idx % len(handles)]
                if seq not in gone:  # live handles only (module docstring)
                    after = ev0
            ev = s.schedule(
                delay, TimerFire(pid=0, tag="t", timer_id=len(handles)),
                after=after,
            )
            handles.append((ev.seq, ev))
        elif kind == "cancel":
            if handles:
                seq, ev0 = handles[idx % len(handles)]
                if seq not in gone:
                    s.cancel(ev0)
                    gone.add(seq)
        elif kind == "run":
            stats = s.run(max_events=idx)
            segments.append((stats.events_processed, stats.end_time))
            full_stats.append(stats)
        else:  # until
            stats = s.run(until=s.now + delay)
            segments.append((stats.events_processed, stats.end_time))
            full_stats.append(stats)
    final = s.run(until=FINAL_DRAIN)
    segments.append(
        (final.events_processed, final.end_time, final.exhausted)
    )
    full_stats.append(final)
    return log, segments, full_stats


class TestRunModeGoldenDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(ops=_run_ops)
    def test_matches_pre_refactor_loop(self, ops):
        new_log, new_segs, new_full = _interpret_run(Scheduler, ops)
        ref_log, ref_segs, _ = _interpret_run(HeapOnlyScheduler, ops)
        assert new_log == ref_log, "dispatch order diverged"
        assert new_segs == ref_segs, "per-segment stats diverged"
        # same seed, same implementation => every RunStats field reproduces
        again_log, _, again_full = _interpret_run(Scheduler, ops)
        assert again_log == new_log
        assert again_full == new_full


_controlled_setup = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), st.floats(0.0, 50.0), st.just(0)),
        st.tuples(st.just("after"), st.floats(0.0, 50.0),
                  st.integers(0, 63)),
        st.tuples(st.just("cancel"), st.just(0.0), st.integers(0, 63)),
    ),
    min_size=1,
    max_size=24,
)


def _interpret_controlled(sched_cls, setup, choices):
    """Build a pending set, then step it with an adversarial choice tape.

    Records the full ``co_enabled`` enumeration at every round — the
    canonical order schedule ids index into — alongside the dispatch log.
    """
    s = sched_cls()
    s.controlled = True
    log: list = []
    s.dispatch = lambda ev: log.append((ev.seq, ev.time))
    handles: list = []
    for kind, delay, idx in setup:
        if kind == "cancel":
            if handles:
                tgt = handles[idx % len(handles)]
                if not tgt.cancelled:
                    s.cancel(tgt)
        else:
            after = None
            if kind == "after" and handles:
                after = handles[idx % len(handles)]
            handles.append(
                s.schedule(
                    delay, TimerFire(pid=0, tag="c", timer_id=len(handles)),
                    after=after,
                )
            )
    rounds = []
    i = 0
    while True:
        enabled = s.co_enabled()
        rounds.append([ev.seq for ev in enabled])
        if not enabled:
            break
        s.step(enabled[choices[i % len(choices)] % len(enabled)])
        i += 1
    return log, rounds


class TestControlledModeGoldenDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(
        setup=_controlled_setup,
        choices=st.lists(st.integers(0, 1_000), min_size=1, max_size=24),
    )
    def test_matches_pre_refactor_loop(self, setup, choices):
        new_log, new_rounds = _interpret_controlled(Scheduler, setup, choices)
        ref_log, ref_rounds = _interpret_controlled(
            HeapOnlyScheduler, setup, choices
        )
        assert new_rounds == ref_rounds, (
            "co_enabled enumeration diverged — DPOR schedule ids would "
            "replay differently"
        )
        assert new_log == ref_log, "controlled dispatch order diverged"


_KINDS = ("timer", "choice_cb", "forced_cb")


def _noop():
    pass


def _payload(kind, i):
    if kind == "timer":
        return TimerFire(pid=0, tag="m", timer_id=i)
    return Callback(fn=_noop, label=str(i), choice=kind == "choice_cb")


_mixed_setup = st.lists(
    st.one_of(
        # (op, delay, kind, handle index; -1 = not chained)
        st.tuples(st.just("sched"), st.floats(0.0, 50.0),
                  st.sampled_from(_KINDS), st.integers(-1, 63)),
        st.tuples(st.just("cancel"), st.just(0.0), st.just(""),
                  st.integers(0, 63)),
    ),
    max_size=16,
)
_mixed_tape = st.lists(
    st.tuples(st.sampled_from(["drain", "choice", "any", "cancel"]),
              st.integers(0, 1_000)),
    min_size=1,
    max_size=24,
)


def _interpret_mixed(sched_cls, before, after, tape):
    """Forced and choice events, some queued before controlled mode is
    switched on, stepped the way ``Simulation`` steps them.

    ``drain`` is ``Simulation.drain_forced`` (step ``next_forced()`` until
    it is ``None``), ``choice`` steps one of ``choice_events()``, ``any``
    one of ``co_enabled()``, ``cancel`` cancels a live handle. Every third
    dispatched seq schedules one more event (at most eight), so forced
    events created by a dispatch can sort before the rest. Records, at
    every round, the three enumerations and the pending set.
    """
    s = sched_cls()
    log: list = []
    handles: list = []
    gone: set = set()
    budget = [8]

    def dispatch(ev):
        log.append((ev.seq, ev.time))
        gone.add(ev.seq)
        if budget[0] and ev.seq % 3 == 0:
            budget[0] -= 1
            kind = _KINDS[ev.seq % len(_KINDS)]
            handles.append(s.schedule(float(ev.seq % 2),
                                      _payload(kind, len(handles))))

    s.dispatch = dispatch

    def apply(ops):
        for op, delay, kind, idx in ops:
            live = [ev for ev in handles if ev.seq not in gone]
            if op == "cancel":
                if live:
                    victim = live[idx % len(live)]
                    s.cancel(victim)
                    gone.add(victim.seq)
                continue
            chain = live[idx % len(live)] if idx >= 0 and live else None
            handles.append(
                s.schedule(delay, _payload(kind, len(handles)), after=chain))

    apply(before)
    s.enable_controlled()
    apply(after)
    rounds = []
    i = 0
    while True:
        enabled = s.co_enabled()
        choices = s.choice_events()
        forced = s.next_forced()
        rounds.append((
            [ev.seq for ev in enabled], [ev.seq for ev in choices],
            None if forced is None else forced.seq, s.pending,
            sorted(ev.seq for ev in s.iter_pending()),
        ))
        if not enabled:
            break
        op, n = tape[i % len(tape)]
        i += 1
        live = [ev for ev in handles if ev.seq not in gone]
        if op == "drain" and forced is not None:
            while (forced := s.next_forced()) is not None:
                s.step(forced)
        elif op == "choice" and choices:
            s.step(choices[n % len(choices)])
        elif op == "cancel" and live:
            victim = live[n % len(live)]
            s.cancel(victim)
            gone.add(victim.seq)
        else:
            s.step(enabled[n % len(enabled)])
    return log, rounds


class TestControlledChoiceSetMatchesReference:
    """The forced heap and the choice dict against the oracle's filters over
    its own ``co_enabled()``: same enumerations at every round, same
    dispatch log."""

    @settings(max_examples=60, deadline=None)
    @given(before=_mixed_setup, after=_mixed_setup, tape=_mixed_tape)
    def test_matches_reference_filters(self, before, after, tape):
        new = _interpret_mixed(Scheduler, before, after, tape)
        ref = _interpret_mixed(HeapOnlyScheduler, before, after, tape)
        assert new[1] == ref[1], "choice-set enumeration diverged"
        assert new[0] == ref[0], "controlled dispatch order diverged"

    def test_events_queued_before_the_switch_are_partitioned(self):
        for cls in (Scheduler, HeapOnlyScheduler):
            s = cls()
            s.dispatch = lambda ev: None
            t = s.schedule(2.0, _payload("timer", 0))
            f = s.schedule(3.0, _payload("forced_cb", 1))
            c = s.schedule(1.0, _payload("choice_cb", 2))
            dead = s.schedule(0.5, _payload("forced_cb", 3))
            s.cancel(dead)
            s.enable_controlled()
            assert s.choice_events() == [c, t]
            assert s.next_forced() is f
            assert s.co_enabled() == [c, t, f]
            s.step(f)
            assert s.next_forced() is None and s.pending == 2


class TestCancelledPredecessorBlocksForever:
    """Regression pin for the decided ``after``-chain semantics.

    Cancelling a predecessor before it fires blocks its successors
    *forever*: the chain models a producer's ordering guarantee, and a
    schedule where the predecessor can no longer happen has no valid
    position for the successor (see the ``co_enabled`` docstring). Both
    implementations must agree, or model-checking results would change
    across the refactor.
    """

    def _pin(self, sched_cls):
        s = sched_cls()
        s.controlled = True
        fired: list = []
        s.dispatch = lambda ev: fired.append(ev.seq)
        a = s.schedule(1.0, TimerFire(pid=0, tag="a", timer_id=0))
        b = s.schedule(2.0, TimerFire(pid=0, tag="b", timer_id=1), after=a)
        c = s.schedule(3.0, TimerFire(pid=0, tag="c", timer_id=2))
        # before the cancel, b is blocked (a not fired) but a and c enabled
        assert [ev.seq for ev in s.co_enabled()] == [a.seq, c.seq]
        s.cancel(a)
        # a gone, b blocked forever — only c remains choosable
        assert [ev.seq for ev in s.co_enabled()] == [c.seq]
        s.step(c)
        # b never unblocks, even once everything else has fired
        assert s.co_enabled() == []
        assert fired == [c.seq]
        return b

    def test_production_scheduler(self):
        b = self._pin(Scheduler)
        assert b.queued and not b.fired  # parked, not leaked into dispatch

    def test_pre_refactor_scheduler(self):
        b = self._pin(HeapOnlyScheduler)
        assert b.queued and not b.fired

    def test_firing_predecessor_unblocks(self):
        # the complementary direction: a *fired* predecessor releases the
        # successor into the choice set on both implementations
        for cls in (Scheduler, HeapOnlyScheduler):
            s = cls()
            s.controlled = True
            s.dispatch = lambda ev: None
            a = s.schedule(1.0, TimerFire(pid=0, tag="a", timer_id=0))
            b = s.schedule(2.0, TimerFire(pid=0, tag="b", timer_id=1),
                           after=a)
            assert [ev.seq for ev in s.co_enabled()] == [a.seq]
            s.step(a)
            assert [ev.seq for ev in s.co_enabled()] == [b.seq]


class TestFullStackGoldenDeterminism:
    """The two loops under a real system, not a command program: Algorithm-1
    SRB over retransmitting channels arms and cancels a timer per frame, so
    the heap carries timer tombstones throughout. The simulation is built
    over each loop by swapping the ``Scheduler`` class the runner uses."""

    def _run(self, monkeypatch, scheduler_cls):
        monkeypatch.setattr("repro.sim.runner.Scheduler", scheduler_cls)
        hasher = OrderHasher()
        sim, procs, _scheme = build_mp_srb_system(
            n=4, t=1, sender=0, seed=11,
            reliable=dict(DEFAULT_CHANNEL),
            observers=(hasher,),
        )
        arrivals = open_loop_arrivals(12, seed=11, rate=3.0)
        for at, op in arrivals:
            sim.at(at, lambda op=op: procs[0].broadcast(op), label="op")
        stats = sim.run(until=arrivals[-1][0] + 120.0)
        delivered = len(sim.trace.events("bcast_deliver"))
        return hasher.hexdigest(), stats, delivered

    def test_srb_system_replays_on_pre_refactor_scheduler(self, monkeypatch):
        new_hash, new_stats, new_delivered = self._run(monkeypatch, Scheduler)
        ref_hash, ref_stats, ref_delivered = self._run(
            monkeypatch, HeapOnlyScheduler
        )
        assert new_hash == ref_hash, "full-stack dispatch order diverged"
        assert new_delivered == ref_delivered == 4 * 12
        assert (new_stats.events_processed, new_stats.end_time) == (
            ref_stats.events_processed, ref_stats.end_time
        )
