"""Tests for the round engine and all four transports."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.core.rounds import (
    LockStepRoundTransport,
    MessagePassingRoundTransport,
    POST,
    RoundProcess,
    SharedMemoryRoundTransport,
    TimedRoundTransport,
)
from repro.core.srb_oracle import SRBOracle
from repro.core.uni_from_rb_corner import CornerCaseRoundTransport
from repro.core.uni_from_sm import build_objects_for
from repro.crypto import SignatureScheme
from repro.sim import (
    DuplicatingAsynchronous,
    LockStepSynchronous,
    ReliableAsynchronous,
    Simulation,
)


class Recorder(RoundProcess):
    """Begins rounds on demand; records everything it sees."""

    def __init__(self, transport, labels=()):
        super().__init__(transport)
        self.labels = list(labels)
        self.received = []
        self.completed = []

    def on_round_start(self):
        if self.labels:
            self.rounds.begin_round(("payload", self.pid), self.labels[0])

    def on_round_message(self, label, src, payload):
        self.received.append((label, src, payload))

    def on_round_complete(self, label):
        self.completed.append(label)
        idx = self.labels.index(label) if label in self.labels else -1
        if 0 <= idx < len(self.labels) - 1:
            self.rounds.begin_round(("payload", self.pid), self.labels[idx + 1])


def run_sm(n=3, labels=("r1",), seed=0, until=200.0, cls=SharedMemoryRoundTransport,
           objects_name="append-log"):
    procs = [Recorder(cls(), labels) for _ in range(n)]
    sim = Simulation(procs, ReliableAsynchronous(0.01, 0.5), seed=seed)
    for obj in build_objects_for(objects_name, n):
        sim.memory.register(obj)
    sim.run(until=until)
    return sim, procs


class TestEngineContract:
    def test_labels_unique_per_process(self):
        """Reusing a label raises, its round in flight or completed."""
        sim, procs = run_sm(n=1, labels=("done",))
        p = procs[0]
        assert p.completed == ["done"]
        p.rounds.begin_round("a", "open")
        for label in ("open", "done"):
            with pytest.raises(SimulationError, match="reused"):
                p.rounds.begin_round("b", label)

    def test_labels_in_flight_complete_independently_over_shared_memory(self):
        """Process 0's append for ``a`` lands late, and ``b``, begun after
        it, rides on the publish after ``a``'s: ``a`` completes first, then
        ``b``, each counted by a scan that started after its own batch
        landed."""

        class SlowFirstAppend(ReliableAsynchronous):
            slowed = False

            def op_delays(self, pid, object_name, op, now):
                if op == "append" and not self.slowed:
                    self.slowed = True
                    return (5.0, 0.1)
                return (0.1, 0.1)

        class ScanStarts(SharedMemoryRoundTransport):
            def __init__(self):
                super().__init__()
                self.starts = []

            def _begin_scan(self):
                self.starts.append(self.host.ctx.now)
                super()._begin_scan()

        procs = [Recorder(ScanStarts(), ()) for _ in range(2)]
        sim = Simulation(procs, SlowFirstAppend(), seed=1)
        for obj in build_objects_for("append-log", 2):
            sim.memory.register(obj)
        seen = []
        p0 = procs[0]
        p0.on_round_complete = lambda label: seen.append(
            (label, set(p0.rounds.active_labels))
        )
        sim.at(1.0, lambda: [p0.rounds.begin_round(x, x) for x in "ab"])
        sim.run(until=50.0)
        assert seen == [("a", {"b"}), ("b", set())]
        invoked = {
            e.field("handle"): (e.time, e.field("args"))
            for e in sim.trace.events("op_invoke", pid=0) if e.field("op") == "append"
        }
        landed = {
            e.field("handle"): e.time
            for e in sim.trace.events("op_respond", pid=0) if e.field("handle") in invoked
        }
        (ha, hb) = sorted(invoked)
        assert [invoked[h][1] for h in (ha, hb)] == [((("a", "a"),),), ((("b", "b"),),)]
        assert invoked[hb][0] == landed[ha]  # b's batch goes out as a's lands
        for h, end in zip((ha, hb), sim.trace.events("round_end", pid=0)):
            counted_from = max(t for t in p0.rounds.starts if t < end.time)
            assert counted_from >= landed[h]

    @pytest.mark.parametrize("transport", ["message-passing", "corner-case"])
    def test_labels_in_flight_complete_independently_over_messages(self, transport):
        """Only process 0 begins ``a``, so ``a`` never gathers its quorum;
        ``b``, begun by everyone after it, completes regardless."""
        n = 3
        if transport == "message-passing":
            procs = [Recorder(MessagePassingRoundTransport(f=1), ()) for _ in range(n)]
            sim = Simulation(procs, ReliableAsynchronous(0.01, 0.5), seed=3)
        else:
            scheme = SignatureScheme(n, seed=3)
            oracle = SRBOracle(seed=3)
            procs = [
                Recorder(CornerCaseRoundTransport(oracle, scheme, scheme.signer(p)), ())
                for p in range(n)
            ]
            sim = Simulation(procs, ReliableAsynchronous(0.01, 0.5), seed=3)
            oracle.bind(sim)
        sim.at(0.5, lambda: procs[0].rounds.begin_round("x", "a"))
        sim.at(0.6, lambda: [p.rounds.begin_round(("y", p.pid), "b") for p in procs])
        sim.run(until=100.0)
        assert [p.completed for p in procs] == [["b"]] * n
        assert procs[0].rounds.active_labels == {"a"}

    def test_append_landing_during_a_scan_waits_for_the_next_scan(self):
        """The counted scan must *start* after the append linearized: an
        append that lands while a scan is running is not counted by it."""

        class SlowReads(ReliableAsynchronous):
            def op_delays(self, pid, object_name, op, now):
                return (1.0, 1.0) if op == "read_from" else (0.1, 0.1)

        class ScanLog(SharedMemoryRoundTransport):
            def __init__(self):
                super().__init__()
                self.scans = []  # [start, end] per scan

            def _begin_scan(self):
                self.scans.append([self.host.ctx.now, None])
                super()._begin_scan()

            def _finish_scan(self):
                self.scans[-1][1] = self.host.ctx.now
                super()._finish_scan()

        t = ScanLog()
        sim = Simulation([Recorder(t, ())], SlowReads(), seed=2)
        for obj in build_objects_for("append-log", 1):
            sim.memory.register(obj)
        sim.at(0.5, lambda: t.begin_round("x", "r"))
        sim.run(until=20.0)
        landed = 0.5 + 0.1 + 0.1  # the append's response reaches the process
        running = next(s for s in t.scans if s[0] < landed < s[1])
        counted = next(s for s in t.scans if s[0] >= landed)
        (end,) = sim.trace.events("round_end", pid=0)
        assert end.time == counted[1] > running[1]

    def test_auto_labels_are_counters(self):
        procs = [Recorder(MessagePassingRoundTransport(f=0), ()) for _ in range(2)]
        sim = Simulation(procs, seed=2)
        sim.at(0.1, lambda: [p.rounds.begin_round("x") for p in procs])
        sim.run(until=50.0)
        assert procs[0].completed == [1]

    def test_duplicate_payload_delivered_once(self):
        sim, procs = run_sm(n=2, labels=("r1",))
        keys = [(l, s) for (l, s, _p) in procs[0].received if l == "r1"]
        assert len(keys) == len(set(keys))

    def test_duplicate_message_delivered_once(self):
        """The message-passing twin: the network delivers copies, and the
        wire hands each (src, label, payload) to the host once."""
        adv = DuplicatingAsynchronous(dup_probability=0.9, max_copies=3)
        procs = [Recorder(MessagePassingRoundTransport(f=0), ("r1", "r2"))
                 for _ in range(3)]
        sim = Simulation(procs, adv, seed=3)
        sim.at(0.2, lambda: procs[0].rounds.post("news"))
        sim.run(until=100.0)
        assert sim.network.duplicates_delivered > 0
        for p in procs:
            assert p.completed == ["r1", "r2"]
            assert len(p.received) == len(set(p.received)) == 3 * 2 + 1

    def test_transport_attach_once(self):
        t = SharedMemoryRoundTransport()
        p1 = Recorder(t, ())
        t.attach(p1)
        with pytest.raises(ConfigurationError):
            t.attach(p1)


class TestSharedMemoryTransport:
    def test_round_completes_and_delivers_all(self):
        sim, procs = run_sm(n=4, labels=("r1",))
        for p in procs:
            assert p.completed == ["r1"]
            srcs = {s for (l, s, _pl) in p.received if l == "r1"}
            assert srcs == set(range(4))  # includes own entry via scan

    def test_post_reaches_everyone(self):
        procs = [Recorder(SharedMemoryRoundTransport(), ()) for _ in range(3)]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 0.3), seed=4)
        for obj in build_objects_for("append-log", 3):
            sim.memory.register(obj)
        sim.at(0.1, lambda: procs[0].rounds.post("news"))
        sim.run(until=120.0)
        for p in procs:
            assert (POST, 0, "news") in p.received

    def test_scan_backoff_reduces_idle_work(self):
        sim, procs = run_sm(n=2, labels=("r1",), until=500.0)
        # with exponential backoff, half a thousand time units of idleness
        # must not mean thousands of scans
        assert procs[0].rounds.scans_completed < 60

    def test_late_round_still_delivered(self):
        """Process 1 begins its round long after process 0 finished."""

        class Late(Recorder):
            def on_round_start(self):
                if self.pid == 1:
                    self.ctx.set_timer(60.0, "late")
                else:
                    self.rounds.begin_round(("early", self.pid), "r1")

            def on_timer(self, tag):
                if tag == "late":
                    self.rounds.begin_round(("late", self.pid), "r1")
                else:
                    super().on_timer(tag)

        procs = [Late(SharedMemoryRoundTransport(), ["r1"]) for _ in range(2)]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 0.3), seed=5)
        for obj in build_objects_for("append-log", 2):
            sim.memory.register(obj)
        sim.run(until=400.0)
        assert ("r1", 1, ("late", 1)) in procs[0].received
        assert ("r1", 0, ("early", 0)) in procs[1].received


class TestMessagePassingTransport:
    def test_completes_at_n_minus_f(self):
        procs = [Recorder(MessagePassingRoundTransport(f=1), ["r1"]) for _ in range(3)]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 0.3), seed=6)
        sim.crash(2)  # one silent process: rounds still complete
        sim.run(until=60.0)
        assert procs[0].completed == ["r1"] and procs[1].completed == ["r1"]

    def test_blocks_below_quorum(self):
        procs = [Recorder(MessagePassingRoundTransport(f=0), ["r1"]) for _ in range(3)]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 0.3), seed=7)
        sim.crash(2)
        sim.run(until=60.0)
        assert procs[0].completed == []

    def test_malformed_round_message_ignored(self):
        from repro.sim import Process

        class Junker(Process):
            def on_start(self):
                self.ctx.broadcast(("__round__", [1, 2], "junk"), include_self=False)

        r = Recorder(MessagePassingRoundTransport(f=1), [])
        sim = Simulation([Junker(), r, Recorder(MessagePassingRoundTransport(f=1), [])], seed=8)
        sim.run(until=30.0)
        assert r.received == []

    def test_negative_f_rejected(self):
        with pytest.raises(ConfigurationError):
            MessagePassingRoundTransport(f=-1)


class TestLockStepTransport:
    def test_rounds_advance_on_boundaries(self):
        procs = [Recorder(LockStepRoundTransport(period=2.0), ()) for _ in range(2)]
        sim = Simulation(procs, LockStepSynchronous(delta=1.0), seed=9)
        sim.at(0.5, lambda: procs[0].rounds.begin_round("x"))
        sim.at(0.5, lambda: procs[1].rounds.begin_round("y"))
        sim.run(until=10.0)
        # queued at 0.5 -> sent at boundary 1 (t=2) -> completes at boundary 2
        assert procs[0].completed == [1]
        assert ("x") in [p for (_l, _s, p) in procs[1].received]

    def test_round_queued_mid_round_is_sent_at_the_next_boundary(self):
        procs = [Recorder(LockStepRoundTransport(period=2.0), ()) for _ in range(2)]
        sim = Simulation(procs, LockStepSynchronous(delta=1.0), seed=9)
        for p in procs:
            sim.at(0.5, lambda p=p: p.rounds.begin_round(("a", p.pid)))
            # round 1 is active from t=2 to t=4
            sim.at(2.5, lambda p=p: p.rounds.begin_round(("b", p.pid)))
        sim.run(until=20.0)
        for p in procs:
            assert p.completed == [1, 2]
            assert not p.rounds._pending
            assert sorted(
                (label, payload) for (label, _src, payload) in p.received
            ) == [(1, ("a", 0)), (1, ("a", 1)), (2, ("b", 0)), (2, ("b", 1))]
        with pytest.raises(ConfigurationError):
            procs[0].rounds.begin_round("c", label="custom")

    def test_custom_labels_rejected(self):
        t = LockStepRoundTransport()
        p = Recorder(t, ())
        sim = Simulation([p], LockStepSynchronous(), seed=10)
        sim.run(until=1.0)
        with pytest.raises(ConfigurationError):
            t.begin_round("x", label="custom")

    def test_invalid_period(self):
        with pytest.raises(ConfigurationError):
            LockStepRoundTransport(period=0)


class TestTimedTransport:
    def test_round_ends_after_wait(self):
        procs = [Recorder(TimedRoundTransport(wait=3.0), ()) for _ in range(2)]
        sim = Simulation(procs, ReliableAsynchronous(0.1, 0.5), seed=11)
        sim.at(1.0, lambda: procs[0].rounds.begin_round("x", "L"))
        sim.run(until=20.0)
        ends = sim.trace.events("round_end", pid=0)
        assert len(ends) == 1 and ends[0].time == 4.0

    def test_early_messages_buffered(self):
        """A message arriving before the receiver starts its round counts."""
        procs = [Recorder(TimedRoundTransport(wait=2.0), ()) for _ in range(2)]
        sim = Simulation(procs, ReliableAsynchronous(0.1, 0.5), seed=12)
        sim.at(0.5, lambda: procs[0].rounds.begin_round(("v", 0), "L"))
        sim.at(10.0, lambda: procs[1].rounds.begin_round(("v", 1), "L"))
        sim.run(until=30.0)
        assert ("L", 0, ("v", 0)) in procs[1].received

    def test_invalid_wait(self):
        with pytest.raises(ConfigurationError):
            TimedRoundTransport(wait=0)
