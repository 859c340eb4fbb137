"""Trace v2 tests: indexed queries vs linear-scan semantics, observers,
retention, and JSONL round-trips (repro.sim.trace)."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import ConfigurationError
from repro.sim.trace import (
    _LOCAL_VIEW_KINDS,
    DataclassValue,
    OpaqueValue,
    TraceEvent,
    TraceObserver,
    TraceStore,
)

KINDS = [
    "send", "deliver", "timer_set", "timer_fire", "op_invoke",
    "op_linearize", "op_respond", "decide", "bcast", "bcast_deliver",
    "round_sent", "round_recv", "round_end", "custom",
]


def random_events(seed: int, count: int, n_pids: int = 5):
    rng = random.Random(seed)
    events = []
    for i in range(count):
        kind = rng.choice(KINDS)
        pid = rng.randrange(n_pids)
        fields = {"tag": rng.randrange(8), "payload": f"v{rng.randrange(4)}"}
        events.append((float(i), kind, pid, fields))
    return events


def build(events, retention=None):
    t = TraceStore(retention=retention)
    for time, kind, pid, fields in events:
        t.record(time, kind, pid, **fields)
    return t


class Log(TraceObserver):
    """Records the index of every event it is handed."""

    def __init__(self, kinds=None):
        self.kinds = None if kinds is None else frozenset(kinds)
        self.seen: list[int] = []

    def on_event(self, ev):
        self.seen.append(ev.index)


# --- reference implementation: the pre-refactor linear-scan semantics ------


class LinearScanReference:
    """The old Trace behavior: one list, every query scans all of it; the
    oldest row is popped when a record leaves more than ``retention``."""

    def __init__(self, retention=None):
        self.retention = retention
        self.log: list[TraceEvent] = []
        self.kinds: Counter = Counter()
        self.pids: Counter = Counter()
        self.next_index = 0

    def append(self, time, kind, pid, **fields):
        self.log.append(TraceEvent(self.next_index, time, kind, pid, fields))
        self.next_index += 1
        self.kinds[kind] += 1
        self.pids[pid] += 1

    def record(self, time, kind, pid, **fields):
        self.append(time, kind, pid, **fields)
        if self.retention is not None and len(self.log) > self.retention:
            self.log.pop(0)

    def events(self, kind=None, pid=None, predicate=None):
        out = []
        for ev in self.log:
            if kind is not None and ev.kind != kind:
                continue
            if pid is not None and ev.pid != pid:
                continue
            if predicate is not None and not predicate(ev):
                continue
            out.append(ev)
        return out

    def local_view(self, pid):
        return tuple(
            ev.view_key() for ev in self.log
            if ev.pid == pid and ev.kind in _LOCAL_VIEW_KINDS
        )


class TestIndexedQueriesMatchLinearScan:
    """Seeded property test: the indexed store is observationally identical
    to the pre-refactor single-list scan on random event mixes."""

    @pytest.mark.parametrize("seed", range(8))
    def test_events_queries_agree(self, seed):
        events = random_events(seed, count=400)
        store, ref = build(events), LinearScanReference()
        for time, kind, pid, fields in events:
            ref.record(time, kind, pid, **fields)
        assert store.events() == ref.events()
        for kind in KINDS:
            assert store.events(kind) == ref.events(kind)
        for pid in range(5):
            assert store.events(pid=pid) == ref.events(pid=pid)
        for kind in ("send", "decide", "custom"):
            for pid in range(5):
                assert store.events(kind, pid=pid) == ref.events(kind, pid=pid)
        pred = lambda e: e.field("tag") in (0, 3)
        assert store.events("custom", predicate=pred) == \
            ref.events("custom", predicate=pred)

    @pytest.mark.parametrize("seed", range(8))
    def test_local_views_agree(self, seed):
        events = random_events(seed, count=400)
        store, ref = build(events), LinearScanReference()
        for time, kind, pid, fields in events:
            ref.record(time, kind, pid, **fields)
        for pid in range(5):
            assert store.local_view(pid) == ref.local_view(pid)

    def test_views_equal_matches_per_pid_comparison(self):
        a = build(random_events(1, count=300))
        b = build(random_events(1, count=300))
        c = build(random_events(2, count=300))
        assert a.views_equal(b, range(5))
        assert not a.views_equal(c, range(5))
        assert a.differing_views(b, range(5)) == []


class TestObserverBus:
    def test_observers_see_every_event_in_order(self):
        seen = []

        class Collector(TraceObserver):
            def on_event(self, ev):
                seen.append(ev.index)

        t = TraceStore()
        t.subscribe(Collector())
        for i in range(20):
            t.record(float(i), "custom", 0, event="x")
        assert seen == list(range(20))

    def test_subscription_order_is_publication_order(self):
        calls = []

        class Tagged(TraceObserver):
            def __init__(self, tag):
                self.tag = tag

            def on_event(self, ev):
                calls.append(self.tag)

        t = TraceStore()
        t.subscribe(Tagged("a"))
        t.subscribe(Tagged("b"))
        t.record(0.0, "custom", 0)
        assert calls == ["a", "b"]

    def test_unsubscribe_stops_delivery(self):
        seen = []

        class Collector(TraceObserver):
            def on_event(self, ev):
                seen.append(ev.index)

        obs = Collector()
        t = TraceStore()
        t.subscribe(obs)
        t.record(0.0, "custom", 0)
        t.unsubscribe(obs)
        t.record(1.0, "custom", 0)
        assert seen == [0]
        assert t.observers == ()

    def test_raising_observer_aborts_record(self):
        class Tripwire(TraceObserver):
            def on_event(self, ev):
                if ev.field("event") == "bad":
                    raise ValueError("tripped")

        t = TraceStore()
        t.subscribe(Tripwire())
        t.record(0.0, "custom", 0, event="fine")
        with pytest.raises(ValueError, match="tripped"):
            t.record(1.0, "custom", 0, event="bad")
        # the event was recorded before observers ran — the trace shows it
        assert len(t) == 2

    def test_replay_into_feeds_retained_events(self):
        seen = []

        class Collector(TraceObserver):
            def on_event(self, ev):
                seen.append((ev.index, ev.kind))

        t = build(random_events(3, count=50))
        t.replay_into(Collector())
        assert seen == [(ev.index, ev.kind) for ev in t.events()]

    def test_unsubscribe_inside_on_event_does_not_skip_the_next_observer(self):
        # regression: record() used to iterate the live observer list, so
        # removing an entry mid-dispatch shifted the next observer past
        # the event being delivered
        t = TraceStore()

        class Once(TraceObserver):
            def on_event(self, ev):
                t.unsubscribe(self)

        log = Log()
        t.subscribe(Once())
        t.subscribe(log)
        t.record(0.0, "custom", 0)
        t.record(1.0, "custom", 0)
        assert log.seen == [0, 1]
        assert t.observers == (log,)

    def test_subscribe_inside_on_event_starts_with_the_next_event(self):
        t = TraceStore()
        late = Log()

        class Recruiter(TraceObserver):
            def on_event(self, ev):
                if ev.index == 0:
                    t.subscribe(late)

        t.subscribe(Recruiter())
        for i in range(3):
            t.record(float(i), "custom", 0)
        assert late.seen == [1, 2]

    def test_observer_is_called_only_for_its_kinds(self):
        t = TraceStore()
        sends, everything = t.subscribe(Log({"send"})), t.subscribe(Log())
        for i, kind in enumerate(["send", "deliver", "custom", "send"]):
            t.record(float(i), kind, 0)
        assert sends.seen == [0, 3]
        assert everything.seen == [0, 1, 2, 3]
        replayed = Log({"deliver", "custom"})
        t.replay_into(replayed)
        assert replayed.seen == [1, 2]
        imported = Log({"send"})
        TraceStore.from_jsonl(t.to_jsonl(), observers=[imported])
        assert imported.seen == [0, 3]


class TestRetention:
    def test_ring_buffer_keeps_most_recent(self):
        t = build(random_events(4, count=100), retention=30)
        assert len(t) == 30
        assert t.total_recorded == 100
        assert t.evicted == 70
        assert [ev.index for ev in t.events()] == list(range(70, 100))

    def test_indexed_queries_consistent_after_eviction(self):
        events = random_events(6, count=200)
        bounded = build(events, retention=40)
        unbounded = build(events)
        keep = {ev.index for ev in bounded.events()}
        for kind in KINDS:
            expect = [ev for ev in unbounded.events(kind) if ev.index in keep]
            assert bounded.events(kind) == expect
        for pid in range(5):
            expect = [ev for ev in unbounded.events(pid=pid) if ev.index in keep]
            assert bounded.events(pid=pid) == expect

    def test_retention_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="retention"):
            TraceStore(retention=0)

    def test_observers_see_all_despite_retention(self):
        seen = []

        class Collector(TraceObserver):
            def on_event(self, ev):
                seen.append(ev.index)

        t = TraceStore(retention=3)
        t.subscribe(Collector())
        for i in range(10):
            t.record(float(i), "custom", 0)
        assert seen == list(range(10))


@dataclass(frozen=True)
class _Probe:
    x: int
    y: str


class _NotSerializable:
    def __repr__(self):
        return "<probe object>"


class TestJsonlRoundTrip:
    def test_random_trace_round_trips_identically(self):
        t = build(random_events(7, count=300))
        back = TraceStore.from_jsonl(t.to_jsonl())
        assert back.events() == t.events()
        for pid in range(5):
            assert back.local_view(pid) == t.local_view(pid)
        assert back.views_equal(t, range(5))
        # re-export is byte-identical: the codec is a fixed point
        assert back.to_jsonl() == t.to_jsonl()

    def test_protocol_value_types_survive(self):
        t = TraceStore()
        t.record(0.0, "custom", 0, sig=b"\x00\xff\x10", pair=(1, "a"),
                 quorum=frozenset({3, 1, 2}), table={"k": (1, 2)},
                 nested=[(1,), {"x": b"z"}])
        back = TraceStore.from_jsonl(t.to_jsonl())
        ev = back.events()[0]
        assert ev.field("sig") == b"\x00\xff\x10"
        assert ev.field("pair") == (1, "a")
        assert ev.field("quorum") == frozenset({1, 2, 3})
        assert ev.field("table") == {"k": (1, 2)}
        assert ev.field("nested") == [(1,), {"x": b"z"}]

    def test_dataclass_and_opaque_fallbacks(self):
        t = TraceStore()
        t.record(0.0, "custom", 0, probe=_Probe(1, "a"), blob=_NotSerializable())
        back = TraceStore.from_jsonl(t.to_jsonl())
        ev = back.events()[0]
        assert ev.field("probe") == DataclassValue("_Probe", (1, "a"))
        assert ev.field("blob") == OpaqueValue("<probe object>")
        # stand-ins re-encode stably
        assert TraceStore.from_jsonl(back.to_jsonl()).to_jsonl() == back.to_jsonl()

    def test_import_preserves_indexes_and_rejects_disorder(self):
        t = build(random_events(8, count=50), retention=20)
        back = TraceStore.from_jsonl(t.to_jsonl())
        assert [ev.index for ev in back.events()] == list(range(30, 50))
        lines = t.to_jsonl().splitlines()
        shuffled = "\n".join([lines[1], lines[0]] + lines[2:])
        with pytest.raises(ConfigurationError, match="not increasing"):
            TraceStore.from_jsonl(shuffled)

    def test_from_jsonl_streams_through_observers(self):
        seen = []

        class Collector(TraceObserver):
            def on_event(self, ev):
                seen.append(ev.index)

        t = build(random_events(9, count=40))
        TraceStore.from_jsonl(t.to_jsonl(), observers=[Collector()])
        assert seen == list(range(40))

    def test_export_and_load_file(self, tmp_path):
        t = build(random_events(10, count=60))
        path = str(tmp_path / "run.jsonl")
        assert t.export_jsonl(path) == 60
        back = TraceStore.load_jsonl(path)
        assert back.events() == t.events()


class TestOfflineAnalysis:
    def test_replay_observers_offline(self, tmp_path):
        seen = []

        class Collector(TraceObserver):
            def on_event(self, ev):
                seen.append(ev.index)

        t = build(random_events(13, count=30))
        path = str(tmp_path / "run.jsonl")
        t.export_jsonl(path)
        TraceStore.load_jsonl(path).replay_into(Collector())
        assert seen == list(range(30))


# --- the lazy store against the list model, under every interleaving ---------


def assert_same(store, model):
    """Every read the store offers agrees with the model."""
    assert len(store) == len(model.log)
    assert list(store) == store.events() == model.log
    assert store.total_recorded == model.next_index
    assert store.evicted == sum(model.kinds.values()) - len(model.log)
    for kind in KINDS:
        assert store.events(kind) == model.events(kind)
        for pid in PIDS:
            assert store.events(kind, pid=pid) == model.events(kind, pid)
    for pid in PIDS:
        assert store.events(pid=pid) == model.events(pid=pid)
        assert store.local_view(pid) == model.local_view(pid)


PIDS = range(5)  # what random_events draws from
# few kinds and pids, so that the machine's queries keep hitting recorded rows
SM_KINDS = ["send", "deliver", "op_linearize", "decide", "custom"]
SM_PIDS = [0, 1, 2]
sm_kind = st.sampled_from(SM_KINDS)
sm_pid = st.sampled_from(SM_PIDS)


class Tripwire(TraceObserver):
    def on_event(self, ev):
        raise ValueError("tripped")


class LazyStoreMachine(RuleBasedStateMachine):
    """Interleaves records, queries and (un)subscriptions; after
    every step each observer has seen exactly the model's records of its
    kinds, and each query rule compares one read with the model (so the
    indexes are caught up from every possible earlier state)."""

    @initialize(retention=st.sampled_from([None, 1, 7, 64, 200]))
    def start(self, retention):
        self.store = TraceStore(retention=retention)
        self.model = LinearScanReference(retention)
        self.observers: list[tuple[Log, list[int]]] = []

    def _row(self, kind, pid):
        """The next row; the observers subscribed to its kind expect it."""
        index = self.model.next_index
        for log, expected in self.observers:
            if log.kinds is None or kind in log.kinds:
                expected.append(index)
        return (float(index), kind, pid), {"tag": index % 3}

    @rule(kind=sm_kind, pid=sm_pid)
    def record(self, kind, pid):
        row, fields = self._row(kind, pid)
        self.model.record(*row, **fields)
        self.store.record(*row, **fields)

    @rule(n=st.integers(1, 150), data=st.data())
    def record_burst(self, n, data):
        # long enough to cross _EVICT_COMPACT_MIN and overtake a watermark
        rng = data.draw(st.randoms(use_true_random=False))
        for _ in range(n):
            self.record(rng.choice(SM_KINDS), rng.choice(SM_PIDS))

    @rule(kind=sm_kind, pid=sm_pid)
    def record_under_a_raising_observer(self, kind, pid):
        # today's semantics, pinned: the row is recorded, observers before
        # the raiser are served, those after it are not, nothing is evicted
        trip, late = Tripwire(), Log()
        self.store.subscribe(trip)
        self.store.subscribe(late)
        row, fields = self._row(kind, pid)
        self.model.append(*row, **fields)
        with pytest.raises(ValueError, match="tripped"):
            self.store.record(*row, **fields)
        assert late.seen == []
        self.store.unsubscribe(trip)
        self.store.unsubscribe(late)

    @rule(kind=sm_kind)
    def query_kind(self, kind):
        assert self.store.events(kind) == self.model.events(kind)

    @rule(pid=sm_pid)
    def query_pid(self, pid):
        assert self.store.events(pid=pid) == self.model.events(pid=pid)

    @rule(kind=sm_kind, pid=sm_pid)
    def query_kind_and_pid(self, kind, pid):
        assert self.store.events(kind, pid=pid) == self.model.events(kind, pid)

    @rule(pid=sm_pid)
    def query_local_view(self, pid):
        assert self.store.local_view(pid) == self.model.local_view(pid)

    @rule()
    def query_counts_len_and_iteration(self):
        assert len(self.store) == len(self.model.log)
        assert list(self.store) == self.model.log

    @rule(kinds=st.none() | st.sets(sm_kind))
    def subscribe(self, kinds):
        self.observers.append((self.store.subscribe(Log(kinds)), []))

    @precondition(lambda self: self.observers)
    @rule(data=st.data())
    def unsubscribe(self, data):
        at = data.draw(st.integers(0, len(self.observers) - 1))
        log, expected = self.observers.pop(at)
        self.store.unsubscribe(log)
        assert log.seen == expected

    @invariant()
    def observers_saw_their_kinds(self):
        for log, expected in self.observers:
            assert log.seen == expected
        assert self.store.observers == tuple(log for log, _ in self.observers)

    def teardown(self):
        assert_same(self.store, self.model)


TestLazyStoreMachine = LazyStoreMachine.TestCase
TestLazyStoreMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class TestLazyIndexCases:
    """The catch-up paths by name, each on every retention of the machine."""

    RETENTIONS = [None, 1, 7, 64, 200]

    def pair(self, retention, count=0):
        store, model = TraceStore(retention), LinearScanReference(retention)
        self.feed(store, model, count)
        return store, model

    @staticmethod
    def feed(store, model, count):
        for time, kind, pid, fields in random_events(model.next_index, count):
            store.record(time, kind, pid, **fields)
            model.record(time, kind, pid, **fields)

    @pytest.mark.parametrize("retention", RETENTIONS)
    def test_query_record_query_catches_up(self, retention):
        store, model = self.pair(retention, 30)
        assert_same(store, model)
        for step in (1, 2, 5):  # fewer rows than any retention evicts at once
            self.feed(store, model, step)
            assert_same(store, model)

    @pytest.mark.parametrize("retention", [1, 7, 64, 200])
    def test_watermark_overtaken_by_eviction_and_by_compaction(self, retention):
        store, model = self.pair(retention, retention + 3)
        assert_same(store, model)
        # every indexed row evicted, none of them compacted away yet ...
        self.feed(store, model, min(retention + 1, 40))
        assert_same(store, model)
        # ... and now with the dead prefix deleted under the indexes
        self.feed(store, model, 2 * max(retention, TraceStore._EVICT_COMPACT_MIN) + 5)
        assert store._offset > 0
        assert_same(store, model)

    @pytest.mark.parametrize("retention", RETENTIONS)
    def test_partly_evicted_index_keeps_its_live_tail(self, retention):
        store, model = self.pair(retention, 150)
        assert_same(store, model)
        self.feed(store, model, (retention or 10) // 2 + 1)
        assert_same(store, model)

    def test_jsonl_import_with_gaps_in_the_indexes(self):
        store, _ = self.pair(None, 120)
        lines = store.to_jsonl().splitlines()[5::3]
        back = TraceStore.from_jsonl("\n".join(lines))
        kept = [ev for ev in store if ev.index >= 5 and (ev.index - 5) % 3 == 0]
        assert list(back) == kept and back.total_recorded == kept[-1].index + 1
        for kind in KINDS:
            assert back.events(kind) == [ev for ev in kept if ev.kind == kind]
        for pid in PIDS:
            assert back.events(pid=pid) == [ev for ev in kept if ev.pid == pid]
        # recording goes on after the last imported index
        back.record(0.0, "custom", 0)
        assert back.events("custom")[-1].index == kept[-1].index + 1
