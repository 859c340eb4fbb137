"""Tests for the trace store and indistinguishability views."""

from __future__ import annotations

from repro.sim.trace import TraceStore


def build_trace(events):
    t = TraceStore()
    for time, kind, pid, fields in events:
        t.record(time, kind, pid, **fields)
    return t


class TestQueries:
    def test_filter_by_kind_and_pid(self):
        t = build_trace([
            (1.0, "send", 0, {"dst": 1, "msg": "a"}),
            (2.0, "deliver", 1, {"src": 0, "msg": "a"}),
            (3.0, "send", 1, {"dst": 0, "msg": "b"}),
        ])
        assert len(t.events("send")) == 2
        assert len(t.events("send", pid=0)) == 1
        assert len(t.events(pid=1)) == 2

    def test_predicate_filter(self):
        t = build_trace([
            (1.0, "custom", 0, {"event": "x"}),
            (2.0, "custom", 0, {"event": "y"}),
        ])
        assert len(t.events("custom", predicate=lambda e: e.field("event") == "y")) == 1

    def test_decisions(self):
        t = build_trace([
            (1.0, "decide", 0, {"value": "v"}),
            (2.0, "decide", 1, {"value": "w"}),
        ])
        ds = t.decisions()
        assert [(d.pid, d.value) for d in ds] == [(0, "v"), (1, "w")]
        assert t.decision_of(1).value == "w"
        assert t.decision_of(5) is None

    def test_broadcast_deliveries(self):
        t = build_trace([
            (1.0, "bcast_deliver", 2, {"sender": 0, "seq": 1, "value": "m"}),
        ])
        d = t.broadcast_deliveries()[0]
        assert (d.receiver, d.sender, d.seq, d.value) == (2, 0, 1, "m")

    def test_dump_is_readable_and_truncates(self):
        t = build_trace([(float(i), "send", 0, {"dst": 1}) for i in range(10)])
        out = t.dump(limit=3)
        assert "7 more events" in out


class TestViews:
    def test_views_ignore_time(self):
        t1 = build_trace([(1.0, "deliver", 0, {"src": 1, "msg": "m"})])
        t2 = build_trace([(9.0, "deliver", 0, {"src": 1, "msg": "m"})])
        assert t1.local_view(0) == t2.local_view(0)

    def test_views_are_ordered(self):
        t1 = build_trace([
            (1.0, "deliver", 0, {"src": 1, "msg": "a"}),
            (2.0, "deliver", 0, {"src": 2, "msg": "b"}),
        ])
        t2 = build_trace([
            (1.0, "deliver", 0, {"src": 2, "msg": "b"}),
            (2.0, "deliver", 0, {"src": 1, "msg": "a"}),
        ])
        assert t1.local_view(0) != t2.local_view(0)

    def test_views_exclude_other_processes(self):
        t1 = build_trace([
            (1.0, "deliver", 0, {"src": 1, "msg": "m"}),
            (2.0, "deliver", 5, {"src": 1, "msg": "other"}),
        ])
        t2 = build_trace([(1.0, "deliver", 0, {"src": 1, "msg": "m"})])
        assert t1.local_view(0) == t2.local_view(0)

    def test_views_exclude_linearization_points(self):
        t1 = build_trace([
            (1.0, "op_invoke", 0, {"handle": 0, "object": "r", "op": "read", "args": ()}),
            (2.0, "op_linearize", 0, {"handle": 0, "object": "r", "op": "read", "ok": True}),
            (3.0, "op_respond", 0, {"handle": 0, "object": "r", "op": "read"}),
        ])
        t2 = build_trace([
            (1.0, "op_invoke", 0, {"handle": 0, "object": "r", "op": "read", "args": ()}),
            (3.0, "op_respond", 0, {"handle": 0, "object": "r", "op": "read"}),
        ])
        assert t1.local_view(0) == t2.local_view(0)

    def test_views_equal_and_differing(self):
        t1 = build_trace([(1.0, "deliver", 0, {"src": 1, "msg": "m"})])
        t2 = build_trace([(1.0, "deliver", 0, {"src": 1, "msg": "M"})])
        assert not t1.views_equal(t2, [0])
        assert t1.differing_views(t2, [0, 1]) == [0]
