"""Tests for the deadline monitor and the streaming liveness auditors."""

from __future__ import annotations

import random

import pytest

from repro.consensus.safety import (
    ReplicationLivenessChecker,
    check_replication_liveness,
)
from repro.core.srb import SRBLivenessChecker, check_srb_liveness
from repro.errors import ConfigurationError, PropertyViolation
from repro.sim.liveness import DeadlineMonitor
from repro.sim.trace import BCAST, BCAST_DELIVER, CUSTOM, TraceStore


class TestDeadlineMonitor:
    def test_satisfied_before_deadline_is_clean(self):
        m = DeadlineMonitor()
        m.expect("a", 10.0, "a late")
        assert m.satisfy("a")
        assert m.advance(100.0) == []

    def test_expiry_is_permanent(self):
        m = DeadlineMonitor()
        m.expect("a", 10.0, "a late")
        expired = m.advance(10.5)
        assert [ob.key for ob in expired] == ["a"]
        # satisfying after expiry neither crashes nor resurrects it
        assert not m.satisfy("a")

    def test_deadline_is_exclusive(self):
        m = DeadlineMonitor()
        m.expect("a", 10.0, "a late")
        assert m.advance(10.0) == []  # due *at* 10 is not yet violated
        assert [ob.key for ob in m.advance(10.0 + 1e-9)] == ["a"]

    def test_reregistration_keeps_laxer_deadline(self):
        m = DeadlineMonitor()
        m.expect("a", 10.0, "first")
        m.expect("a", 5.0, "tighter must not win")
        assert m.advance(7.0) == []
        m.expect("a", 20.0, "laxer wins")
        assert m.advance(15.0) == []
        assert [ob.message for ob in m.advance(25.0)] == ["laxer wins"]

    def test_flush_splits_violated_and_unresolved(self):
        m = DeadlineMonitor()
        m.expect("due", 10.0, "due")
        m.expect("beyond", 50.0, "beyond the run")
        violated, unresolved = m.flush(20.0)
        assert [ob.key for ob in violated] == ["due"]
        assert [ob.key for ob in unresolved] == ["beyond"]
        assert len(m) == 0

    def test_pending_sorted_by_deadline(self):
        m = DeadlineMonitor()
        m.expect("b", 20.0, "b")
        m.expect("a", 10.0, "a")
        assert [ob.key for ob in m.pending()] == ["a", "b"]

    def test_sweeping_discharged_obligations_keeps_expiry_order(self):
        """Far more discharges than live obligations, so the heap is
        rebuilt many times; what expires, and in what order, is still a
        plain sort of the live obligations by (deadline, registration)."""
        rng = random.Random(7)
        m, model, seq = DeadlineMonitor(), {}, 0
        for now in range(0, 2_000, 50):
            for _ in range(60):
                key, deadline = rng.randrange(300), float(now + rng.randrange(400))
                m.expect(key, deadline, f"{key}@{deadline}")
                if key not in model or deadline > model[key][0]:
                    model[key] = (deadline, seq, f"{key}@{deadline}")
                    seq += 1
                gone = rng.randrange(300)
                assert m.satisfy(gone) == (model.pop(gone, None) is not None)
            assert len(m._heap) <= max(128, 2 * len(m))
            due = sorted((v, k) for k, v in model.items() if v[0] < now)
            for _, key in due:
                del model[key]
            assert [ob.message for ob in m.advance(float(now))] == [
                v[2] for v, _ in due]
        assert len(m) == len(model)


def _custom(trace, time, pid, **fields):
    trace.record(time, CUSTOM, pid, **fields)


class TestReplicationLivenessChecker:
    def _checker(self, **kw):
        args = dict(
            gst=100.0,
            request_bound=50.0,
            fault_free_replicas=[0, 1, 2],
            fault_free_clients=[3],
            f=1,
        )
        args.update(kw)
        return ReplicationLivenessChecker(**args)

    def test_pre_gst_request_owes_nothing_until_gst_plus_bound(self):
        c = self._checker()
        t = TraceStore()
        _custom(t, 5.0, 3, event="request_sent", req_id=1)
        _custom(t, 120.0, 3, event="request_done", req_id=1, result=1, latency=115.0)
        report = c.consume(t).finish(end_time=600.0)
        assert report.ok
        assert report.obligations_satisfied == 1

    def test_missed_request_deadline_is_flagged(self):
        c = self._checker()
        t = TraceStore()
        _custom(t, 5.0, 3, event="request_sent", req_id=1)
        report = c.consume(t).finish(end_time=600.0)
        assert not report.ok
        assert "never completed" in report.violations[0]

    def test_request_past_end_of_run_is_unresolved_not_violated(self):
        c = self._checker()
        t = TraceStore()
        _custom(t, 5.0, 3, event="request_sent", req_id=1)
        report = c.consume(t).finish(end_time=120.0)  # deadline is 150
        assert report.ok
        assert len(report.unresolved) == 1

    def test_lone_view_change_starter_is_not_an_obligation(self):
        # a single stuck replica whose quorum partners crashed is legal
        c = self._checker()
        t = TraceStore()
        _custom(t, 110.0, 0, event="view_change_start", new_view=1)
        report = c.consume(t).finish(end_time=600.0)
        assert report.ok
        assert report.obligations_armed == 0

    def test_quorum_backed_view_change_must_terminate(self):
        c = self._checker()
        t = TraceStore()
        _custom(t, 110.0, 0, event="view_change_start", new_view=1)
        _custom(t, 112.0, 1, event="view_change_start", new_view=1)  # f+1 backing
        report = c.consume(t).finish(end_time=600.0)
        assert not report.ok
        assert "view change to view 1" in report.violations[0]

    def test_adoption_satisfies_all_lower_targets(self):
        c = self._checker()
        t = TraceStore()
        _custom(t, 110.0, 0, event="view_change_start", new_view=1)
        _custom(t, 112.0, 1, event="view_change_start", new_view=1)
        _custom(t, 120.0, 2, event="view_adopted", view=2)
        report = c.consume(t).finish(end_time=600.0)
        assert report.ok
        assert report.obligations_satisfied == 1

    def test_streaming_fail_fast_aborts_at_expiry(self):
        c = self._checker(fail_fast=True)
        t = TraceStore()
        t.subscribe(c)
        _custom(t, 5.0, 3, event="request_sent", req_id=1)
        with pytest.raises(PropertyViolation):
            # first event past the 150.0 deadline proves the violation
            _custom(t, 200.0, 0, event="execute", seq=1, client=3,
                    req_id=9, op=("add", 1), result=1)

    def test_batch_equals_streaming_verdict(self):
        t = TraceStore()
        stream = self._checker()
        t.subscribe(stream)
        _custom(t, 5.0, 3, event="request_sent", req_id=1)
        _custom(t, 110.0, 3, event="request_done", req_id=1, result=1, latency=105.0)
        _custom(t, 120.0, 3, event="request_sent", req_id=2)  # never completes
        _custom(t, 110.0 + 300.0, 0, event="view_adopted", view=0)
        s_report = stream.finish(end_time=600.0)
        b_report = check_replication_liveness(
            t, gst=100.0, request_bound=50.0,
            fault_free_replicas=[0, 1, 2], fault_free_clients=[3], f=1,
            end_time=600.0,
        )
        assert s_report.violations == b_report.violations
        assert s_report.unresolved == b_report.unresolved
        assert s_report.ok == b_report.ok

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            self._checker(request_bound=0.0)


class TestSRBLivenessChecker:
    def test_delivered_everywhere_is_clean(self):
        t = TraceStore()
        t.record(5.0, BCAST, 0, seq=1, value="m")
        for p in (0, 1, 2):
            t.record(30.0, BCAST_DELIVER, p, sender=0, seq=1, value="m")
        report = check_srb_liveness(
            t, gst=20.0, bound=50.0, fault_free=[0, 1, 2], end_time=600.0
        )
        assert report.ok
        assert report.obligations_satisfied == 3

    def test_missing_receiver_is_flagged(self):
        t = TraceStore()
        t.record(5.0, BCAST, 0, seq=1, value="m")
        t.record(30.0, BCAST_DELIVER, 0, sender=0, seq=1, value="m")
        t.record(31.0, BCAST_DELIVER, 1, sender=0, seq=1, value="m")
        report = check_srb_liveness(
            t, gst=20.0, bound=50.0, fault_free=[0, 1, 2], end_time=600.0
        )
        assert not report.ok
        assert "process 2" in report.violations[0]

    def test_faulty_sender_and_receiver_owe_nothing(self):
        t = TraceStore()
        t.record(5.0, BCAST, 3, seq=1, value="m")  # 3 is not fault-free
        report = check_srb_liveness(
            t, gst=20.0, bound=50.0, fault_free=[0, 1, 2], end_time=600.0
        )
        assert report.ok
        assert report.obligations_armed == 0

    def test_batch_equals_streaming_verdict(self):
        t = TraceStore()
        stream = SRBLivenessChecker(gst=20.0, bound=50.0, fault_free=[0, 1])
        t.subscribe(stream)
        t.record(5.0, BCAST, 0, seq=1, value="m1")
        t.record(25.0, BCAST_DELIVER, 0, sender=0, seq=1, value="m1")
        t.record(26.0, BCAST_DELIVER, 1, sender=0, seq=1, value="m1")
        t.record(30.0, BCAST, 0, seq=2, value="m2")
        t.record(31.0, BCAST_DELIVER, 0, sender=0, seq=2, value="m2")
        # pid 1 never delivers seq 2
        s_report = stream.finish(end_time=600.0)
        b_report = check_srb_liveness(
            t, gst=20.0, bound=50.0, fault_free=[0, 1], end_time=600.0
        )
        assert s_report.violations == b_report.violations
        assert s_report.ok == b_report.ok
        assert not s_report.ok
