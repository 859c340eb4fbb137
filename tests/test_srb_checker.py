"""Unit tests for the SRB property checker on synthetic traces."""

from __future__ import annotations

import pytest

from repro.core.srb import check_srb, deliveries_by_process
from repro.errors import PropertyViolation
from repro.sim.trace import TraceStore


def trace_of(broadcasts, deliveries):
    """broadcasts: [(seq, value)]; deliveries: [(receiver, seq, value)]."""
    t = TraceStore()
    time = 0.0
    for seq, value in broadcasts:
        t.record(time, "bcast", 0, seq=seq, value=value)
        time += 1.0
    for receiver, seq, value in deliveries:
        t.record(time, "bcast_deliver", receiver, sender=0, seq=seq, value=value)
        time += 1.0
    return t


CORRECT = [0, 1, 2]


def full_delivery(broadcasts):
    return [(p, seq, v) for p in CORRECT for seq, v in broadcasts]


class TestHappyPath:
    def test_clean_run_passes(self):
        bs = [(1, "a"), (2, "b")]
        rep = check_srb(trace_of(bs, full_delivery(bs)), 0, CORRECT)
        assert rep.ok
        rep.assert_ok()

    def test_deliveries_by_process_helper(self):
        bs = [(1, "a")]
        t = trace_of(bs, full_delivery(bs))
        assert deliveries_by_process(t, 0) == {p: [(1, "a")] for p in CORRECT}


class TestValidity:
    def test_missing_delivery_flagged(self):
        bs = [(1, "a")]
        dv = [(0, 1, "a"), (1, 1, "a")]  # process 2 never delivers
        rep = check_srb(trace_of(bs, dv), 0, CORRECT)
        assert rep.validity_violations and rep.agreement_violations

    def test_byzantine_sender_waives_validity(self):
        bs = [(1, "a")]
        rep = check_srb(trace_of(bs, []), 0, CORRECT, sender_correct=False)
        assert rep.ok

    def test_truncated_run_waives_liveness(self):
        bs = [(1, "a")]
        rep = check_srb(trace_of(bs, [(0, 1, "a")]), 0, CORRECT,
                        expect_complete=False)
        assert rep.ok


class TestAgreement:
    def test_conflicting_values_flagged(self):
        bs = [(1, "a")]
        dv = [(0, 1, "a"), (1, 1, "b"), (2, 1, "a")]
        rep = check_srb(trace_of(bs, dv), 0, CORRECT, sender_correct=False,
                        expect_complete=False)
        assert rep.agreement_violations

    def test_relay_gap_flagged(self):
        bs = [(1, "a")]
        dv = [(0, 1, "a")]
        rep = check_srb(trace_of(bs, dv), 0, CORRECT, sender_correct=False)
        assert any("never by" in v for v in rep.agreement_violations)


class TestSequencing:
    def test_gap_flagged(self):
        bs = [(1, "a"), (2, "b")]
        dv = [(0, 2, "b")]  # delivered 2 without 1
        rep = check_srb(trace_of(bs, dv), 0, CORRECT, expect_complete=False)
        assert rep.sequencing_violations

    def test_out_of_order_flagged(self):
        bs = [(1, "a"), (2, "b")]
        dv = [(0, 2, "b"), (0, 1, "a")]
        rep = check_srb(trace_of(bs, dv), 0, CORRECT, expect_complete=False)
        assert rep.sequencing_violations

    def test_duplicate_seq_flagged(self):
        bs = [(1, "a")]
        dv = [(0, 1, "a"), (0, 1, "a")]
        rep = check_srb(trace_of(bs, dv), 0, CORRECT, expect_complete=False)
        assert rep.sequencing_violations


class TestIntegrity:
    def test_unbroadcast_value_flagged(self):
        bs = [(1, "a")]
        dv = [(0, 1, "forged")]
        rep = check_srb(trace_of(bs, dv), 0, CORRECT, expect_complete=False)
        assert rep.integrity_violations

    def test_byzantine_sender_integrity_checks_production(self):
        bs = [(1, "a"), (1, "b")]  # byzantine double-bcast records both
        dv = [(0, 1, "b")]
        rep = check_srb(trace_of(bs, dv), 0, CORRECT, sender_correct=False,
                        expect_complete=False)
        assert not rep.integrity_violations
        dv2 = [(0, 1, "never-produced")]
        rep2 = check_srb(trace_of(bs, dv2), 0, CORRECT, sender_correct=False,
                         expect_complete=False)
        assert rep2.integrity_violations


class TestReporting:
    def test_assert_ok_raises_with_summary(self):
        bs = [(1, "a")]
        rep = check_srb(trace_of(bs, []), 0, CORRECT)
        with pytest.raises(PropertyViolation, match="SRB"):
            rep.assert_ok()

    def test_all_violations_prefixed(self):
        bs = [(1, "a")]
        dv = [(0, 1, "forged")]
        rep = check_srb(trace_of(bs, dv), 0, CORRECT, expect_complete=False)
        assert all(":" in v for v in rep.all_violations())
