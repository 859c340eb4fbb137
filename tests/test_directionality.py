"""Unit tests for the directionality checker on synthetic traces."""

from __future__ import annotations

from repro.core.directionality import (
    BIDIRECTIONAL,
    UNIDIRECTIONAL,
    ZERO_DIRECTIONAL,
    check_directionality,
)
from repro.errors import PropertyViolation
from repro.sim.trace import TraceStore

import pytest


def trace_of(events):
    """events: list of (kind, pid, fields) in order; times auto-increment."""
    t = TraceStore()
    for i, (kind, pid, fields) in enumerate(events):
        t.record(float(i), kind, pid, **fields)
    return t


def sent(pid, r, payload="m"):
    return ("round_sent", pid, {"round": r, "payload": payload})


def recv(pid, r, src, payload="m"):
    return ("round_recv", pid, {"round": r, "src": src, "payload": payload})


def end(pid, r):
    return ("round_end", pid, {"round": r})


class TestClassification:
    def test_both_received_is_bidirectional(self):
        t = trace_of([
            sent(0, 1), sent(1, 1),
            recv(0, 1, 1), recv(1, 1, 0),
            end(0, 1), end(1, 1),
        ])
        rep = check_directionality(t, [0, 1])
        assert rep.classify() == BIDIRECTIONAL
        assert rep.pairs_checked == 1

    def test_one_direction_is_unidirectional(self):
        t = trace_of([
            sent(0, 1), sent(1, 1),
            recv(1, 1, 0),
            end(0, 1), end(1, 1),
        ])
        rep = check_directionality(t, [0, 1])
        assert rep.classify() == UNIDIRECTIONAL
        assert len(rep.bidirectional_violations) == 1

    def test_neither_is_zero_directional(self):
        t = trace_of([
            sent(0, 1), sent(1, 1),
            end(0, 1), end(1, 1),
        ])
        rep = check_directionality(t, [0, 1])
        assert rep.classify() == ZERO_DIRECTIONAL
        with pytest.raises(PropertyViolation):
            rep.assert_unidirectional()

    def test_receive_after_end_does_not_count(self):
        t = trace_of([
            sent(0, 1), sent(1, 1),
            end(0, 1), end(1, 1),
            recv(0, 1, 1), recv(1, 1, 0),  # both too late
        ])
        rep = check_directionality(t, [0, 1])
        assert not rep.is_unidirectional

    def test_one_late_one_in_time_is_unidirectional(self):
        t = trace_of([
            sent(0, 1), sent(1, 1),
            recv(1, 1, 0),
            end(0, 1), end(1, 1),
            recv(0, 1, 1),  # late, but 1 already heard 0 in time
        ])
        rep = check_directionality(t, [0, 1])
        assert rep.is_unidirectional


class TestObligationScoping:
    def test_unfinished_round_imposes_no_uni_obligation(self):
        t = trace_of([
            sent(0, 1), sent(1, 1),
            end(0, 1),  # process 1 never ends round 1
        ])
        rep = check_directionality(t, [0, 1])
        assert rep.is_unidirectional

    def test_unfinished_receiver_skips_bidirectional_check(self):
        t = trace_of([sent(0, 1), end(0, 1), sent(1, 1)])
        rep = check_directionality(t, [0, 1])
        # 1 never ended, so no obligation on 1; 0 ended without 1's message
        assert len(rep.bidirectional_violations) == 1
        assert rep.bidirectional_violations[0].detail.startswith("0 ended")

    def test_one_sided_send_checked_for_bidirectional_only(self):
        t = trace_of([sent(0, 1), end(0, 1), end(1, 1)])
        rep = check_directionality(t, [0, 1])
        assert rep.pairs_checked == 0  # uni premise needs both to send
        assert len(rep.bidirectional_violations) == 1

    def test_byzantine_excluded(self):
        t = trace_of([
            sent(0, 1), sent(1, 1), sent(2, 1),
            recv(0, 1, 1), recv(1, 1, 0),
            end(0, 1), end(1, 1), end(2, 1),
        ])
        rep = check_directionality(t, [0, 1])  # 2 not in correct set
        assert rep.is_unidirectional

    def test_rounds_checked_counts_labels(self):
        t = trace_of([
            sent(0, "a"), end(0, "a"),
            sent(0, ("b", 1)), end(0, ("b", 1)),
        ])
        rep = check_directionality(t, [0])
        assert rep.rounds_checked == 2

    def test_separate_labels_independent(self):
        t = trace_of([
            sent(0, "a"), sent(1, "b"),  # different labels: no pair obligation
            end(0, "a"), end(1, "b"),
        ])
        rep = check_directionality(t, [0, 1])
        assert rep.pairs_checked == 0 and rep.is_unidirectional

    def test_violation_details_name_pair_and_round(self):
        t = trace_of([
            sent(0, 7), sent(1, 7),
            end(0, 7), end(1, 7),
        ])
        rep = check_directionality(t, [0, 1])
        v = rep.unidirectional_violations[0]
        assert (v.p, v.q, v.round) == (0, 1, 7)
