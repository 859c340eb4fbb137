"""Tests for MinBFT's tamper-evident view-change logs."""

from __future__ import annotations

import pytest

from repro.consensus.usig import USIG, USIGVerifier
from repro.consensus.viewchange import (
    SlotCandidate,
    compute_reproposals,
    extract_candidates,
    verify_log_from,
)
from repro.hardware.trinc import TrincAuthority


@pytest.fixture
def env():
    auth = TrincAuthority(3, seed=17)
    usigs = {p: USIG(auth.trinket(p)) for p in range(3)}
    verifier = USIGVerifier(auth)
    return usigs, verifier


def sent_log(usig, messages):
    return tuple((m, usig.create_ui(m)) for m in messages)


class TestVerifyLog:
    def test_full_log_verifies(self, env):
        usigs, verifier = env
        log = sent_log(usigs[0], [("PREPARE", 0, 1, "req"), ("COMMIT", 0, 2, "r", None)])
        entries = verify_log_from(verifier, 0, log, 1, 3)
        assert entries is not None and len(entries) == 2

    def test_omission_detected(self, env):
        """Dropping an entry breaks the consecutive-counter check — the
        property MinBFT's n=2f+1 view change rests on."""
        usigs, verifier = env
        log = sent_log(usigs[0], ["m1", "m2", "m3"])
        assert verify_log_from(verifier, 0, log[:2], 1, 4) is None
        assert verify_log_from(verifier, 0, (log[0], log[2]), 1, 3) is None

    def test_alteration_detected(self, env):
        usigs, verifier = env
        log = sent_log(usigs[0], ["m1", "m2"])
        tampered = ((log[0][0], log[0][1]), ("EVIL", log[1][1]))
        assert verify_log_from(verifier, 0, tampered, 1, 3) is None

    def test_wrong_replica_detected(self, env):
        usigs, verifier = env
        log = sent_log(usigs[0], ["m1"])
        assert verify_log_from(verifier, 1, log, 1, 2) is None

    def test_reordering_detected(self, env):
        usigs, verifier = env
        log = sent_log(usigs[0], ["m1", "m2"])
        assert verify_log_from(verifier, 0, (log[1], log[0]), 1, 3) is None

    def test_end_counter_mismatch(self, env):
        usigs, verifier = env
        log = sent_log(usigs[0], ["m1"])
        assert verify_log_from(verifier, 0, log, 1, 5) is None

    def test_junk_shapes(self, env):
        _, verifier = env
        assert verify_log_from(verifier, 0, "junk", 1, 1) is None
        assert verify_log_from(verifier, 0, (("m",),), 1, 2) is None


class TestCandidateExtraction:
    def test_prepare_and_commit_claims(self, env):
        usigs, verifier = env
        from repro.consensus.usig import UI

        prep_ui_msg = ("PREPARE", 0, 1, "reqA")
        log = sent_log(usigs[0], [prep_ui_msg])
        entries = verify_log_from(verifier, 0, log, 1, 2)
        cands = extract_candidates(entries)
        assert cands[1].request == "reqA" and cands[1].view == 0

    def test_higher_view_beats(self):
        a = SlotCandidate(view=1, prepare_counter=9, request="old")
        b = SlotCandidate(view=2, prepare_counter=1, request="new")
        assert b.beats(a) and not a.beats(b)

    def test_lower_counter_beats_within_view(self):
        """The UI-order-first PREPARE is the one correct replicas accepted."""
        first = SlotCandidate(view=1, prepare_counter=3, request="first")
        second = SlotCandidate(view=1, prepare_counter=4, request="second")
        assert first.beats(second) and not second.beats(first)

    def test_compute_reproposals_merges_logs(self, env):
        usigs, verifier = env
        log0 = sent_log(usigs[0], [("PREPARE", 0, 1, "r1"), ("PREPARE", 0, 2, "r2")])
        e0 = verify_log_from(verifier, 0, log0, 1, 3)
        # replica 1's log carries a commit for slot 2 only
        prepare_ui = e0[1][1] if isinstance(e0[1], tuple) else e0[1].ui
        log1 = sent_log(usigs[1], [("COMMIT", 0, 2, "r2", e0[1].ui)])
        e1 = verify_log_from(verifier, 1, log1, 1, 2)
        merged = compute_reproposals({0: e0, 1: e1})
        assert set(merged) == {1, 2}
        assert merged[1].request == "r1" and merged[2].request == "r2"
