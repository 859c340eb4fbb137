"""Tests for TrInc trinkets and the attestation authority."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AttestationError, ConfigurationError
from repro.hardware.trinc import Attestation, StatusAttestation, TrincAuthority


@pytest.fixture
def auth():
    return TrincAuthority(3, seed=11)


class TestAttest:
    def test_first_attestation(self, auth):
        t = auth.trinket(0)
        a = t.attest(1, "m")
        assert a is not None and a.prev == 0 and a.seq == 1
        assert auth.check(a, 0)

    def test_monotone_refusal(self, auth):
        t = auth.trinket(0)
        assert t.attest(5, "m") is not None
        assert t.attest(5, "other") is None
        assert t.attest(4, "other") is None
        assert t.attest_refusals == 2

    def test_skipping_allowed_and_prev_recorded(self, auth):
        t = auth.trinket(0)
        t.attest(2, "a")
        a = t.attest(10, "b")
        assert a.prev == 2 and a.seq == 10

    def test_independent_counters(self, auth):
        t = auth.trinket(0)
        a0 = t.attest(1, "m", counter_id=0)
        a1 = t.attest(1, "m", counter_id=1)
        assert a0 is not None and a1 is not None
        assert t.last_seq(0) == 1 and t.last_seq(1) == 1 and t.last_seq(2) == 0

    def test_invalid_inputs(self, auth):
        t = auth.trinket(0)
        with pytest.raises(AttestationError):
            t.attest(0, "m")
        with pytest.raises(AttestationError):
            t.attest("x", "m")
        with pytest.raises(AttestationError):
            t.attest(1, "m", counter_id=-1)


class TestCheck:
    def test_wrong_trinket_rejected(self, auth):
        a = auth.trinket(0).attest(1, "m")
        assert not auth.check(a, 1)

    def test_tampered_message_rejected(self, auth):
        a = auth.trinket(0).attest(1, "m")
        forged = Attestation(a.trinket_id, a.counter_id, a.prev, a.seq, "evil", a.tag)
        assert not auth.check(forged, 0)

    def test_tampered_seq_rejected(self, auth):
        a = auth.trinket(0).attest(1, "m")
        forged = Attestation(a.trinket_id, a.counter_id, 1, 2, a.message, a.tag)
        assert not auth.check(forged, 0)

    def test_nonsense_shapes_rejected(self, auth):
        assert not auth.check("junk", 0)
        assert not auth.check(None, 0)
        a = auth.trinket(1).attest(1, "m")
        bad_prev = Attestation(1, 0, -1, 1, "m", a.tag)
        assert not auth.check(bad_prev, 1)
        s = auth.trinket(2).status(nonce="n")
        for tag in (a.tag.hex(), None):  # a tag that is not bytes at all
            assert not auth.check(replace(a, tag=tag), 1)
            assert not auth.check_status(replace(s, tag=tag), 2)

    def test_cross_authority_rejected(self):
        a1 = TrincAuthority(2, seed=1)
        a2 = TrincAuthority(2, seed=2)
        att = a1.trinket(0).attest(1, "m")
        assert not a2.check(att, 0)


class TestStatus:
    def test_status_reflects_counter(self, auth):
        t = auth.trinket(0)
        s0 = t.status(nonce="n")
        assert s0.value == 0 and auth.check_status(s0, 0)
        t.attest(3, "m")
        s1 = t.status(nonce="n")
        assert s1.value == 3 and auth.check_status(s1, 0)

    def test_status_does_not_advance(self, auth):
        t = auth.trinket(0)
        t.status()
        assert t.attest(1, "m") is not None

    def test_status_nonce_bound(self, auth):
        t = auth.trinket(0)
        s = t.status(nonce="fresh")
        forged = StatusAttestation(s.trinket_id, s.counter_id, s.value, "stale", s.tag)
        assert not auth.check_status(forged, 0)

    def test_status_wrong_device(self, auth):
        s = auth.trinket(0).status()
        assert not auth.check_status(s, 1)


class TestIssuance:
    def test_trinket_issued_once(self, auth):
        auth.trinket(2)
        with pytest.raises(ConfigurationError):
            auth.trinket(2)

    def test_out_of_range(self, auth):
        with pytest.raises(ConfigurationError):
            auth.trinket(3)

    def test_zero_devices_rejected(self):
        with pytest.raises(ConfigurationError):
            TrincAuthority(0)


class TestNonEquivocationProperty:
    @given(st.lists(st.tuples(st.integers(1, 30), st.text(max_size=4)), max_size=20))
    @settings(max_examples=60)
    def test_at_most_one_attestation_per_counter_value(self, calls):
        """However the host drives Attest, no counter value binds two messages."""
        auth = TrincAuthority(1, seed=42)
        t = auth.trinket(0)
        issued = {}
        for c, m in calls:
            a = t.attest(c, m)
            if a is not None:
                assert auth.check(a, 0)
                assert a.seq not in issued
                issued[a.seq] = m

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_counter_strictly_increases(self, seqs):
        auth = TrincAuthority(1, seed=7)
        t = auth.trinket(0)
        last = 0
        for c in seqs:
            a = t.attest(c, "m")
            if a is not None:
                assert a.seq > last and a.prev == last
                last = a.seq
            else:
                assert c <= last
