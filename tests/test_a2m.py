"""Tests for native A2M devices and the TrInc-backed A2M reduction."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.crypto.serialize import crypto_stats
from repro.errors import AttestationError, ConfigurationError
from repro.hardware.a2m import A2MAuthority, A2MStatement, END, LOOKUP
from repro.hardware.a2m_from_trinc import (
    EndProof,
    LookupProof,
    TrincA2MChecker,
    TrincBackedA2M,
)
from repro.hardware.trinc import TrincAuthority


@pytest.fixture
def device():
    return A2MAuthority(2, seed=5).device(0)


@pytest.fixture
def authority_and_device():
    auth = A2MAuthority(2, seed=5)
    return auth, auth.device(0)


class TestNativeA2M:
    def test_create_append_lookup(self, authority_and_device):
        auth, d = authority_and_device
        log = d.create_log()
        assert d.append(log, "a") == 1
        assert d.append(log, "b") == 2
        s = d.lookup(log, 1, nonce="z")
        assert s.value == "a" and s.kind == LOOKUP and auth.check(s, 0)

    def test_lookup_out_of_range(self, device):
        log = device.create_log()
        device.append(log, "a")
        assert device.lookup(log, 0) is None
        assert device.lookup(log, 2) is None
        assert device.lookup(99, 1) is None

    def test_end_empty_and_nonempty(self, authority_and_device):
        auth, d = authority_and_device
        log = d.create_log()
        e0 = d.end(log, nonce=1)
        assert e0.index == 0 and e0.value is None and auth.check(e0, 0)
        d.append(log, "x")
        e1 = d.end(log, nonce=2)
        assert e1.index == 1 and e1.value == "x" and auth.check(e1, 0)

    def test_multiple_logs_independent(self, device):
        l1, l2 = device.create_log(), device.create_log()
        device.append(l1, "in-1")
        assert device.end(l2).index == 0
        assert device.log_ids() == (1, 2)

    def test_append_unknown_log(self, device):
        with pytest.raises(AttestationError):
            device.append(42, "x")

    def test_statement_tamper_rejected(self, authority_and_device):
        auth, d = authority_and_device
        log = d.create_log()
        d.append(log, "a")
        s = d.lookup(log, 1, nonce="z")
        forged = A2MStatement(s.device_id, s.kind, s.log_id, s.index, "evil",
                              s.nonce, s.tag)
        assert not auth.check(forged, 0)
        wrong_kind = A2MStatement(s.device_id, END, s.log_id, s.index, s.value,
                                  s.nonce, s.tag)
        assert not auth.check(wrong_kind, 0)
        e = d.end(log, nonce="z")
        for tag in (s.tag.hex(), None):  # a tag that is not bytes at all
            assert not auth.check(replace(s, tag=tag), 0)
            assert not auth.check(replace(e, tag=tag), 0)

    def test_attest_and_check_count_two_hmacs(self, authority_and_device):
        auth, d = authority_and_device
        log = d.create_log()
        d.append(log, "a")
        before = crypto_stats().hmac_ops
        assert auth.check(d.lookup(log, 1, nonce="z"), 0)
        assert crypto_stats().hmac_ops - before == 2

    def test_wrong_device_rejected(self, authority_and_device):
        auth, d = authority_and_device
        log = d.create_log()
        d.append(log, "a")
        assert not auth.check(d.lookup(log, 1), 1)

    def test_device_issued_once(self):
        auth = A2MAuthority(1, seed=0)
        auth.device(0)
        with pytest.raises(ConfigurationError):
            auth.device(0)


class TestTrincBackedA2M:
    @pytest.fixture
    def setup(self):
        auth = TrincAuthority(2, seed=9)
        host = TrincBackedA2M(auth.trinket(0))
        checker = TrincA2MChecker(auth)
        return auth, host, checker

    def test_lookup_proof_roundtrip(self, setup):
        _, host, checker = setup
        log = host.create_log()
        host.append(log, "a")
        host.append(log, "b")
        p = host.lookup(log, 2)
        assert isinstance(p, LookupProof)
        assert p.value == "b" and p.index == 2
        assert checker.check_lookup(p, 0, log, 2)

    def test_lookup_position_pinned(self, setup):
        _, host, checker = setup
        log = host.create_log()
        host.append(log, "a")
        host.append(log, "b")
        p = host.lookup(log, 1)
        assert not checker.check_lookup(p, 0, log, 2)
        assert not checker.check_lookup(p, 0, log + 1, 1)
        assert not checker.check_lookup(p, 1, log, 1)

    def test_end_proof_fresh_nonce(self, setup):
        _, host, checker = setup
        log = host.create_log()
        host.append(log, "a")
        p = host.end(log, nonce="challenge")
        assert isinstance(p, EndProof) and p.length == 1 and p.value == "a"
        assert checker.check_end(p, 0, log, nonce="challenge")
        assert not checker.check_end(p, 0, log, nonce="replayed")

    def test_end_proof_empty_log(self, setup):
        _, host, checker = setup
        log = host.create_log()
        p = host.end(log, nonce="n")
        assert p.length == 0 and p.last is None
        assert checker.check_end(p, 0, log, nonce="n")

    def test_end_proof_stale_last_rejected(self, setup):
        """A host cannot understate the log length: the status attestation
        pins the true counter, and a mismatched 'last' entry fails."""
        _, host, checker = setup
        log = host.create_log()
        host.append(log, "a")
        stale_end = host.end(log, nonce="n")  # length 1
        host.append(log, "b")
        fresh = host.end(log, nonce="n2")  # length 2, honest
        assert checker.check_end(fresh, 0, log, nonce="n2")
        # splice the old 'last' into a new status: lengths disagree
        forged = EndProof(status=fresh.status, last=stale_end.last)
        assert not checker.check_end(forged, 0, log, nonce="n2")

    def test_multiple_logs_use_distinct_counters(self, setup):
        _, host, checker = setup
        l1, l2 = host.create_log(), host.create_log()
        host.append(l1, "x")
        host.append(l2, "y")
        p1, p2 = host.lookup(l1, 1), host.lookup(l2, 1)
        assert checker.check_lookup(p1, 0, l1, 1)
        assert checker.check_lookup(p2, 0, l2, 1)
        assert not checker.check_lookup(p1, 0, l2, 1)

    def test_junk_rejected(self, setup):
        _, host, checker = setup
        assert not checker.check_lookup("junk", 0, 1, 1)
        assert not checker.check_end(("not", "an", "endproof"), 0, 1)
        log = host.create_log()
        host.append(log, "a")
        p, e = host.lookup(log, 1), host.end(log, nonce="z")
        for tag in (p.entry.tag.hex(), None):  # a tag that is not bytes
            entry = replace(p.entry, tag=tag)
            assert not checker.check_lookup(replace(p, entry=entry), 0, log, 1)
            assert not checker.check_end(replace(e, last=entry), 0, log, "z")
            status = replace(e.status, tag=tag)
            assert not checker.check_end(replace(e, status=status), 0, log, "z")
        assert checker.check_end(e, 0, log, "z")
