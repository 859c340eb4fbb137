"""Tests for Algorithm 1: SRB from unidirectional rounds."""

from __future__ import annotations

import pytest

from repro.core.srb import check_srb
from repro.core.srb_from_uni import (
    SRBFromUnidirectional,
    build_sm_srb_system,
    copy_domain,
    l1_domain,
    val_domain,
    validate_copies,
    validate_l2,
)
from repro.crypto import SignatureScheme
from repro.errors import ConfigurationError


def run_happy(n, t, messages, seed, crash=None, horizon=500.0):
    sim, procs, scheme = build_sm_srb_system(n=n, t=t, sender=0, seed=seed)
    for i, m in enumerate(messages):
        sim.at(0.5 + 0.3 * i, lambda m=m: procs[0].broadcast(m))
    if crash is not None:
        pid, when = crash
        sim.crash_at(pid, when)
    sim.run(until=horizon)
    return sim, procs, scheme


class TestHappyPath:
    def test_single_message(self):
        sim, procs, _ = run_happy(3, 1, ["hello"], seed=1)
        rep = check_srb(sim.trace, 0, range(3))
        rep.assert_ok()
        assert len(rep.deliveries) == 3

    def test_stream_in_order(self):
        sim, procs, _ = run_happy(3, 1, ["a", "b", "c", "d"], seed=2)
        rep = check_srb(sim.trace, 0, range(3))
        rep.assert_ok()
        per_proc = {}
        for d in rep.deliveries:
            per_proc.setdefault(d.receiver, []).append((d.seq, d.value))
        for p, seq in per_proc.items():
            assert seq == [(1, "a"), (2, "b"), (3, "c"), (4, "d")]

    def test_larger_system(self):
        sim, procs, _ = run_happy(7, 3, ["x", "y"], seed=3, horizon=800.0)
        rep = check_srb(sim.trace, 0, range(7))
        rep.assert_ok()
        assert len(rep.deliveries) == 14

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_seed_sweep(self, seed):
        sim, procs, _ = run_happy(5, 2, ["m1", "m2"], seed=seed)
        check_srb(sim.trace, 0, range(5)).assert_ok()


class TestPipelining:
    def test_latency_stays_flat_under_a_burst(self):
        """Instances pipeline per sequence number, so a broadcast's latency
        is a constant number of rounds, not a place in a queue: 40
        broadcasts 0.5 apart, and the last is delivered everywhere within
        3x the first's latency (a one-instance-at-a-time engine grows it
        with every broadcast queued ahead)."""
        n, count = 4, 40
        sim, procs, _ = build_sm_srb_system(n=n, t=1, sender=0, seed=0)
        for i in range(count):
            sim.at(0.5 * i, lambda i=i: procs[0].broadcast(("v", i)))
        sim.run(until=2_000.0)
        rep = check_srb(sim.trace, 0, range(n))
        rep.assert_ok()
        assert len(rep.deliveries) == n * count
        sent = {e.field("seq"): e.time for e in sim.trace.events("bcast")}
        done: dict = {}
        for e in sim.trace.events("bcast_deliver"):
            done[e.field("seq")] = max(done.get(e.field("seq"), 0.0), e.time)
        first, last = (done[k] - sent[k] for k in (1, count))
        assert last <= 3 * first, (first, last)


class TestCrashFaults:
    def test_one_crash_at_t2(self):
        sim, procs, _ = run_happy(5, 2, ["a", "b"], seed=4, crash=(4, 1.0))
        rep = check_srb(sim.trace, 0, range(4))
        rep.assert_ok()

    def test_t_crashes(self):
        sim, procs, scheme = build_sm_srb_system(n=5, t=2, sender=0, seed=5)
        sim.at(0.5, lambda: procs[0].broadcast("survives"))
        sim.crash_at(3, 1.0)
        sim.crash_at(4, 2.0)
        sim.run(until=800.0)
        rep = check_srb(sim.trace, 0, range(3))
        rep.assert_ok()
        assert len(rep.deliveries) == 3

    def test_non_sender_payloads_before_crash_harmless(self):
        sim, procs, _ = run_happy(5, 2, ["a"], seed=6, crash=(2, 0.6))
        rep = check_srb(sim.trace, 0, [0, 1, 3, 4])
        rep.assert_ok()


class TestByzantineSender:
    def _equiv_factory(self, t):
        class EquivSender(SRBFromUnidirectional):
            def equivocate(self, m1, m2):
                s1 = self.signer.sign(val_domain(self.pid, 1, m1))
                s2 = self.signer.sign(val_domain(self.pid, 1, m2))
                self.ctx.record("bcast", seq=1, value=m1)
                self.ctx.record("bcast", seq=1, value=m2)
                self.rounds.post(("VAL", 1, m1, s1))
                self.rounds.post(("VAL", 1, m2, s2))

        def factory(pid, transport, scheme, signer):
            cls = EquivSender if pid == 0 else SRBFromUnidirectional
            return cls(transport, 0, t, scheme, signer)

        return factory

    def test_double_signing_never_splits_correct_processes(self):
        sim, procs, _ = build_sm_srb_system(
            n=5, t=2, sender=0, seed=7, process_factory=self._equiv_factory(2)
        )
        sim.declare_byzantine(0)
        sim.at(0.5, lambda: procs[0].equivocate("good", "evil"))
        sim.run(until=500.0)
        rep = check_srb(sim.trace, 0, [1, 2, 3, 4], sender_correct=False)
        assert not rep.agreement_violations
        assert not rep.sequencing_violations
        assert not rep.integrity_violations

    def test_silent_sender_no_delivery(self):
        sim, procs, _ = build_sm_srb_system(n=3, t=1, sender=0, seed=8)
        sim.declare_byzantine(0)
        sim.crash(0)
        sim.run(until=200.0)
        rep = check_srb(sim.trace, 0, [1, 2], sender_correct=False)
        assert rep.ok and not rep.deliveries


class TestValidation:
    def test_validate_copies_needs_distinct_signers(self):
        scheme = SignatureScheme(4, seed=1)
        signers = [scheme.signer(p) for p in range(4)]
        sig = signers[1].sign(copy_domain(0, 1, "m"))
        copies = ((1, sig), (1, sig))
        assert not validate_copies(scheme, 0, 1, "m", copies, t=1)
        sig2 = signers[2].sign(copy_domain(0, 1, "m"))
        assert validate_copies(scheme, 0, 1, "m", ((1, sig), (2, sig2)), t=1)

    def test_validate_copies_wrong_value(self):
        scheme = SignatureScheme(4, seed=2)
        s1 = scheme.signer(1).sign(copy_domain(0, 1, "m"))
        s2 = scheme.signer(2).sign(copy_domain(0, 1, "m"))
        assert not validate_copies(scheme, 0, 1, "OTHER", ((1, s1), (2, s2)), t=1)

    def test_validate_l2_rejects_garbage(self):
        scheme = SignatureScheme(4, seed=3)
        assert validate_l2(scheme, 0, "junk", 1) is None
        assert validate_l2(scheme, 0, ("L2", 0, "m", None, ()), 1) is None

    def test_validate_l2_full_proof(self):
        scheme = SignatureScheme(4, seed=4)
        signers = [scheme.signer(p) for p in range(4)]
        k, m, t = 1, "value", 1
        sig_s = signers[0].sign(val_domain(0, k, m))
        copies = tuple(
            (j, signers[j].sign(copy_domain(0, k, m))) for j in (1, 2)
        )
        l1items = tuple(
            (b, copies, signers[b].sign(l1_domain(0, k, m))) for b in (1, 2)
        )
        proof = ("L2", k, m, sig_s, l1items)
        assert validate_l2(scheme, 0, proof, t) == (k, m)
        # too few builders
        assert validate_l2(scheme, 0, ("L2", k, m, sig_s, l1items[:1]), t) is None

    def test_builder_signature_binds_value(self):
        """An L1 signature for value m must not certify value m'."""
        scheme = SignatureScheme(4, seed=5)
        signers = [scheme.signer(p) for p in range(4)]
        k, t = 1, 1
        sig_s = signers[0].sign(val_domain(0, k, "m2"))
        copies_m2 = tuple(
            (j, signers[j].sign(copy_domain(0, k, "m2"))) for j in (1, 2)
        )
        # builder signatures made for a DIFFERENT value m1
        l1items = tuple(
            (b, copies_m2, signers[b].sign(l1_domain(0, k, "m1"))) for b in (1, 2)
        )
        assert validate_l2(scheme, 0, ("L2", k, "m2", sig_s, l1items), t) is None


class TestConfiguration:
    def test_bound_enforced(self):
        with pytest.raises(ConfigurationError, match="2t\\+1"):
            build_sm_srb_system(n=4, t=2)

    def test_sender_range(self):
        with pytest.raises(ConfigurationError):
            build_sm_srb_system(n=3, t=1, sender=5)

    def test_non_sender_cannot_broadcast(self):
        sim, procs, _ = build_sm_srb_system(n=3, t=1, sender=0, seed=9)
        sim.run(until=1.0)
        with pytest.raises(ConfigurationError):
            procs[1].broadcast("nope")
