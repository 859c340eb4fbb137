"""Tests for PBFT checkpointing, garbage collection, and state transfer."""

from __future__ import annotations

import pytest

from repro.consensus import build_pbft_system, check_replication
from repro.consensus.pbft import PBFTReplica, ckpt_domain
from repro.consensus.replica import validate_checkpoint_cert
from repro.crypto.serialize import content_hash
from repro.crypto.signatures import Signature


def with_checkpoints(interval):
    def factory(pid, **kwargs):
        return PBFTReplica(checkpoint_interval=interval, **kwargs)
    return factory


class TestCheckpointLifecycle:
    def test_stable_checkpoints_and_gc(self):
        sim, reps, clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=8, seed=1,
            replica_factory=with_checkpoints(2),
        )
        sim.run(until=5000.0)
        n = len(reps)
        check_replication(sim.trace, range(n), expected_ops={n: 8}).assert_ok()
        for r in reps:
            assert r.stable_seq >= 6
            assert r.log_entries_gced > 0
            assert all(s > r.stable_seq for s in r._prepared_certs)

    def test_disabled_by_default(self):
        sim, reps, clients = build_pbft_system(f=1, n_clients=1,
                                               ops_per_client=3, seed=2)
        sim.run(until=2000.0)
        assert all(r.stable_seq == 0 for r in reps)

    def test_view_change_after_gc(self):
        sim, reps, clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=10, seed=3,
            replica_factory=with_checkpoints(2),
            req_timeout=20.0, retry_timeout=60.0,
        )
        sim.crash_at(0, 4.0)
        sim.run(until=10000.0)
        n = len(reps)
        rep = check_replication(sim.trace, [1, 2, 3], expected_ops={n: 10})
        rep.assert_ok()
        assert all(r.view >= 1 for r in reps[1:])
        assert any(r.log_entries_gced > 0 for r in reps[1:])

    def test_low_watermark_blocks_stale_preprepares(self):
        """A pre-prepare at or below the stable checkpoint is ignored."""
        sim, reps, clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=6, seed=4,
            replica_factory=with_checkpoints(2),
        )
        sim.run(until=4000.0)
        r = reps[1]
        assert r.stable_seq >= 2
        before = dict(r._accepted_pp)
        # replay the primary's slot-1 pre-prepare shape with a junk request;
        # even a perfectly signed one would bounce off the watermark first
        r._on_pre_prepare(0, ("PBFT-PRE-PREPARE", 0, 1, "junk", "sig"))
        assert r._accepted_pp == before


class TestCertificateValidation:
    def make_cert(self, reps, seq, digest, replicas):
        return tuple(
            (r, seq, digest, reps[r].signer.sign(ckpt_domain(seq, digest, r)))
            for r in replicas
        )

    @pytest.fixture
    def env(self):
        """The replicas (for their signers), and replica 0 as the
        (2f+1)-quorum verifier."""
        _sim, reps, _clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=0, seed=5)
        return reps, lambda cert: validate_checkpoint_cert(
            cert, reps[0].quorum, reps[0]._check_ckpt_entry
        )

    def test_valid_cert(self, env):
        reps, validate = env
        cert = self.make_cert(reps, 2, b"d" * 32, (0, 1, 2))
        seq, digest, entries = validate(cert)
        assert (seq, digest) == (2, b"d" * 32) and set(entries) == {0, 1, 2}

    def test_too_few(self, env):
        reps, validate = env
        assert validate(self.make_cert(reps, 2, b"d" * 32, (0, 1))) is None

    def test_mismatched_digest(self, env):
        reps, validate = env
        cert = self.make_cert(reps, 2, b"a" * 32, (0, 1)) + \
            self.make_cert(reps, 2, b"b" * 32, (2,))
        assert validate(cert) is None

    def test_forged_signature(self, env):
        reps, validate = env
        cert = self.make_cert(reps, 2, b"d" * 32, (0, 1))
        forged = cert + ((2, 2, b"d" * 32, Signature(signer=2, tag=b"\x00" * 32)),)
        assert validate(forged) is None

    def test_duplicate_replica(self, env):
        reps, validate = env
        assert validate(self.make_cert(reps, 2, b"d" * 32, (0,)) * 3) is None


class TestStateTransfer:
    def test_starved_replica_fast_forwards(self):
        """A replica cut off from all early traffic adopts the NEW-VIEW's
        certified checkpoint state instead of replaying GC'd slots."""
        from repro.sim import ScriptedAdversary
        from repro.sim.adversary import LinkRule

        victim = 3
        adv = ScriptedAdversary(base_delay=0.05)
        # nothing reaches the victim before t=30 (delivered at t>=200) —
        # including client requests, so it cannot replay or even hear ops
        for r in range(5):
            adv.add_rule(LinkRule(
                [r], [victim],
                (lambda s, d, m, now, r=r: (200.0 + 5 * r) - now),
                start=0.0, end=30.0,
            ))

        sim, reps, clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=8, seed=6,
            adversary=adv, replica_factory=with_checkpoints(2),
            req_timeout=20.0, retry_timeout=45.0,
        )
        sim.crash_at(0, 0.5)
        sim.run(until=30000.0)
        n = len(reps)
        rep = check_replication(sim.trace, [1, 2, victim],
                                expected_ops={n: 8})
        rep.assert_ok()
        transfers = [
            ev for ev in sim.trace.events("custom", pid=victim)
            if ev.field("event") == "state_transfer"
        ]
        assert transfers
        digests = {reps[p].app.digest() for p in (1, 2, victim)}
        assert len(digests) == 1

    def test_certified_checkpoint_triggers_proactive_fetch(self):
        """A replica that misses the three-phase traffic entirely catches
        up through GET-STATE/STATE the moment it assembles a 2f+1
        checkpoint certificate ahead of its execution frontier — no view
        change involved. Without the proactive path this replica wedges:
        its peers are idle once the workload drains, so the view change
        its timer keeps calling for can never complete."""
        from repro.consensus.pbft import CHECKPOINT, STATE
        from repro.sim import ScriptedAdversary
        from repro.sim.adversary import WITHHELD, LinkRule

        victim = 3

        def ckpt_only(src, dst, msg, now):
            if isinstance(msg, tuple) and msg and msg[0] in (CHECKPOINT, STATE):
                return 0.05
            return WITHHELD

        adv = ScriptedAdversary(base_delay=0.05)
        adv.add_rule(LinkRule(range(4), [victim], ckpt_only))

        sim, reps, clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=8, seed=7,
            adversary=adv, replica_factory=with_checkpoints(2),
        )
        sim.run(until=5000.0)
        n = len(reps)
        check_replication(sim.trace, [0, 1, 2], expected_ops={n: 8}).assert_ok()
        assert all(r.view == 0 for r in reps)  # nobody changed view
        v = reps[victim]
        assert v.state_transfers >= 1
        assert v.exec_next == reps[0].exec_next
        assert v.stable_seq == reps[0].stable_seq
        assert not v._pending  # transferred state settles pending requests
        assert len({r.app.digest() for r in reps}) == 1
