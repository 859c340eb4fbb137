"""Tests for MinBFT checkpointing, log garbage collection, state transfer."""

from __future__ import annotations

import pytest

from repro.consensus import build_minbft_system, check_replication
from repro.consensus.minbft import MinBFTReplica, PREPARE, USIG_WRAP
from repro.consensus.replica import validate_checkpoint_cert


def build(f=1, ops=8, interval=2, seed=1, factory=None, **kw):
    return build_minbft_system(
        f=f, n_clients=1, ops_per_client=ops, seed=seed,
        replica_factory=factory,
        req_timeout=kw.pop("req_timeout", 20.0),
        retry_timeout=kw.pop("retry_timeout", 60.0),
        **kw,
    )


def with_checkpoints(interval):
    def factory(pid, **kwargs):
        return MinBFTReplica(checkpoint_interval=interval, **kwargs)
    return factory


class TestCheckpointLifecycle:
    def test_stable_checkpoints_form_and_gc_runs(self):
        sim, reps, clients = build(ops=8, seed=1, factory=with_checkpoints(2))
        sim.run(until=4000.0)
        n = len(reps)
        check_replication(sim.trace, range(n), expected_ops={n: 8}).assert_ok()
        for r in reps:
            assert r.stable_seq >= 6
            assert r.log_entries_gced > 0
            # the live log only covers counters after the checkpoint
            assert all(ui.counter > r._log_base for _m, ui in r.sent_log)

    def test_disabled_by_default(self):
        sim, reps, clients = build(ops=4, seed=2)
        sim.run(until=2000.0)
        assert all(r.stable_seq == 0 and r.log_entries_gced == 0 for r in reps)

    def test_view_change_after_gc(self):
        """A primary crash after logs were truncated: the view change must
        succeed from checkpoint-certified partial logs."""
        sim, reps, clients = build(ops=10, seed=3, factory=with_checkpoints(2))
        sim.crash_at(0, 4.0)
        sim.run(until=8000.0)
        n = len(reps)
        rep = check_replication(sim.trace, [1, 2], expected_ops={n: 10})
        rep.assert_ok()
        assert all(r.view >= 1 for r in reps[1:])
        assert any(r.log_entries_gced > 0 for r in reps[1:])

    def test_checkpoint_digests_match_across_replicas(self):
        sim, reps, clients = build(ops=6, seed=4, factory=with_checkpoints(3))
        sim.run(until=3000.0)
        stables = [
            ev for ev in sim.trace.events("custom")
            if ev.field("event") == "checkpoint_stable"
        ]
        assert stables  # every replica stabilized at least one checkpoint
        assert {ev.pid for ev in stables} == {0, 1, 2}


class TestCertificateValidation:
    @pytest.fixture
    def env(self):
        """The replicas' own USIGs, and replica 0 as the (f+1)-quorum verifier."""
        _sim, reps, _clients = build(ops=0, seed=7)
        usigs = {r.usig.replica: r.usig for r in reps}
        return usigs, lambda cert: validate_checkpoint_cert(
            cert, reps[0].quorum, reps[0]._check_ckpt_entry
        )

    def make_cert(self, usigs, seq=2, digest=b"d" * 32, replicas=(0, 1)):
        cert = []
        for r in replicas:
            msg = ("CHECKPOINT", seq, digest)
            cert.append((r, msg, usigs[r].create_ui(msg)))
        return tuple(cert)

    def test_valid_cert(self, env):
        usigs, validate = env
        cert = self.make_cert(usigs)
        checked = validate(cert)
        assert checked is not None
        seq, digest, entries = checked
        assert seq == 2 and set(entries) == {0, 1}

    def test_too_few_attestations(self, env):
        usigs, validate = env
        cert = self.make_cert(usigs, replicas=(0,))
        assert validate(cert) is None

    def test_mismatched_digests(self, env):
        usigs, validate = env
        c0 = self.make_cert(usigs, digest=b"a" * 32, replicas=(0,))
        c1 = self.make_cert(usigs, digest=b"b" * 32, replicas=(1,))
        assert validate(c0 + c1) is None

    def test_duplicate_replica_rejected(self, env):
        usigs, validate = env
        msg = ("CHECKPOINT", 2, b"d" * 32)
        u1 = usigs[0].create_ui(msg)
        u2 = usigs[0].create_ui(msg)
        cert = ((0, msg, u1), (0, msg, u2))
        assert validate(cert) is None

    def test_forged_ui_rejected(self, env):
        usigs, validate = env
        cert = self.make_cert(usigs, replicas=(0, 1))
        # swap replica 1's message content
        r, msg, ui = cert[1]
        forged = (cert[0], (r, ("CHECKPOINT", 99, msg[2]), ui))
        assert validate(forged) is None


class SelectiveGapPrimary(MinBFTReplica):
    """Byzantine primary: its first PREPARE never reaches the victim,
    creating a permanent UI gap in the victim's view of its stream."""

    VICTIM = 2

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._gapped = False

    def _usig_broadcast(self, message):
        ui = self.usig.create_ui(message)
        self.sent_log.append((message, ui))
        skip = None
        if not self._gapped and message[0] == PREPARE:
            self._gapped = True
            skip = self.VICTIM
        for dst in range(self.ctx.n):
            if dst == skip:
                continue
            self.ctx.send(dst, (USIG_WRAP, message, ui))


class TestEmbeddedVoteHealing:
    def test_gapped_replica_heals_from_commits(self):
        """A Byzantine primary withholds a PREPARE counter from the victim
        forever, freezing the primary's stream there. The victim must still
        make progress: every valid COMMIT embeds the primary's prepare UI,
        which counts as the primary's vote — so correct replicas' COMMITs
        alone reconstruct certificates."""

        def factory(pid, **kwargs):
            if pid == 0:
                return SelectiveGapPrimary(checkpoint_interval=2, **kwargs)
            return MinBFTReplica(checkpoint_interval=2, **kwargs)

        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=6, seed=5,
            replica_factory=factory, req_timeout=20.0, retry_timeout=45.0,
        )
        sim.declare_byzantine(0)
        sim.run(until=4000.0)
        n = len(reps)
        rep = check_replication(sim.trace, [1, 2], expected_ops={n: 6})
        rep.assert_ok()
        # the victim executed everything despite the frozen primary stream
        assert reps[2].commits_executed == 6
        assert reps[1].app.digest() == reps[2].app.digest()


class TestStateTransfer:
    def test_starved_replica_fast_forwards_via_checkpoint(self):
        """f = 2: the victim's view of the primary stream is gapped
        (Byzantine primary), so it can never self-vote on the old slots; at
        heal time it drains the new primary's stream first, whose COMMITs
        give only 2 < f+1 votes per old slot — replay is impossible when
        the NEW-VIEW arrives, so it must install the checkpoint state."""
        from repro.sim import ScriptedAdversary
        from repro.sim.adversary import LinkRule

        victim = 4

        class GapPrimary(SelectiveGapPrimary):
            VICTIM = victim

        def factory(pid, **kwargs):
            if pid == 0:
                return GapPrimary(checkpoint_interval=2, **kwargs)
            return MinBFTReplica(checkpoint_interval=2, **kwargs)

        adv = ScriptedAdversary(base_delay=0.05)
        for r in range(4):
            # pre-t=30 replica->victim traffic arrives at 200 + 5r: stream 1
            # (the future primary) drains first, before streams 2 and 3
            adv.add_rule(LinkRule(
                [r], [victim],
                (lambda s, d, m, now, r=r: (200.0 + 5 * r) - now),
                start=0.0, end=30.0,
            ))

        sim, reps, clients = build_minbft_system(
            f=2, n_clients=1, ops_per_client=10, seed=6,
            adversary=adv, replica_factory=factory,
            req_timeout=20.0, retry_timeout=45.0,
        )
        sim.declare_byzantine(0)
        sim.crash_at(0, 0.5)  # mid-workload: forces the view change
        sim.run(until=30000.0)

        n = len(reps)
        rep = check_replication(sim.trace, [1, 2, 3, victim],
                                expected_ops={n: 10})
        rep.assert_ok()
        transfers = [
            ev for ev in sim.trace.events("custom", pid=victim)
            if ev.field("event") == "state_transfer"
        ]
        assert transfers, "victim should have fast-forwarded via checkpoint"
        assert transfers[0].field("stable_seq") >= 2
        digests = {reps[p].app.digest() for p in (1, 2, 3, victim)}
        assert len(digests) == 1
