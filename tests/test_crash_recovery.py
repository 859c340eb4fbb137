"""Tests for crash-recovery: restart semantics, timer purge, durable hardware."""

from __future__ import annotations

import pytest

from repro.core import build_sm_srb_system, check_srb
from repro.core.rounds import SharedMemoryRoundTransport
from repro.core.srb_from_uni import SRBFromUnidirectional
from repro.errors import ConfigurationError
from repro.hardware.trinc import TrincAuthority
from repro.sim import Process, ReliableAsynchronous, Simulation


class Ticker(Process):
    """Re-arms a 1s timer forever; crash must stop (and purge) it."""

    def __init__(self):
        super().__init__()
        self.fired = 0

    def on_start(self):
        self.ctx.set_timer(1.0, "tick")

    def on_timer(self, tag):
        self.fired += 1
        self.ctx.set_timer(1.0, "tick")


class Recv(Process):
    def __init__(self):
        super().__init__()
        self.received = []

    def on_message(self, src, msg):
        self.received.append((self.ctx.now, msg))


class Pinger(Process):
    """Sends ("ping", i) to process 1 at times 1, 2, ..., count."""

    def __init__(self, count):
        super().__init__()
        self.count = count

    def on_start(self):
        self.ctx.set_timer(1.0, 1)

    def on_timer(self, i):
        self.ctx.send(1, ("ping", i))
        if i < self.count:
            self.ctx.set_timer(1.0, i + 1)


class TestCrashPurgesTimers:
    def test_crash_stops_and_purges_repeating_timer(self):
        procs = [Ticker(), Ticker()]
        sim = Simulation(procs, ReliableAsynchronous(), seed=0)
        sim.crash_at(0, 5.5)
        sim.run(until=20.0)
        assert procs[0].fired == 5
        assert procs[1].fired == 20
        # regression: the crashed process's pending timer used to sit in
        # sim._timers forever
        assert all(ev.payload.pid != 0 for ev in sim._timers.values())


class TestRestartAPI:
    def _sim(self):
        procs = [Pinger(6), Recv()]
        sim = Simulation(procs, ReliableAsynchronous(0.1, 0.2), seed=1)
        return sim, procs

    def test_restart_requires_crashed(self):
        sim, _ = self._sim()
        with pytest.raises(ConfigurationError, match="not crashed"):
            sim.restart(1, factory=Recv)

    def test_factory_must_build_fresh_instance(self):
        sim, procs = self._sim()
        sim.crash_at(1, 1.0)
        sim.run(until=2.0)
        with pytest.raises(ConfigurationError, match="new instance"):
            sim.restart(1, factory=lambda: procs[1])

    def test_volatile_state_lost_messages_during_outage_dropped(self):
        sim, procs = self._sim()
        incarnations = []
        sim.crash_at(1, 1.5)

        def factory():
            fresh = Recv()
            incarnations.append(fresh)
            return fresh

        sim.restart_at(1, 3.5, factory=factory)
        sim.run(until=30.0)
        fresh = incarnations[0]
        # pings 2 and 3 fell in the outage window [1.5, 3.5): dropped.
        old_msgs = [m for _, m in procs[1].received]
        new_msgs = [m for _, m in fresh.received]
        assert old_msgs == [("ping", 1)]  # volatile state did not transfer
        assert new_msgs == [("ping", i) for i in (4, 5, 6)]
        assert sim.incarnation_of(1) == 1
        assert sim.restarted_pids == frozenset({1})
        assert sim.fault_free_pids == (0,)
        assert fresh.ctx.incarnation == 1
        restarts = [
            ev for ev in sim.trace.events("custom", pid=1)
            if ev.field("event") == "restart"
        ]
        assert len(restarts) == 1 and restarts[0].field("incarnation") == 1

    def test_double_restart_counts_incarnations(self):
        sim, _ = self._sim()
        sim.crash_at(1, 1.5)
        sim.restart_at(1, 2.5, factory=Recv)
        sim.crash_at(1, 3.5)
        sim.restart_at(1, 4.5, factory=Recv)
        sim.run(until=30.0)
        assert sim.incarnation_of(1) == 2
        assert sim.processes[1].ctx.incarnation == 2


class TestDurableHardware:
    def test_trinket_survives_restart_and_refuses_replay(self):
        auth = TrincAuthority(2, seed=0)
        trinket = auth.trinket(0)
        assert trinket.attest(1, "A") is not None
        assert trinket.attest(2, "B") is not None
        # host reboots; the correct recovery path re-wires the same trinket,
        # which refuses to re-bind already-used counter values
        assert trinket.attest(1, "A'") is None
        assert trinket.attest(2, "B'") is None
        assert trinket.attest(3, "C") is not None
        assert trinket.last_seq() == 3

    def test_second_issue_refused(self):
        auth = TrincAuthority(2, seed=0)
        auth.trinket(0)
        with pytest.raises(ConfigurationError, match="already issued"):
            auth.trinket(0)

    def test_volatile_trinket_enables_post_restart_equivocation(self):
        """Negative model: a non-durable counter breaks non-equivocation."""
        auth = TrincAuthority(2, seed=0)
        trinket = auth.trinket(0)
        a1 = trinket.attest(1, "A")
        lossy = auth.reissue_volatile(0)  # counters reset with the host
        a2 = lossy.attest(1, "B")
        assert a1 is not None and a2 is not None
        assert auth.check(a1, 0) and auth.check(a2, 0)
        assert a1.seq == a2.seq == 1 and a1.message != a2.message

    def test_reissue_volatile_requires_prior_issue(self):
        auth = TrincAuthority(2, seed=0)
        with pytest.raises(ConfigurationError, match="never issued"):
            auth.reissue_volatile(0)


class TestMinBFTResync:
    def test_rebooted_backup_resyncs_and_catches_up_via_checkpoint(self):
        """No view change here — the primary stays up — so recovery must
        come entirely from the RESYNC handshake: peers authorize the UI
        enforcer to skip the unrecoverable prefix and hand over the stable
        checkpoint, which fast-forwards the reborn replica's state."""
        from repro.consensus import build_minbft_system, check_replication
        from repro.consensus.apps import make_app
        from repro.consensus.minbft import MinBFTReplica

        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=6, seed=21,
            req_timeout=20.0, retry_timeout=60.0,
            replica_factory=lambda pid, **kw: MinBFTReplica(
                checkpoint_interval=2, **kw
            ),
        )
        sim.crash_at(2, 1.0)

        def factory():
            old = reps[2]
            fresh = MinBFTReplica(
                n=old.n, usig=old.usig, verifier=old.verifier,
                scheme=old.scheme, signer=old.signer,
                app=make_app("counter"), req_timeout=old.req_timeout,
                checkpoint_interval=2,
            )
            reps[2] = fresh
            return fresh

        sim.restart_at(2, 60.0, factory=factory)  # well after quiescence
        sim.run(until=4000.0)
        check_replication(sim.trace, [0, 1], expected_ops={3: 6}).assert_ok()
        fresh = reps[2]
        assert fresh.ctx.incarnation == 1
        assert len(fresh._resynced) == 2  # both peers answered
        assert sum(r.resyncs_answered for r in (reps[0], reps[1])) == 2
        # checkpoint transfer fast-forwarded the reborn replica's state
        transfers = [
            ev for ev in sim.trace.events("custom", pid=2)
            if ev.field("event") == "state_transfer"
        ]
        assert transfers and transfers[0].field("stable_seq") == 6
        assert fresh.exec_next == 7  # all six committed ops covered
        assert fresh.app.digest() == reps[0].app.digest()
        # adopted as its own checkpoint: re-announced, stable, and the
        # reborn replica's VIEW-CHANGE evidence validates again
        assert fresh.stable_seq == 6
        assert fresh.state_transfers == 1
        assert reborn_vc_valid(reps[0], fresh)

    def test_own_pre_crash_vote_in_a_shipped_certificate_is_not_counted(self):
        """A peer may ship a certificate holding the reborn replica's own
        pre-crash CHECKPOINT. That vote pins a counter whose log the reboot
        lost and a blob this incarnation does not hold, so counting it would
        stabilize the checkpoint on the old counter and void the replica's
        VIEW-CHANGE; the peers' votes alone adopt it."""
        from repro.consensus import build_minbft_system
        from repro.faults.chaos import reboot_replica

        opts = dict(checkpoint_interval=2)
        sim, reps, _clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=6, seed=21, req_timeout=20.0,
            retry_timeout=60.0, replica_options=opts,
        )
        sim.run(until=50.0)
        old = reps[2]
        assert [r.stable_seq for r in reps] == [6, 6, 6]
        own_cert = old._stable_cert  # its own entry and one peer's
        assert 2 in {entry[0] for entry in own_cert}
        reps[1]._stable_cert = own_cert  # a valid certificate all the same
        sim.crash(2)

        def factory():
            reps[2] = reboot_replica(old, "counter", None, opts)
            return reps[2]

        sim.restart_at(2, 60.0, factory=factory)
        sim.run(until=200.0)
        fresh = reps[2]
        assert len(fresh._resynced) == 2
        assert fresh.stable_seq == 6 and fresh.state_transfers == 1
        assert fresh._log_base > max(entry[2].counter for entry in own_cert)
        assert reborn_vc_valid(reps[0], fresh)


def reborn_vc_valid(peer, reborn) -> bool:
    """Whether ``peer`` accepts the VIEW-CHANGE evidence ``reborn`` would
    send now (its next UI ends the log)."""
    return peer._validate_vc(
        reborn.pid, reborn._log_base, reborn._stable_cert,
        reborn._stable_blob, tuple(reborn.sent_log), reborn.usig.counter + 1,
    ) is not None


class TestMinBFTRestartThenPrimaryCrash:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_restarted_backup_carries_the_view_change(self, seed):
        """Replica 2 reboots early, then the primary crashes for good: the
        view change needs the reborn replica's VIEW-CHANGE, which validates
        only once it adopted the checkpoint RESYNC shipped as its own (and
        processes its own USIG stream again). Run to a horizon, not to
        quiescence: a view change that cannot complete retries forever."""
        from repro.consensus import (
            ReplicationStreamChecker,
            build_minbft_system,
        )
        from repro.faults.chaos import reboot_replica

        opts = dict(checkpoint_interval=4)
        checker = ReplicationStreamChecker([1, 2])
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=2, ops_per_client=40, seed=seed, req_timeout=10.0,
            retry_timeout=15.0, replica_options=opts, observers=[checker],
        )

        def factory():
            reps[2] = reboot_replica(reps[2], "counter", None, opts)
            return reps[2]

        sim.crash_at(2, 3.0)
        sim.restart_at(2, 6.0, factory=factory)
        sim.crash_at(0, 25.0)
        sim.run(until=150.0)
        assert [len(c.results) for c in clients] == [40, 40]
        assert reps[1].view >= 1 and reps[2].view >= 1
        checker.finish().assert_ok()


class TestSharedMemorySRBRecovery:
    def test_restarted_process_recovers_stream_from_persistent_logs(self):
        """The paper's durability point: with SWMR logs as the round medium,
        a rebooted process recovers every delivery by rescanning memory —
        no peer help, no retransmission protocol."""
        sim, procs, scheme = build_sm_srb_system(n=4, t=1, seed=5)
        for i in range(3):
            sim.at(1.0 + i, lambda i=i: procs[0].broadcast(f"m{i}"))
        sim.crash_at(2, 2.0)
        signer = procs[2].signer

        def factory():
            return SRBFromUnidirectional(
                SharedMemoryRoundTransport(), 0, 1, scheme, signer
            )

        sim.restart_at(2, 12.0, factory=factory)
        sim.run(until=150.0)
        check_srb(sim.trace, 0, sim.fault_free_pids).assert_ok()
        post_restart = [
            (ev.field("seq"), ev.field("value"))
            for ev in sim.trace.events("bcast_deliver", pid=2)
            if ev.time >= 12.0
        ]
        assert post_restart == [(1, "m0"), (2, "m1"), (3, "m2")]


class Chatter(Process):
    """Sends ("hi", i) to every peer at times 1, 2, ..., count."""

    def __init__(self, count):
        super().__init__()
        self.count = count

    def on_start(self):
        self.ctx.set_timer(1.0, 1)

    def on_timer(self, i):
        for dst in range(self.ctx.n):
            if dst != self.ctx.pid:
                self.ctx.send(dst, ("hi", i))
        if i < self.count:
            self.ctx.set_timer(1.0, i + 1)


class TestByzantineWrapperRestart:
    def test_filter_survives_restart(self):
        """Regression: ``sim.restart`` attaches the factory's replacement to a
        fresh Context. A factory that rebuilds the wrapper around the fresh
        process, with the same filter, keeps the attack in force: the
        wrapper attaches its inner process to an intercepting relay around
        the new context. A restarted Byzantine process must not silently
        revert to correct behavior mid-campaign."""
        from repro.sim.byzantine import ByzantineWrapper, drop_to

        filt = drop_to(1)
        procs = [ByzantineWrapper(Chatter(8), filt), Recv(), Recv()]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 0.02), seed=3)
        sim.crash_at(0, 3.5)
        sim.restart_at(0, 4.5, factory=lambda: ByzantineWrapper(Chatter(8), filt))
        sim.run(until=60.0)

        reborn = sim.processes[0]
        assert isinstance(reborn, ByzantineWrapper)
        assert reborn is not procs[0]
        # the victim hears nothing from either incarnation
        assert procs[1].received == []
        # the non-victim hears both incarnations: the wrapper is not a
        # total silencer, and the restart did not mute the inner process
        times = [t for t, _ in procs[2].received]
        assert any(t < 3.5 for t in times), "pre-crash sends missing"
        assert any(t > 4.5 for t in times), "post-restart sends missing"

    def test_nested_interposers_survive_restart(self):
        """An attack hosted inside a reliable channel: the restart factory
        rebuilds the whole stack, and the attach chain hands the fresh
        wrapper the fresh channel's relay. The filter runs before framing:
        dropped sends never reach the channel, so each incarnation's
        ``channel.sent`` counts only its sends to the non-victim."""
        from repro.faults import LossyAsynchronous, ReliableProcess
        from repro.sim.byzantine import ByzantineWrapper, drop_to

        filt = drop_to(1)

        def host():
            return ReliableProcess(
                ByzantineWrapper(Chatter(8), filt), base_timeout=1.0
            )

        procs = [host(), ReliableProcess(Recv()), ReliableProcess(Recv())]
        adversary = LossyAsynchronous(
            drop_probability=0.3, min_delay=0.01, max_delay=0.2
        )
        sim = Simulation(procs, adversary, seed=3)
        sim.crash_at(0, 3.5)
        sim.restart_at(0, 4.5, factory=host)
        sim.run(until=200.0)

        reborn = sim.processes[0]
        assert reborn is not procs[0]
        assert procs[1].inner.received == []
        heard = procs[2].inner.received
        assert [m for t, m in heard if t < 3.5] == [("hi", i) for i in (1, 2, 3)]
        assert sorted(m for t, m in heard if t > 4.5) == [
            ("hi", i) for i in range(1, 9)
        ]
        assert reborn.channel.sent == 8
        assert procs[0].channel.sent == 3
