"""System tests for MinBFT replication."""

from __future__ import annotations

import pytest

from repro.consensus import build_minbft_system, check_replication
from repro.consensus.minbft import MinBFTReplica, PREPARE, USIG_WRAP
from repro.errors import ConfigurationError
from repro.sim import PartiallySynchronous


class TestHappyPath:
    def test_single_client(self):
        sim, reps, clients = build_minbft_system(f=1, n_clients=1,
                                                 ops_per_client=4, seed=1)
        sim.run(until=2000.0)
        n = len(reps)
        rep = check_replication(sim.trace, range(n), expected_ops={n: 4})
        rep.assert_ok()
        assert all(r.commits_executed == 4 for r in reps)

    def test_multiple_clients_interleave(self):
        sim, reps, clients = build_minbft_system(f=1, n_clients=3,
                                                 ops_per_client=3, seed=2)
        sim.run(until=4000.0)
        n = len(reps)
        rep = check_replication(
            sim.trace, range(n), expected_ops={n + c: 3 for c in range(3)}
        )
        rep.assert_ok()
        assert all(r.commits_executed == 9 for r in reps)

    def test_f2_five_replicas(self):
        sim, reps, clients = build_minbft_system(f=2, n_clients=1,
                                                 ops_per_client=3, seed=3)
        sim.run(until=3000.0)
        rep = check_replication(sim.trace, range(5), expected_ops={5: 3})
        rep.assert_ok()

    @pytest.mark.parametrize("app,expected", [
        ("counter", None), ("kv", None), ("bank", None),
    ])
    def test_every_app(self, app, expected):
        sim, reps, clients = build_minbft_system(f=1, n_clients=1,
                                                 ops_per_client=4, app=app, seed=4)
        sim.run(until=2000.0)
        n = len(reps)
        rep = check_replication(sim.trace, range(n), expected_ops={n: 4})
        rep.assert_ok()
        digests = {r.app.digest() for r in reps}
        assert len(digests) == 1  # identical state everywhere

    def test_replies_match_leader_state(self):
        sim, reps, clients = build_minbft_system(f=1, n_clients=1,
                                                 ops_per_client=3, seed=5)
        sim.run(until=2000.0)
        assert clients[0].results == [1, 3, 6]  # counter adds 1,2,3


class TestFaults:
    def test_backup_crash_harmless(self):
        sim, reps, clients = build_minbft_system(f=1, n_clients=1,
                                                 ops_per_client=4, seed=6)
        sim.crash_at(2, 1.0)
        sim.run(until=2000.0)
        rep = check_replication(sim.trace, [0, 1], expected_ops={3: 4})
        rep.assert_ok()

    def test_primary_crash_view_change(self):
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=5, seed=7,
            req_timeout=20.0, retry_timeout=60.0,
        )
        sim.crash_at(0, 2.0)
        sim.run(until=6000.0)
        rep = check_replication(sim.trace, [1, 2], expected_ops={3: 5})
        rep.assert_ok()
        assert all(r.view >= 1 for r in reps[1:])

    def test_two_successive_primary_crashes_f2(self):
        sim, reps, clients = build_minbft_system(
            f=2, n_clients=1, ops_per_client=8, seed=8,
            req_timeout=20.0, retry_timeout=60.0,
        )
        sim.crash_at(0, 2.0)
        # kill the view-1 primary right after it takes over (view change
        # completes around t=23 with these timeouts)
        sim.crash_at(1, 23.2)
        sim.run(until=20000.0)
        rep = check_replication(sim.trace, [2, 3, 4], expected_ops={5: 8})
        rep.assert_ok()
        assert all(r.view >= 2 for r in reps[2:])

    def test_primary_restart_mid_view_change(self):
        """The old primary reboots while the view change it caused is still
        in flight; it must rejoin in the new view and re-execute the
        committed prefix instead of wedging the group."""
        from repro.consensus.apps import make_app

        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=5, seed=20,
            req_timeout=20.0, retry_timeout=60.0,
        )
        sim.crash_at(0, 2.0)

        def factory():
            old = reps[0]
            fresh = MinBFTReplica(
                n=old.n, usig=old.usig,  # trusted hardware survives
                verifier=old.verifier, scheme=old.scheme, signer=old.signer,
                app=make_app("counter"),  # volatile state does not
                req_timeout=old.req_timeout,
            )
            reps[0] = fresh
            return fresh

        # with these timeouts the backups' VC-TIMER fires around t=22, so
        # the reboot lands in the middle of the view change window
        sim.restart_at(0, 22.0, factory=factory)
        sim.run(until=6000.0)
        rep = check_replication(sim.trace, [1, 2], expected_ops={3: 5})
        rep.assert_ok()
        assert sim.incarnation_of(0) == 1
        assert all(r.view >= 1 for r in reps)  # reborn primary included
        # the committed prefix reached the reborn replica
        assert reps[0].app.digest() == reps[1].app.digest()

    def test_partial_synchrony_pre_gst_chaos(self):
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=3, seed=9,
            adversary=PartiallySynchronous(gst=30.0, delta=0.5, pre_gst_slack=10.0),
            req_timeout=100.0, retry_timeout=200.0,
        )
        sim.run(until=4000.0)
        rep = check_replication(sim.trace, range(3), expected_ops={3: 3})
        rep.assert_ok()


    def test_new_primary_behind_the_checkpoint_proposes_above_it(self):
        """A new primary that adopts a view whose checkpoint is ahead of
        its own execution proposes its pending requests above that
        checkpoint only — never first at its stale ``next_seq``, on a slot
        the checkpoint already settled."""
        from repro.consensus.replica import REQUEST, request_domain

        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=6, seed=0,
            replica_options=dict(window_size=4, checkpoint_interval=2),
        )
        sim.run(until=500.0)
        r0, r1 = reps[0], reps[1]
        assert r0.stable_seq == 6
        r1._install_state(0, r1._genesis_state)  # fell behind everything
        client = clients[0]
        op = ("add", 1)
        r1._on_request((REQUEST, client.pid, 100, op,
                        client.signer.sign(request_domain(client.pid, 100, op))))
        logged = len(r1.sent_log)
        r1._adopt_view(1, r0.stable_seq, r0._stable_blob, {})
        prepared = [m[2] for m, _ui in r1.sent_log[logged:] if m[0] == PREPARE]
        assert prepared == [7]

class TestByzantineReplicas:
    def test_equivocating_primary_cannot_split_state(self):
        class EquivocatingPrimary(MinBFTReplica):
            """Two UIs for the same slot, split across replica groups."""

            def _propose_pending(self):
                if not self.is_primary or not self._pending:
                    return
                _key, request = sorted(self._pending.items())[0]
                m1 = (PREPARE, self.view, 1, request)
                u1 = self.usig.create_ui(m1)
                self.sent_log.append((m1, u1))
                m2 = (PREPARE, self.view, 1, request)
                u2 = self.usig.create_ui(m2)
                self.sent_log.append((m2, u2))
                for dst in range(self.n):
                    if dst <= self.f:
                        self.ctx.send(dst, (USIG_WRAP, m1, u1))
                    else:
                        self.ctx.send(dst, (USIG_WRAP, m2, u2))
                self._pending.clear()

        def factory(pid, **kw):
            return EquivocatingPrimary(**kw) if pid == 0 else MinBFTReplica(**kw)

        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=2, seed=10,
            req_timeout=20.0, retry_timeout=60.0, replica_factory=factory,
        )
        sim.declare_byzantine(0)
        sim.run(until=8000.0)
        rep = check_replication(sim.trace, [1, 2], expected_ops={3: 2})
        rep.assert_ok()

    def test_backup_sending_gapped_uis_is_ignored(self):
        class Gapper(MinBFTReplica):
            def on_start(self):
                # waste counters 1..3 silently, then talk normally: every
                # message it sends now has a gap and stays in holdback
                for _ in range(3):
                    self.usig.create_ui("wasted")

        def factory(pid, **kw):
            return Gapper(**kw) if pid == 2 else MinBFTReplica(**kw)

        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=3, seed=11,
            replica_factory=factory,
        )
        sim.declare_byzantine(2)
        sim.run(until=3000.0)
        # f+1 = 2 honest replicas suffice for certificates
        rep = check_replication(sim.trace, [0, 1], expected_ops={3: 3})
        rep.assert_ok()


class TestClientBehavior:
    def test_retransmission_answered_from_cache(self):
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=2, seed=12, retry_timeout=5.0,
        )
        sim.run(until=2000.0)
        rep = check_replication(sim.trace, range(3), expected_ops={3: 2})
        rep.assert_ok()
        # no duplicate executions even though the client may have retried
        assert all(r.commits_executed == 2 for r in reps)

    def test_client_latencies_recorded(self):
        sim, reps, clients = build_minbft_system(f=1, n_clients=1,
                                                 ops_per_client=3, seed=13)
        sim.run(until=2000.0)
        assert len(clients[0].latencies) == 3
        assert all(l > 0 for l in clients[0].latencies)


class TestConfiguration:
    def test_even_n_rejected(self):
        from repro.consensus.usig import USIG, USIGVerifier
        from repro.crypto import SignatureScheme
        from repro.hardware.trinc import TrincAuthority
        from repro.consensus.apps import make_app

        auth = TrincAuthority(4, seed=0)
        with pytest.raises(ConfigurationError):
            MinBFTReplica(
                n=4, usig=USIG(auth.trinket(0)), verifier=USIGVerifier(auth),
                scheme=SignatureScheme(4), signer=None, app=make_app("counter"),
            )

    def test_f_validated(self):
        with pytest.raises(ConfigurationError):
            build_minbft_system(f=0)
