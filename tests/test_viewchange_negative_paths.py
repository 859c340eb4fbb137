"""Negative-path tests for the view-change machinery at system level.

Byzantine replicas will send forged REQ-VIEW-CHANGE votes, doctored
NEW-VIEW bundles, and mismatched re-proposal sets; correct replicas must
ignore all of it without losing progress in the current view.
"""

from __future__ import annotations

import pytest

from repro.consensus import build_minbft_system, build_pbft_system, check_replication
from repro.consensus.minbft import NEW_VIEW, REQ_VIEW_CHANGE, rvc_domain
from repro.crypto.signatures import Signature
from repro.sim import Process, ReliableAsynchronous, Simulation


class TestMinBFTViewChangeHardening:
    def test_forged_rvc_flood_cannot_move_views(self):
        """f forged/unsigned RVC votes never reach the f+1 threshold."""
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=3, seed=50, req_timeout=15.0,
        )

        def spray():
            # the (Byzantine) backup 2 sprays RVCs claiming to be everyone
            ctx = reps[2].ctx
            for claimed in range(3):
                fake = Signature(signer=claimed, tag=b"\x00" * 32)
                for dst in range(3):
                    ctx.send(dst, (REQ_VIEW_CHANGE, claimed, 1, fake))

        sim.declare_byzantine(2)
        sim.at(0.2, spray)
        sim.run(until=2000.0)
        rep = check_replication(sim.trace, [0, 1], expected_ops={3: 3})
        rep.assert_ok()
        assert all(r.view == 0 for r in reps[:2])  # nobody moved

    def test_legit_signature_for_wrong_view_rejected(self):
        """An RVC signature binds its target view; replays for other views fail."""
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=2, seed=51, req_timeout=15.0,
        )

        def replay():
            ctx = reps[2].ctx
            sig = reps[2].signer.sign(rvc_domain(2, 5))  # signed for view 5
            for dst in range(3):
                ctx.send(dst, (REQ_VIEW_CHANGE, 2, 7, sig))  # claimed view 7

        sim.declare_byzantine(2)
        sim.at(0.2, replay)
        sim.run(until=2000.0)
        rep = check_replication(sim.trace, [0, 1], expected_ops={3: 2})
        rep.assert_ok()
        assert reps[0]._rvc_votes.get(7, set()) == set()

    def test_forged_new_view_ignored(self):
        """A NEW-VIEW from a non-primary (or with a junk bundle) does nothing."""
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=3, seed=52, req_timeout=30.0,
        )

        def forge():
            # Byzantine replica 2 is NOT the primary of view 1 (that's 1);
            # its USIG-valid NEW-VIEW must be rejected on the primary check,
            # and a bundle of garbage must fail validation regardless
            reps[2]._usig_broadcast((NEW_VIEW, 1, ("junk", "junk")))

        sim.declare_byzantine(2)
        sim.at(0.2, forge)
        sim.run(until=2000.0)
        rep = check_replication(sim.trace, [0, 1], expected_ops={3: 3})
        rep.assert_ok()
        assert all(r.view == 0 for r in reps[:2])


class TestPBFTViewChangeHardening:
    def test_mismatched_reproposals_rejected(self):
        """A NEW-VIEW whose proposal set deviates from the deterministic
        recomputation is ignored by backups."""
        from repro.consensus.pbft import PBFTReplica

        sim, reps, clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=3, seed=53,
            req_timeout=20.0, retry_timeout=60.0,
        )
        sim.crash_at(0, 1.0)
        # intercept: when replica 1 (new primary) would send NEW-VIEW, a
        # Byzantine shadow sends a conflicting one first with doctored
        # reproposals signed by... it can't sign as replica 1 — so backups
        # verify the signature and drop it. We emulate with a junk sender:

        def forge():
            ctx = reps[2].ctx
            fake_sig = Signature(signer=1, tag=b"\x01" * 32)
            ctx.broadcast(("PBFT-NEW-VIEW", 1, (), (), fake_sig),
                          include_self=False)

        sim.at(5.0, forge)
        sim.run(until=8000.0)
        rep = check_replication(sim.trace, [1, 2, 3], expected_ops={4: 3})
        rep.assert_ok()
        # the real view change still happened and agreed
        assert all(r.view >= 1 for r in reps[1:])


def lower_adoptions(trace, n):
    """Every ``(replica, adopted, demanded)`` where a replica adopted a view
    below one it demanded (``view_change_start``) since its last adoption."""
    found = []
    for pid in range(n):
        demanded = 0
        for ev in trace.events("custom", pid=pid):
            tag = ev.field("event")
            if tag == "view_change_start":
                demanded = max(demanded, ev.field("new_view"))
            elif tag == "view_adopted":
                if ev.field("view") < demanded:
                    found.append((pid, ev.field("view"), demanded))
                demanded = 0
    return found


def fire_vc_timers(sim, reps, fires):
    """Expire ``reps[pid]``'s view-change timer at each ``(time, pid)``."""
    for at, pid in fires:
        sim.at(at, lambda r=reps[pid]: r.on_timer(r.VC_TIMER), label="vc-expiry")


def demands(sim, pid):
    return [ev.field("new_view") for ev in sim.trace.events("custom", pid=pid)
            if ev.field("event") == "view_change_start"]


class TestNoNewViewBelowTheDemand:
    """A replica that has demanded view v' accepts no NEW-VIEW below v'
    (Castro–Liskov): its VIEW-CHANGE for v' was signed over what it had
    prepared before, so adopting a lower view in between lets the NEW-VIEW
    for v' miss slots prepared meanwhile (ROADMAP P0(b))."""

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP P0(b): PBFT's _on_new_view adopts NEW-VIEW 1 at a "
        "replica already demanding view 2",
    )
    def test_pbft(self):
        sim, reps, _clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=30, seed=0,
        )
        # replica 3 demands views 1 and 2 at once, replica 2 view 1: replicas
        # 0 and 1 join view 1 at f+1, and primary 1's NEW-VIEW 1 reaches
        # replica 3 while it demands view 2
        fire_vc_timers(sim, reps, [(1.0, 3), (1.0, 3), (1.0, 2)])
        sim.run(until=500.0)
        assert demands(sim, 3)[:2] == [1, 2]
        assert [ev.pid for ev in sim.trace.events("custom")
                if ev.field("event") == "view_adopted"
                and ev.field("view") == 1][:1] == [2]
        assert lower_adoptions(sim.trace, len(reps)) == []

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP P0(b): MinBFT's _on_new_view has PBFT's acceptance "
        "test and adopts NEW-VIEW 1 at replicas already demanding view 2",
    )
    def test_minbft(self):
        sim, reps, _clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=30, seed=0,
        )
        # replicas 2 and 0 demand view 1 and, once all three change to it,
        # view 2, before primary 1's NEW-VIEW 1 reaches them
        fire_vc_timers(sim, reps, [(1.0, 2), (1.1, 0), (1.6, 2), (1.6, 0)])
        sim.run(until=500.0)
        assert demands(sim, 2)[:2] == [1, 2]
        assert demands(sim, 0)[:2] == [1, 2]
        assert lower_adoptions(sim.trace, len(reps)) == []
