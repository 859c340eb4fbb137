"""Negative-path tests for the view-change machinery at system level.

Byzantine replicas will send forged REQ-VIEW-CHANGE votes, doctored
NEW-VIEW bundles, and mismatched re-proposal sets; correct replicas must
ignore all of it without losing progress in the current view.
"""

from __future__ import annotations

import pytest

from repro.consensus import build_minbft_system, build_pbft_system, check_replication
from repro.consensus.minbft import NEW_VIEW, REQ_VIEW_CHANGE, rvc_domain
from repro.consensus.minbft import VIEW_CHANGE as VIEW_CHANGE_MINBFT
from repro.consensus.pbft import NULL_REQUEST, VIEW_CHANGE, vc_domain
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
        assert reps[0]._demands.get(7, set()) == set()

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


    def test_new_view_naming_unknown_replicas_ignored(self):
        """A NEW-VIEW from the right primary whose bundle names replicas
        outside ``0..n-1`` moves nobody."""
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=3, seed=52, req_timeout=30.0,
        )

        def forge():
            # Byzantine replica 1 leads view 1, which nobody demanded
            reps[1]._usig_broadcast((NEW_VIEW, 1, (
                (97, 0, (), None, ()), (98, 0, (), None, ()),
            )))

        sim.declare_byzantine(1)
        sim.at(0.2, forge)
        sim.run(until=2000.0)
        rep = check_replication(sim.trace, [0, 2], expected_ops={3: 3})
        rep.assert_ok()
        assert reps[0].view == reps[2].view == 0

    @pytest.mark.parametrize("forgery", ["foreign-end", "own-cut-log"])
    def test_new_view_with_a_cut_log_ignored(self, forgery):
        """Byzantine primary 1 bundles a sent log cut to its first entry:
        a peer's, ended by a UI taken from inside that log, or its own, in
        a VIEW-CHANGE it really sent and USIG-signed. Neither NEW-VIEW is
        adopted: the item's UI must bind the VIEW-CHANGE for this view, and
        the log must reach that UI's counter."""
        sim, reps, _clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=30, seed=0,
        )
        primary = reps[1]  # leads view 1
        send = primary._usig_broadcast

        def cut(item):
            # the second entry's UI as the end; a bundle item without a UI
            # (MinBFT's shape before items carried one) is only cut
            log = item[4]
            end = (log[1][1],) if len(item) == 6 else ()
            return (*item[:4], log[:1], *end)

        def forge(message):
            if forgery == "foreign-end" and message[0] == NEW_VIEW:
                _, view, bundle = message
                message = (NEW_VIEW, view, tuple(
                    cut(item) if item[0] != 1 else item for item in bundle
                ))
            elif forgery == "own-cut-log" and message[0] == VIEW_CHANGE_MINBFT:
                message = (*message[:5], message[5][:1])
                send(message)
                # every peer rejects it, but primary 1 bundles it anyway
                primary._on_evidence(
                    1, message[1], (*message[2:], primary.sent_log[-1][1])
                )
                return
            send(message)

        primary._usig_broadcast = forge
        sim.declare_byzantine(1)
        fire_vc_timers(sim, reps, [(6.25, 0), (6.25, 2)])  # 8 slots in
        sim.run(until=500.0)
        assert demands(sim, 0)[:1] == demands(sim, 2)[:1] == [1]
        adopted = [(ev.pid, ev.field("view"))
                   for ev in sim.trace.events("custom")
                   if ev.field("event") == "view_adopted"]
        assert not [a for a in adopted if a[1] == 1]
        assert {pid for pid, view in adopted if view > 1} >= {0, 2}
        check_replication(sim.trace, [0, 2], expected_ops={3: 30}).assert_ok()


class TestPBFTViewChangeHardening:
    def test_mismatched_reproposals_rejected(self):
        """A doctored NEW-VIEW that does not come from the new primary is
        ignored by backups; each derives the re-proposals from the
        primary's signed bundle itself."""
        sim, reps, clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=3, seed=53,
            req_timeout=20.0, retry_timeout=60.0,
        )
        sim.crash_at(0, 1.0)
        # a Byzantine shadow sends a NEW-VIEW for view 1, with an empty
        # bundle and a signature it cannot make as replica 1 (the new
        # primary), before replica 1 sends the real one

        def forge():
            ctx = reps[2].ctx
            fake_sig = Signature(signer=1, tag=b"\x01" * 32)
            ctx.broadcast(("PBFT-NEW-VIEW", 1, (), fake_sig),
                          include_self=False)

        sim.at(5.0, forge)
        sim.run(until=8000.0)
        rep = check_replication(sim.trace, [1, 2, 3], expected_ops={4: 3})
        rep.assert_ok()
        # the real view change still happened and agreed
        assert all(r.view >= 1 for r in reps[1:])


    def test_prepared_entry_with_a_junk_view_is_skipped(self):
        """A Byzantine replica signs whatever prepared entries it likes into
        its VIEW-CHANGE; one whose view is not an int must not throw the
        re-proposal computation, and the view change completes."""
        sim, reps, _clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=30, seed=0,
        )
        byzantine = reps[3]

        def forge():
            body = (0, (), None, ((1, "junk", b"d", NULL_REQUEST),))
            sig = byzantine.signer.sign(vc_domain(1, body, 3))
            byzantine.ctx.broadcast((VIEW_CHANGE, 1, *body, 3, sig),
                                    include_self=False)

        sim.declare_byzantine(3)
        sim.at(1.0, forge)
        fire_vc_timers(sim, reps, [(1.0, 0), (1.0, 2)])
        sim.run(until=500.0)
        assert all(r.view >= 1 for r in reps[:3])
        check_replication(sim.trace, [0, 1, 2], expected_ops={4: 30}).assert_ok()


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
        reason="ROADMAP P0(b): ReplicaCore._accepts_new_view lets PBFT adopt "
        "NEW-VIEW 1 at a replica already demanding view 2",
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
        reason="ROADMAP P0(b): ReplicaCore._accepts_new_view lets MinBFT "
        "adopt NEW-VIEW 1 at replicas already demanding view 2",
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
