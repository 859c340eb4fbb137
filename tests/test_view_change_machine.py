"""The one view-change machine in ``ReplicaCore``, run by both stacks.

Demand, join at f+1, one NEW-VIEW per view from its primary at the
quorum, and the NEW-VIEW acceptance test are stated once in the core;
each test drives them through PBFT (n = 3f+1) and MinBFT (n = 2f+1)
alike, on an idle group so only the demands injected here move views.
"""

from __future__ import annotations

import pytest

from repro.consensus import build_minbft_system, build_pbft_system

BUILDERS = {"pbft": build_pbft_system, "minbft": build_minbft_system}
IDLE = 50.0  # every request long executed; no view-change timer armed


def idle_group(protocol):
    sim, reps, _clients = BUILDERS[protocol](
        f=1, n_clients=1, ops_per_client=3, seed=0,
    )
    sim.run(until=IDLE)
    assert all(r.view == 0 and not r._pending for r in reps)
    return sim, reps


def adopted(sim, view):
    return sorted(ev.pid for ev in sim.trace.events("custom")
                  if ev.field("event") == "view_adopted"
                  and ev.field("view") == view)


def new_view_sends(sim, primary, dst):
    """NEW-VIEW messages ``primary`` sent to ``dst`` (signed or USIG-wrapped)."""
    out = []
    for ev in sim.trace.events("send", pid=primary):
        msg = ev.field("msg")
        if ev.field("dst") == dst and msg[0] == "USIG":
            msg = msg[1]
        if ev.field("dst") == dst and msg[0] in ("NEW-VIEW", "PBFT-NEW-VIEW"):
            out.append(msg)
    return out


@pytest.mark.parametrize("protocol", sorted(BUILDERS))
def test_f_demands_move_nobody_and_f_plus_one_make_others_join(protocol):
    sim, reps = idle_group(protocol)
    n = len(reps)
    # f = 1: replica 2 alone demands view 1
    sim.at(IDLE + 1, lambda: reps[2]._demand_view(1))
    sim.run(until=IDLE + 20)
    for r in reps:
        if r.pid != 2:
            assert r.view == 0 and r.in_view_change is None
            assert not r._demanded
    # a second demand makes f+1: replica 1, which demanded nothing, joins
    sim.at(IDLE + 21, lambda: reps[0]._demand_view(1))
    sim.run(until=IDLE + 40)
    assert 1 in reps[1]._demanded
    assert adopted(sim, 1) == list(range(n))
    assert all(r.view == 1 and r.in_view_change is None for r in reps)


@pytest.mark.parametrize("protocol", sorted(BUILDERS))
def test_primary_sends_one_new_view_per_view(protocol):
    sim, reps = idle_group(protocol)
    n = len(reps)
    # every replica demands view 1: each VIEW-CHANGE primary 1 verifies
    # before it adopts the view re-checks the send rule
    sim.at(IDLE + 1, lambda: [r._demand_view(1) for r in reps])
    sim.run(until=IDLE + 40)
    assert len(reps[1]._vcs[1]) >= reps[1].quorum
    for dst in range(n):
        (new_view,) = new_view_sends(sim, 1, dst)
        assert new_view[1] == 1 and len(new_view[2]) == reps[1].quorum
    assert adopted(sim, 1) == list(range(n))


@pytest.mark.parametrize("protocol", sorted(BUILDERS))
def test_new_view_from_a_non_primary_is_ignored(protocol):
    sim, reps = idle_group(protocol)
    sim.crash_at(1, IDLE + 0.5)  # view 1's primary never sends its NEW-VIEW
    sim.at(IDLE + 1, lambda: [reps[r]._demand_view(1) for r in (0, 2)])
    sim.run(until=IDLE + 10)
    # replica 2 holds a quorum of valid VIEW-CHANGEs for view 1 and sends
    # the NEW-VIEW primary 1 would have sent, authenticated as itself
    evidence = reps[2]._vcs[1]
    bundle = tuple((r, *evidence[r]) for r in sorted(evidence))[: reps[2].quorum]
    assert len(bundle) == reps[2].quorum
    assert all(reps[0]._validate_evidence(1, item) for item in bundle)
    sim.at(IDLE + 11, lambda: reps[2]._send_new_view(1, bundle))
    sim.run(until=IDLE + 30)
    assert adopted(sim, 1) == []
    assert all(r.view == 0 and r.in_view_change == 1
               for r in reps if r.pid != 1)
