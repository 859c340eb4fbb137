"""A sequenced broadcast process forgets what it has delivered.

Every host of a sequenced reliable broadcast keeps state only for the
sequence numbers it has not delivered yet: after 50 and after 500 delivered
broadcasts its containers are the same size, and empty. The round
transports under Algorithm 1 are not covered here (their label and wire
dedup state is still open).
"""

from __future__ import annotations

import pytest

from repro.core.srb_from_trinc import SRBFromA2M, SRBFromTrInc
from repro.core.srb_from_uni import build_mp_srb_system, build_sm_srb_system
from repro.crypto.serialize import crypto_stats
from repro.hardware import A2MAuthority, TrincAuthority
from repro.sim import ReliableAsynchronous, Simulation

N, T = 5, 2


def _sizes(procs) -> list[dict[str, int]]:
    """Per process, the size of every set, dict and list it holds."""
    return [
        {attr: len(value) for attr, value in vars(p).items()
         if isinstance(value, (set, dict, list))}
        for p in procs
    ]


def _run_algorithm_one(build, count, seed=0):
    sim, procs, _ = build(N, T, seed=seed)
    for i in range(count):
        sim.at(0.5 * i, lambda i=i: procs[0].broadcast(("v", i)))
    sim.run(until=0.5 * count + 500.0)
    return sim, procs


def _run_trusted_log(cls, count, seed=0):
    if cls is SRBFromTrInc:
        auth = TrincAuthority(N, seed=seed)
        procs = [SRBFromTrInc(0, N, auth, trinket=auth.trinket(0) if p == 0 else None)
                 for p in range(N)]
    else:
        auth = A2MAuthority(N, seed=seed)
        procs = [SRBFromA2M(0, N, auth, device=auth.device(0) if p == 0 else None)
                 for p in range(N)]
    sim = Simulation(procs, ReliableAsynchronous(0.01, 0.5), seed=seed)
    for i in range(count):
        sim.at(0.1 * (i + 1), lambda i=i: procs[0].broadcast(("v", i)))
    sim.run_to_quiescence()
    return sim, procs


RUNS = {
    "uni-append-log": lambda count: _run_algorithm_one(build_sm_srb_system, count),
    "uni-message-passing": lambda count: _run_algorithm_one(build_mp_srb_system, count),
    "trinc": lambda count: _run_trusted_log(SRBFromTrInc, count),
    "a2m": lambda count: _run_trusted_log(SRBFromA2M, count),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_host_state_does_not_grow_with_deliveries(name):
    """Ten times the broadcasts, the same container sizes: all empty once
    every broadcast is delivered everywhere."""
    sizes = {}
    for count in (50, 500):
        _, procs = RUNS[name](count)
        assert [p.next_seq for p in procs] == [count + 1] * N
        sizes[count] = _sizes(procs)
    assert sizes[500] == sizes[50]
    assert all(size == 0 for per_proc in sizes[500] for size in per_proc.values())


class TestLateMessages:
    """A round message for a delivered sequence number is dropped before it
    is validated: it moves no counter, fills no container, posts nothing."""

    def test_late_messages_change_nothing(self):
        sim, procs = _run_algorithm_one(build_sm_srb_system, 5)
        received = {}
        for e in sim.trace.events("round_recv", pid=1):
            payload = e.field("payload")
            if payload[1] == 1:
                received.setdefault(payload[0], (e.field("round"), e.field("src"), payload))
        label, src, l2 = received["L2"]
        _, k, m, sig_s, l1items = l2
        late = [
            (label, src, ("L2", k, ("forged", m), sig_s, l1items)),
            (label, src, ("L2", k, m, sig_s, l1items[:T])),
            received["COPY"],
        ]
        victim = procs[1]
        posts = []
        victim.rounds.post = posts.append
        victim.rounds.begin_round = lambda payload, label: posts.append(payload)
        before = (victim.consensus_stats(), _sizes([victim]), crypto_stats())
        for label, src, payload in late:
            victim.on_round_message(label, src, payload)
        assert (victim.consensus_stats(), _sizes([victim]), crypto_stats()) == before
        assert posts == []
