"""A replica's state does not grow with the requests it has served.

Every top-level set, dict and list of each ``MinBFTReplica`` and
``PBFTReplica``, and of MinBFT's USIG and the trinket behind it, is
compared after 200 and after 2,000 completed requests (two open-loop
clients, checkpoint interval 8, window 16, adaptive batching, run to
quiescence). Three groups:

- ``PER_SLOT``: what the replica holds for the slots since its last stable
  checkpoint and for the batches it has seen. How full they are at rest
  depends on where the last checkpoint and view change fell, so each is
  held to ``SLOT_BOUND`` in both runs instead of to equality.
- ``PER_VIEW``: one entry per view the replica has demanded, collected
  VIEW-CHANGEs for or sent a NEW-VIEW in. Nothing prunes them, so they
  grow with every view change, and a fault-free run here changes view
  only through the view-change timer's re-arm rule (ROADMAP P0(c)): 0
  views at 200 requests, 5 (MinBFT) and 10 (PBFT) at 2,000. They are left
  out of the comparison until they are bounded (ROADMAP P7).
- everything else: the same size after 2,000 requests as after 200.

Nested containers (the order enforcer, the dedup table, the app) are not
covered here; the soak tests bound ``slot_state_size()`` as a whole.
"""

from __future__ import annotations

import pytest

from repro.consensus import build_minbft_system, build_pbft_system
from repro.workloads import split_arrivals
from repro.workloads.generator import open_loop_arrivals

WINDOW, CHECKPOINT = 16, 8

PER_SLOT = frozenset({
    "_proposed_keys", "_ckpt_votes", "batch_size_hist",
    # MinBFT
    "sent_log", "_accepted", "_votes",
    # PBFT
    "_accepted_pp", "_prepares", "_commits", "_prepared_certs",
    "_commit_sent", "_requests",
})
SLOT_BOUND = 2 * (CHECKPOINT + WINDOW)
PER_VIEW = frozenset({"_demanded", "_demands", "_vcs", "_new_view_sent"})

BUILDERS = {"minbft": build_minbft_system, "pbft": build_pbft_system}


def _sizes(obj) -> dict[str, int]:
    """The size of every set, dict and list ``obj`` holds, slots included."""
    fields = dict(getattr(obj, "__dict__", {}))
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
    return {name: len(value) for name, value in fields.items()
            if isinstance(value, (set, dict, list))}


def _run(protocol: str, n_requests: int, seed: int = 0) -> list[dict]:
    arrivals = open_loop_arrivals(n_requests, seed=seed, rate=20.0,
                                  kind="uniform-kv")
    sim, replicas, clients = BUILDERS[protocol](
        f=1, n_clients=2, app="kv", seed=seed,
        req_timeout=25.0, retry_timeout=40.0,
        client_arrivals=split_arrivals(arrivals, 2),
        replica_options=dict(checkpoint_interval=CHECKPOINT,
                             window_size=WINDOW, batching=True,
                             batch_policy="adaptive", batch_delay=0.2),
        client_options=dict(max_outstanding=8),
    )
    sim.run_to_quiescence()
    assert sum(len(c.results) for c in clients) == n_requests
    held = []
    for r in replicas:
        sizes = _sizes(r)
        if protocol == "minbft":
            sizes.update({f"usig.{k}": v for k, v in _sizes(r.usig).items()})
            sizes.update({f"trinket.{k}": v
                          for k, v in _sizes(r.usig._trinket).items()})
        held.append(sizes)
    return held


@pytest.mark.parametrize("protocol", sorted(BUILDERS))
def test_replica_state_does_not_grow_with_requests(protocol):
    small, large = _run(protocol, 200), _run(protocol, 2_000)
    for before, after in zip(small, large):
        assert before.keys() == after.keys()
        for name in PER_SLOT & before.keys():
            assert before[name] <= SLOT_BOUND and after[name] <= SLOT_BOUND, name
        rest = before.keys() - PER_SLOT - PER_VIEW
        assert {k: after[k] for k in rest} == {k: before[k] for k in rest}
