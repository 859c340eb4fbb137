"""Cross-commit behaviour pin: hashes computed once, held constant.

Every other tier-1 determinism test compares two runs of the *same*
commit; nothing else notices a change that alters behaviour identically in
both. These constants were computed at the commit *before* the replica-core
/ cell-runner refactor and must survive every behaviour-preserving change
after it. A legitimate behaviour change re-pins them in the same commit
and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.rounds import RoundProcess
from repro.core.srb import SRBStreamChecker
from repro.core.srb_from_uni import build_sm_srb_system
from repro.core.uni_from_sm import ALL_SM_TRANSPORTS, build_objects_for
from repro.crypto.serialize import crypto_stats, reset_crypto_caches
from repro.faults.chaos import attack_sweep, chaos_sweep
from repro.service.soak import build_service_system, protected_profile
from repro.sim.adversary import ReliableAsynchronous
from repro.sim.runner import Simulation
from repro.workloads.load import OrderHasher, run_pipeline_load

ORDER_HASH = {
    "minbft": "9262806c7accdc3d177884864d7a5b3b86293bc8f7dcbfe2171b5bb3bbcbbcc1",
    "pbft": "37e943d9511031f5dfc9e9c8d60ddc91308a0f46e90d1cf13c7dd0df5a7c67e6",
}
# (hmac_ops, signs, verify_misses, hash_hits, hash_misses, cheap_rejects) of the
# same two runs, computed at the parent of the part-keyed signature-verdict
# memo: crypto *work*. That change and the encoder kernel under it may move
# ``serialize_*`` (a verdict lookup stopped encoding: 5,452 -> 4,252 calls
# and 9,887 -> 3,524) and, through the core's proposal memo, PBFT's
# ``verify_hits`` (6,363 -> 5,163: a batch's requests are no longer
# re-verified at every replica in every phase) — and nothing else.
LOAD_CRYPTO_WORK = {
    "minbft": (2046, 400, 400, 5873, 2206, 0),
    "pbft": (3316, 1728, 1588, 563, 208, 0),
}
# Re-pinned three times, each time because bookkeeping inside the stats
# moved, never behaviour: twice ``stats["crypto"]``'s counters, once the
# ``simcore`` key's removal. ``CHAOS_CRYPTO_WORK`` below was computed at the
# first parent and holds at every commit since. (1) The
# verdict memos stopped serializing their keys (USIG memo on the carried
# digest, proof / proposal memos on object identity, ``type_fingerprint``
# deleted): over the 21 cells ``serialize_misses`` 12,895 -> 7,526,
# ``serialize_hits`` 2,699 -> 250, ``hash_hits`` 4,682 -> 8,007,
# ``hash_misses`` 2,995 -> 2,472, ``verify_hits`` 2,540 -> 2,603 (an equal
# but distinct proof is re-validated once, its HMACs still found in the
# verification memo). (2) ``SignatureScheme.verify`` probes its memo on the
# parts of the signed tuple before encoding anything, and PBFT shares the
# core's proposal memo: ``serialize_misses`` 7,526 -> 5,044,
# ``serialize_hits`` 250 -> 129, ``verify_hits`` 2,603 -> 2,531 (the PBFT
# cells' re-verified batch requests); ``hash_*``, ``verify_misses``,
# ``hmac_ops``, ``signs`` and ``cheap_rejects`` as before. (3) The event
# loop lost its timer wheel and event free-list, and with them the
# ``simcore`` key of every cell's stats (their counters: 9,489 wheel hits,
# 8,629 free-list reuses, 1 wheel compaction over the 21 cells). This value
# is the previous parent's digest of the stats minus ``simcore``; nothing
# else in them moved.
CHAOS_STATS_HASH = (
    "68fc547d9e735752dc1468ab843c71f5a29e8841ff742725e8cd668fb40e987b"
)
# the same cells with the ``crypto`` key removed from each ``stats``:
# behaviour, separate from crypto bookkeeping. Re-pinned once, with (3)
# above: it is the previous parent's digest of the stats minus ``crypto``
# *and* ``simcore`` (event-loop bookkeeping, not behaviour).
CHAOS_BEHAVIOUR_HASH = (
    "1dc0ef8f770a1f5e61d0ad5b9307d1ba652b23f600b5a81d6990f50f45423934"
)
# ... and the crypto counters that are work, not bookkeeping, summed over
# the cells: (hmac_ops, signs, verify_misses, cheap_rejects)
CHAOS_CRYPTO_WORK = (2493, 639, 554, 0)


@pytest.mark.parametrize("protocol", sorted(ORDER_HASH))
def test_pipeline_load_order_hash_is_pinned(protocol):
    reset_crypto_caches()
    result = run_pipeline_load(protocol, n_requests=400, rate=20.0, seed=3)
    assert result.order_hash == ORDER_HASH[protocol]
    work = crypto_stats()
    assert (
        work.hmac_ops, work.signs, work.verify_misses,
        work.hash_hits, work.hash_misses, work.cheap_rejects,
    ) == LOAD_CRYPTO_WORK[protocol]


# The 400-request runs above see no view change. These longer ones do —
# 3 per MinBFT replica, 4 per PBFT replica, PBFT's with two checkpoint
# state transfers and four null-filled slots — so they pin view adoption
# under load: fast-forward, re-proposal and the timers it re-arms.
# Computed before the two protocols' view-adoption tails became one.
VIEW_CHANGE_ORDER_HASH = {
    "minbft": "b1e3743b359fc0b42517284a5fe06745ae930c16df1d16dbc8fa8c4b7243047f",
    "pbft": "3beda9cdd7f8bbc632e08f8007de6e010f26fd28a832e523930871d777a561e0",
}
# (state_transfers, noop_slots) summed over the replicas
VIEW_CHANGE_CATCH_UP = {"minbft": (0, 0), "pbft": (2, 4)}


@pytest.mark.parametrize("protocol", sorted(VIEW_CHANGE_ORDER_HASH))
def test_pipeline_load_across_view_changes_is_pinned(protocol):
    result = run_pipeline_load(protocol, n_requests=2000, rate=20.0, seed=0)
    assert result.order_hash == VIEW_CHANGE_ORDER_HASH[protocol]
    assert (
        result.consensus["state_transfers"], result.consensus["noop_slots"]
    ) == VIEW_CHANGE_CATCH_UP[protocol]


def test_chaos_and_attack_cell_stats_are_pinned():
    cells = chaos_sweep(
        ("srb-uni", "minbft", "minbft-pipelined", "pbft", "service"),
        seeds=range(2),
    ) + attack_sweep(seeds=range(1))
    assert len(cells) == 21 and all(r.ok for r in cells)

    def digest(stats_of):
        blob = json.dumps(
            [(r.protocol, r.seed, r.ok, stats_of(r)) for r in cells],
            sort_keys=True, default=repr,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    assert digest(
        lambda r: {k: v for k, v in r.stats.items() if k != "crypto"}
    ) == CHAOS_BEHAVIOUR_HASH
    assert tuple(
        sum(r.stats["crypto"][k] for r in cells)
        for k in ("hmac_ops", "signs", "verify_misses", "cheap_rejects")
    ) == CHAOS_CRYPTO_WORK
    assert digest(lambda r: r.stats) == CHAOS_STATS_HASH


# Pinned at the parent of the client / checkpoint-path / verify_from
# consolidation: the paths that change touches and the constants above do
# not reach (the tenant's reject -> pause -> resubmit cycle, signed copies
# in Algorithm 1 over shared memory, eviction under trace_retention).
SERVICE_ORDER_HASH = (
    "6dbbd05cdfee806fa3b4542c39ab4a4e2f6eade9cc195984b9f94851840e666d"
)
# (results, failures, rejections, retransmissions) summed over the tenants
SERVICE_TENANT_COUNTS = (36, 44, 93, 20)
SM_SRB_ORDER_HASH = (
    "8873b7e16bb2efad3d7fea22d63175a61d10b6eddcc20a3ead96da64bf1a0722"
)
SWMR_ROUNDS_ORDER_HASH = (
    "7050343d87220f37817be97a0d649557c0359183ea994462a0543a50ab6e1bf9"
)


def test_overloaded_service_run_is_pinned():
    hasher = OrderHasher()
    sim, _replicas, ingress, tenants = build_service_system(
        profile=protected_profile(
            think_time=0.2, start_spread=0.5, tenant_timeout=2.0,
            retry_reserve=1.0, bucket_rate=1.0,
        ),
        n_tenants=20, ops_per_tenant=4, seed=3, observers=(hasher,),
    )
    sim.run(until=300.0)
    assert sum(ingress.rejects.values()) > 0 and all(t.done for t in tenants)
    counts = (
        sum(len(t.results) for t in tenants),
        sum(len(t.failures) for t in tenants),
        sum(t.rejections for t in tenants),
        sum(t.retransmissions for t in tenants),
    )
    assert (counts, hasher.hexdigest()) == (SERVICE_TENANT_COUNTS, SERVICE_ORDER_HASH)


def test_sm_srb_burst_order_hash_is_pinned():
    sim, procs, _scheme = build_sm_srb_system(n=4, t=1, seed=3)
    checker = sim.attach_observer(SRBStreamChecker(0, range(4), fail_fast=True))
    hasher = sim.attach_observer(OrderHasher())
    for i in range(4):
        sim.at(0.5 * i, lambda i=i: procs[0].broadcast(("v", i)))
    sim.run(until=60.0)
    assert checker.finish().ok and len(checker.deliveries) == 16
    assert hasher.hexdigest() == SM_SRB_ORDER_HASH


class _Chat(RoundProcess):
    """Every process runs ``nrounds`` labelled rounds back to back."""

    def __init__(self, transport, nrounds):
        super().__init__(transport)
        self.nrounds = nrounds
        self.completed = 0

    def on_round_start(self):
        self.rounds.begin_round(("m", self.pid, 1), label=("r", 1))

    def on_round_complete(self, label):
        self.completed += 1
        if label[1] < self.nrounds:
            nxt = label[1] + 1
            self.rounds.begin_round(("m", self.pid, nxt), label=("r", nxt))


def test_swmr_rounds_under_retention_order_hash_is_pinned():
    n, nrounds = 3, 40
    procs = [_Chat(ALL_SM_TRANSPORTS["swmr"](), nrounds) for _ in range(n)]
    hasher = OrderHasher()
    sim = Simulation(
        procs, ReliableAsynchronous(0.0, 3.0), seed=3,
        trace_retention=500, observers=(hasher,),
    )
    for obj in build_objects_for("swmr", n):
        sim.memory.register(obj)
    sim.run(until=2_000.0)
    assert [p.completed for p in procs] == [nrounds] * n
    assert sim.trace.evicted > 0
    assert hasher.hexdigest() == SWMR_ROUNDS_ORDER_HASH
