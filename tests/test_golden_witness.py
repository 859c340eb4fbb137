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
# Re-pinned twice, each time because ``stats["crypto"]`` is inside this hash
# and its bookkeeping counters moved; the two constants below it were
# computed at the first parent and hold at every commit since. (1) The
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
# ``hmac_ops``, ``signs`` and ``cheap_rejects`` as before.
CHAOS_STATS_HASH = (
    "a73217de3f9088e00f24bc2ed8370a317129e4fb30ae91e660e14b9d934feccd"
)
# the same cells with the ``crypto`` key removed from each ``stats``:
# behaviour, separate from crypto bookkeeping
CHAOS_BEHAVIOUR_HASH = (
    "b36a4f143f16c36f3cd8dc5bceb483b8053b7a3f7eb1f8fe2f8205273dd2c4d9"
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
