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
from repro.faults.attacks import ATTACKS
from repro.faults.chaos import (
    PROTOCOLS,
    attack_sweep,
    chaos_sweep,
    run_attack,
    run_chaos,
)
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
# The chaos and attack cells are pinned per protocol stack (srb, minbft,
# pbft, service: the name before any "-" or "+" in ``ChaosResult.protocol``),
# so a behaviour change in one stack re-pins only that stack's digests.
#
# Re-pinned three times before the split, each time because bookkeeping
# inside the stats moved, never behaviour: twice ``stats["crypto"]``'s
# counters, once the ``simcore`` key's removal. ``CHAOS_CRYPTO_WORK`` below
# was computed at the first parent and held at every commit since. (1) The
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
# 8,629 free-list reuses, 1 wheel compaction over the 21 cells).
#
# The srb digests were re-pinned once after the split, for a behaviour
# change: rounds became per label, and Algorithm 1 runs each sequence
# number's copy, L1 and L2 rounds side by side instead of one sequence
# number at a time, so its cells send, sign and deliver at other times.
# The minbft, pbft and service digests were computed before that change and
# did not move with it.
#
# The minbft and service digests were re-pinned when a MinBFT NEW-VIEW
# bundle item began to carry its VIEW-CHANGE's UI, which every receiver
# verifies and the accountability observer harvests as one more binding.
# No order, verdict, schedule or crypto-work count moved; the counts that
# did, over the 21 cells: ``minbft+vc-withhold`` at seed 0 checks 6 more
# bindings (``forensics.uis_checked`` 1,046 -> 1,052) and hashes 12 more
# rebuilt VIEW-CHANGEs (``hash_misses`` 416 -> 428, ``serialize_misses``
# 675 -> 687); ``service`` at seed 1 hashes 4 more (``hash_misses`` 692 ->
# 696, ``serialize_misses`` 1,194 -> 1,198).
#
# The minbft and service digests were re-pinned again when a restarted
# MinBFT replica began to process its own USIG stream (its fresh UI-order
# enforcer skips to the counter the USIG kept over the reboot) and to adopt
# a checkpoint RESYNC ships as its own, re-announcing it. Two of the 21
# cells moved, both still ok: ``minbft+vc-withhold`` at seed 0, whose
# primary crashes and restarts, now processes its own PREPAREs, COMMITs and
# VIEW-CHANGE (``messages_sent`` 1,202 -> 1,226, ``hmac_ops`` 275 -> 281,
# ``forensics.uis_checked`` 1,052 -> 1,070); ``service`` at seed 0 adopts
# and re-announces a shipped checkpoint (``messages_sent`` 1,931 -> 1,938,
# ``hmac_ops`` 321 -> 323). ``CHAOS_CRYPTO_WORK`` moved with them: minbft
# ``hmac_ops`` 825 -> 831, service 852 -> 854.
CHAOS_STATS_HASH = {
    "srb": (
        "a403c4a85d6479e69d5dcbf32542fa44e41cb508c5f5646f45d2afc0cc673f63"
    ),
    "minbft": (
        "62e3b27b8ef72a2554acfd79b8a99dd7734ad16003ac497791e9a4e1db119a5b"
    ),
    "pbft": (
        "7b059d35cf08d55d2bf686b99dc50df68c956163218a715f8f6fac3fc24130b1"
    ),
    "service": (
        "2f155b62f99211b48ac89d7a49914ed346637690dab197f8d49326633a636d7f"
    ),
}
# the same cells with the ``crypto`` key removed from each ``stats``:
# behaviour, separate from crypto bookkeeping
CHAOS_BEHAVIOUR_HASH = {
    "srb": (
        "f41b252431f0e927648bfd1c2bade5b7000c3919713ba2462cdb020cc2f8c7f7"
    ),
    "minbft": (
        "fd15075ad07b36913fc46b7fdc2760e6e72fafad1a81481f8464d24f0b18faee"
    ),
    "pbft": (
        "4ffb5b265ce1191afd8aef206af5af7d648201e0caa98519de0df54a3d6e8128"
    ),
    "service": (
        "a8ac65e666353920898dcd27ebe9c9627d27ce343e4185f1e7881d0a9352f4d4"
    ),
}
# ... and the crypto counters that are work, not bookkeeping, summed over
# each stack's cells: (hmac_ops, signs, verify_misses, cheap_rejects)
CHAOS_CRYPTO_WORK = {
    "srb": (354, 177, 177, 0),
    "minbft": (831, 86, 81, 0),
    "pbft": (510, 267, 243, 0),
    "service": (854, 133, 77, 0),
}


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


def _stack(cell) -> str:
    """The protocol stack a chaos cell runs: srb, minbft, pbft or service."""
    return cell.protocol.split("+")[0].split("-")[0]


def _digests(cells, fields) -> dict[str, str]:
    """Per stack, the sha256 of ``fields(cell)`` over its cells, in order."""
    rows: dict[str, list] = {}
    for r in cells:
        rows.setdefault(_stack(r), []).append(fields(r))
    return {
        stack: hashlib.sha256(
            json.dumps(cell_rows, sort_keys=True, default=repr).encode()
        ).hexdigest()
        for stack, cell_rows in rows.items()
    }


def test_chaos_and_attack_cell_stats_are_pinned():
    cells = chaos_sweep(
        ("srb-uni", "minbft", "minbft-pipelined", "pbft", "service"),
        seeds=range(2),
    ) + attack_sweep(seeds=range(1))
    assert len(cells) == 21 and all(r.ok for r in cells)

    assert _digests(cells, lambda r: (
        r.protocol, r.seed, r.ok,
        {k: v for k, v in r.stats.items() if k != "crypto"},
    )) == CHAOS_BEHAVIOUR_HASH
    work: dict[str, list[int]] = {}
    for r in cells:
        sums = work.setdefault(_stack(r), [0, 0, 0, 0])
        for i, k in enumerate(("hmac_ops", "signs", "verify_misses", "cheap_rejects")):
            sums[i] += r.stats["crypto"][k]
    assert {stack: tuple(sums) for stack, sums in work.items()} == CHAOS_CRYPTO_WORK
    assert _digests(
        cells, lambda r: (r.protocol, r.seed, r.ok, r.stats)
    ) == CHAOS_STATS_HASH


# Every registered chaos cell, computed before protocols, variants and
# attacks became one registry of declarations: each PROTOCOLS name and each
# ATTACKS name at seeds 0 and 1 (``service-storm``, slower than all the
# others together, at seed 0 only), plus the runner keywords tests and
# docs set. Covers what the
# cell-stats pin above does not: the broken and stalling variants, the
# storm, verdicts, abort indexes, rendered schedules and replay hints.
# Per stack, as above; the srb digest was re-pinned with rounds per label.
# The pbft digest was re-pinned when PBFT's NEW-VIEW stopped carrying its
# re-proposal tuple: nobody hashes the null filler for that tuple any more,
# so in one cell (``pbft-equivocate`` at seed 1) the digest memo counters
# moved (``hash_hits`` 58 -> 44, ``hash_misses`` 41 -> 40,
# ``serialize_misses`` 222 -> 221). Nothing else in any cell moved. The
# minbft and service digests were re-pinned with the NEW-VIEW bundle's UIs
# (see above): the same counts moved, and ``minbft+vc-withhold`` at seed 1
# moved alike (``uis_checked`` 1,100 -> 1,106, ``hash_misses`` 441 -> 453,
# ``serialize_misses`` 714 -> 726). They were re-pinned again with the
# reborn MinBFT replica's own stream and checkpoint adoption (see above):
# the same two cells moved, and ``minbft+vc-withhold`` at seed 1 alike
# (``messages_sent`` 1,174 -> 1,192, ``uis_checked`` 1,106 -> 1,234).
# Nothing else in any of the 42 cells moved.
CHAOS_CELL_DIGEST = {
    "srb": (
        "cf0a525615426130f138e102c2394981cbef2af3b010306c9565de6331caf6a8"
    ),
    "minbft": (
        "f96a77d0f492e12a0943921933dcf3c0277f5f0053a9cfb0bff441856e8ed40b"
    ),
    "pbft": (
        "c6d85f3bad325590565f21765e383cb259ee3fd64648051cee283f6ee97b4f8f"
    ),
    "service": (
        "864e74b9ebb6f0ff0e950a8f32047953cc53a73c9da8eb42fb3c7881cd84e1e4"
    ),
}


def test_every_chaos_cell_is_pinned():
    cells = [
        run_chaos(protocol, seed)
        for protocol in sorted(PROTOCOLS)
        for seed in ((0,) if protocol == "service-storm" else (0, 1))
    ] + [
        run_attack(name, seed) for name in sorted(ATTACKS) for seed in (0, 1)
    ] + [
        run_chaos("minbft", 0, timeouts="adaptive"),
        run_chaos("minbft", 1, streaming=False),
        run_chaos("srb-uni-broken", 0, streaming=False),
        run_chaos("service-storm", 0, protected=False),
        run_attack("equivocate-prepare", 0, pipelined=True, ops_per_client=6),
    ]
    assert len(cells) == 15 + 22 + 5
    assert _digests(cells, lambda r: (
        r.protocol, r.ok, r.violations, r.liveness_violations,
        r.abort_index, r.stats, r.schedule, r.replay_hint(),
    )) == CHAOS_CELL_DIGEST


# Pinned at the parent of the client / checkpoint-path / verify_from
# consolidation: the paths that change touches and the constants above do
# not reach (the tenant's reject -> pause -> resubmit cycle, signed copies
# in Algorithm 1 over shared memory, eviction under trace_retention).
SERVICE_ORDER_HASH = (
    "6dbbd05cdfee806fa3b4542c39ab4a4e2f6eade9cc195984b9f94851840e666d"
)
# (results, failures, rejections, retransmissions) summed over the tenants
SERVICE_TENANT_COUNTS = (36, 44, 93, 20)
# Re-pinned when rounds became per label (Algorithm 1's four broadcasts
# run their copy / L1 / L2 rounds side by side; the value before was
# 8873b7e1...0722), and again when every shared-memory transport took one
# own publish in flight: the append log now appends one batch per publish,
# so Algorithm 1's entries sent while an append is in flight ride on the
# next one (the value before was 72666a07...a062).
SM_SRB_ORDER_HASH = (
    "6186d99b43e60e70676a8642aab746f04bb7d016140d94f0abe669fb5ee52d86"
)
# ``srb_sm_burst``'s behaviour witness at seeds 0 and 7, as
# ``benchmarks/e2e/run.py --workload srb_sm_burst --seed S --seconds 10
# --trace 0`` prints it. Rounds per label moved it (at seed 0: 218,710 ->
# 37,095 events, 102,511 -> 17,761 memory ops), and one own publish in
# flight moved it again: entries held while an append is in flight share
# the next append, so a sixth as many appends and as many reads (at seed 0:
# 37,095 -> 20,549 events, 17,761 -> 9,481 memory ops).
# ``benchmarks/e2e/witnesses.json`` is re-recorded only with the benchmark
# itself, so until then CI's behaviour-witness job holds the workload to
# this pin, exactly.
SRB_SM_BURST_WITNESS = {
    0: {
        "order_hash": (
            "787f5b8fb0357d64363812d43e6c9a147c7620f1a90d307df170a02bf02956da"
        ),
        "events": 20549,
        "memory_ops": 9481,
        "delivered": 3150,
    },
    7: {
        "order_hash": (
            "78c446a720bc638dade039266d5ddfee3face295aea6a0c768a461f012f9796e"
        ),
        "events": 20497,
        "memory_ops": 9458,
        "delivered": 3150,
    },
}
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
