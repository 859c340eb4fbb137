"""The size of the encoding and digest LRUs changes speed, never behaviour.

``crypto/serialize.py`` keeps its identity LRUs at 4,096 entries, sized by
the reuse distances of the benchmark workloads. A smaller table may
re-encode a value a larger one would have served, and nothing else: the
same run with 32,768-entry tables swapped in delivers the same things in
the same order and counts the same ``CryptoStats``. Each run here is long
enough that the shipped encoding LRU evicts, so the comparison is between
an LRU that forgot entries and one that did not.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.srb import check_srb
from repro.core.srb_from_uni import build_sm_srb_system
from repro.crypto import serialize
from repro.crypto.serialize import BoundedCache, crypto_stats, reset_crypto_caches
from repro.workloads import run_pipeline_load

LARGE = 1 << 15  # the size both LRUs had before they were sized by reuse


def _load_cell(protocol: str, n_requests: int):
    def run():
        res = run_pipeline_load(protocol=protocol, n_requests=n_requests,
                                rate=20.0, seed=3)
        assert res.safety_ok and res.liveness_ok
        assert res.completed == n_requests
        return res.order_hash
    return run


def _srb_burst(count: int):
    def run():
        n, t = 7, 3
        sim, procs, _ = build_sm_srb_system(n=n, t=t, sender=0, seed=3)
        for i in range(count):
            sim.at(0.5 * i, lambda i=i: procs[0].broadcast(("v", i)))
        sim.run(until=0.5 * count + 500.0)
        report = check_srb(sim.trace, 0, range(n))
        report.assert_ok()
        assert len(report.deliveries) == n * count
        return [(e.time, e.pid, e.field("seq"))
                for e in sim.trace.events("bcast_deliver")], report.deliveries
    return run


RUNS = {
    "minbft": _load_cell("minbft", 300),
    "pbft": _load_cell("pbft", 250),
    "srb-sm": _srb_burst(40),
}


def _run_counting_puts(run, monkeypatch):
    """Run from cold caches; returns its outcome, its crypto counters and
    how many puts the encoding LRU took."""
    puts = Counter()
    put = BoundedCache.put

    def counting_put(cache, key, value):
        puts[id(cache)] += 1
        put(cache, key, value)

    with monkeypatch.context() as m:
        m.setattr(BoundedCache, "put", counting_put)
        reset_crypto_caches()
        outcome = run()
        stats = crypto_stats().as_dict()
    reset_crypto_caches()
    return outcome, stats, puts[id(serialize._ENCODING_CACHE)]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_shipped_lrus_behave_like_large_ones(name, monkeypatch):
    run = RUNS[name]
    shipped = serialize._ENCODING_CACHE.maxsize
    assert shipped < LARGE and serialize._DIGEST_CACHE.maxsize < LARGE
    outcome, stats, puts = _run_counting_puts(run, monkeypatch)
    assert puts > shipped, "the run must make the shipped encoding LRU evict"

    monkeypatch.setattr(serialize, "_ENCODING_CACHE", BoundedCache(LARGE))
    monkeypatch.setattr(serialize, "_DIGEST_CACHE", BoundedCache(LARGE))
    large_outcome, large_stats, large_puts = _run_counting_puts(run, monkeypatch)
    assert large_puts < LARGE  # nothing was evicted from the large table

    assert large_outcome == outcome
    assert large_stats == stats
