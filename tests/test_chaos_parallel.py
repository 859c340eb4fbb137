"""Parallel chaos sweeps: bit-identical to serial, plus report plumbing.

``chaos_sweep(workers=N)`` fans the grid over worker processes; every run
resets the process-global crypto caches on entry, so the per-run
:class:`CryptoStats` embedded in ``ChaosResult.stats`` — and therefore the
entire result object — must come back identical to the serial sweep. The
fast tests cover a small grid; the ``slow``-marked sweep runs the full
acceptance grid (both protocols × ``range(10)``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.serialize import caching_disabled
from repro.errors import ConfigurationError
from repro.faults.chaos import (
    ChaosResult,
    chaos_sweep,
    format_failures,
    replay_from_hint,
    run_attack,
    run_chaos,
)


def as_tuple(r: ChaosResult) -> tuple:
    return (r.protocol, r.seed, r.ok, r.violations, r.schedule, r.stats,
            r.abort_index, r.liveness_violations)


class TestParallelSweep:
    def test_workers_bit_identical_small_grid(self):
        kw = dict(protocols=("srb-uni", "minbft"), seeds=range(2),
                  horizon=250.0)
        serial = chaos_sweep(**kw)
        parallel = chaos_sweep(workers=4, **kw)
        assert [as_tuple(r) for r in parallel] == [as_tuple(r) for r in serial]
        assert all("crypto" in r.stats for r in parallel)

    @pytest.mark.slow
    def test_workers_bit_identical_full_grid(self):
        kw = dict(protocols=("srb-uni", "minbft"), seeds=range(10))
        serial = chaos_sweep(**kw)
        parallel = chaos_sweep(workers=4, **kw)
        assert [as_tuple(r) for r in parallel] == [as_tuple(r) for r in serial]

    def test_workers_one_is_serial_path(self):
        kw = dict(protocols=("srb-uni",), seeds=range(2), horizon=250.0)
        assert [as_tuple(r) for r in chaos_sweep(workers=1, **kw)] == [
            as_tuple(r) for r in chaos_sweep(**kw)
        ]

    def test_workers_respect_caching_disabled(self):
        # pool workers are fresh interpreters where caching defaults to on;
        # the sweep must ship the parent's flag along or an uncached sweep
        # silently runs cached in parallel (different CryptoStats)
        kw = dict(protocols=("srb-uni",), seeds=range(2), horizon=250.0)
        with caching_disabled():
            serial = chaos_sweep(**kw)
            parallel = chaos_sweep(workers=2, **kw)
        assert [as_tuple(r) for r in parallel] == [as_tuple(r) for r in serial]
        for r in parallel:
            assert r.stats["crypto"]["verify_hits"] == 0
            assert r.stats["crypto"]["serialize_hits"] == 0

    def test_cached_sweep_equals_uncached_reference(self):
        # whole cells, not single verdicts (tests/test_crypto_cache.py,
        # tests/test_memo_poisoning.py): with the caches on, every cell ends
        # exactly as the re-serialize-and-re-HMAC-everything reference does,
        # for at most a third of the HMACs
        kw = dict(protocols=("srb-uni", "minbft"), seeds=range(2),
                  horizon=250.0)
        with caching_disabled():
            uncached = chaos_sweep(**kw)
        cached = chaos_sweep(**kw)

        def verdict(r: ChaosResult) -> tuple:
            stats = {k: v for k, v in r.stats.items() if k != "crypto"}
            return as_tuple(dataclasses.replace(r, stats=stats))

        assert [verdict(r) for r in cached] == [verdict(r) for r in uncached]
        hmacs = lambda rs: sum(r.stats["crypto"]["hmac_ops"] for r in rs)
        assert 0 < 3 * hmacs(cached) <= hmacs(uncached)

    def test_crypto_stats_reset_per_run(self):
        # back-to-back runs must report identical per-run counters: the
        # second run starts from a cold cache, not the first run's warm one
        first = run_chaos("srb-uni", 3, horizon=250.0)
        second = run_chaos("srb-uni", 3, horizon=250.0)
        assert first.stats["crypto"] == second.stats["crypto"]
        assert first.stats["crypto"]["hmac_ops"] > 0


class TestReplayHint:
    def test_round_trip(self):
        original = run_chaos("srb-uni", 4, horizon=250.0)
        replayed = replay_from_hint(original.replay_hint(), horizon=250.0)
        assert as_tuple(replayed) == as_tuple(original)

    def test_round_trip_from_parallel_sweep(self):
        results = chaos_sweep(protocols=("minbft",), seeds=range(2),
                              horizon=250.0, workers=2)
        for r in results:
            replayed = replay_from_hint(r.replay_hint(), horizon=250.0)
            assert as_tuple(replayed) == as_tuple(r)

    def test_hint_alone_rebuilds_a_non_default_cell(self):
        # make_schedule places GST and every crash relative to the horizon,
        # so a failure found at horizon=250 is another cell at the default
        # 600: the hint has to carry what the sweep was started with
        results = chaos_sweep(protocols=("srb-uni-broken",), seeds=range(4),
                              horizon=250.0)
        bad = next(r for r in results if not r.ok)
        assert "horizon=250.0" in bad.replay_hint()
        assert replay_from_hint(bad.replay_hint()) == bad
        # runner kwargs are not in the protocol name either
        adaptive = run_chaos("minbft", 3, horizon=250.0, timeouts="adaptive")
        assert "timeouts='adaptive'" in adaptive.replay_hint()
        assert replay_from_hint(adaptive.replay_hint()) == adaptive
        # ... and a default cell's hint stays the bare (protocol, seed)
        assert run_chaos("srb-uni", 4).replay_hint().endswith("('srb-uni', 4)")

    def test_runner_keyword_keeps_the_cell_name(self):
        # a keyword never renames the cell, so its hint names a cell that
        # takes the keyword again
        r = run_chaos("minbft", 0, pipelined=True)
        assert r.protocol == "minbft"
        assert replay_from_hint(r.replay_hint()) == r

    def test_hint_with_a_non_literal_argument_rejected(self):
        with pytest.raises(ConfigurationError, match="not literals"):
            replay_from_hint(
                "repro.faults.chaos.replay('service', 3, profile=PROFILE)"
            )

    @pytest.mark.parametrize(
        "attack", ["equivocate-prepare", "pbft-equivocate", "srb-forge-l1"]
    )
    def test_round_trip_attack_cell(self, attack):
        # an attack cell reports "<protocol>+<attack>"; its hint must replay
        original = run_attack(attack, 3)
        assert "+" + attack in original.protocol
        replayed = replay_from_hint(original.replay_hint())
        assert as_tuple(replayed) == as_tuple(original)

    def test_attack_hint_with_wrong_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="targets minbft"):
            replay_from_hint(
                "repro.faults.chaos.replay('pbft+equivocate-prepare', 3)"
            )

    def test_hint_embedded_in_surrounding_text(self):
        r = replay_from_hint(
            "CI log noise ... replay with: "
            "repro.faults.chaos.replay('srb-uni', 2) ... more noise",
            horizon=250.0,
        )
        assert (r.protocol, r.seed) == ("srb-uni", 2)

    def test_garbage_hint_rejected(self):
        with pytest.raises(ConfigurationError):
            replay_from_hint("no hint here")


def fake_result(seed: int, violations: list[str],
                liveness: list[str] | None = None) -> ChaosResult:
    return ChaosResult(
        protocol="srb-uni-broken", seed=seed, ok=False,
        violations=violations, schedule=f"seed={seed}\n  synthetic",
        liveness_violations=liveness or [],
    )


class TestFormatFailuresDedup:
    def test_identical_violations_collapsed_across_seeds(self):
        msg = "sequencing: p1 delivered seq 3 before seq 2"
        out = format_failures([fake_result(s, [msg]) for s in range(6)])
        assert out.count(msg) == 1
        assert out.count("1 identical to earlier seeds") == 5
        # every failing seed still gets its block and replay hint
        for s in range(6):
            assert f"repro.faults.chaos.replay('srb-uni-broken', {s})" in out

    def test_distinct_violations_all_shown(self):
        out = format_failures([
            fake_result(0, ["violation A"]),
            fake_result(1, ["violation B"]),
        ])
        assert "violation A" in out and "violation B" in out
        assert "identical to earlier seeds" not in out

    def test_liveness_deduped_separately(self):
        miss = "request (4, 1) not executed within bound"
        out = format_failures([
            fake_result(s, [], liveness=[miss]) for s in range(3)
        ])
        assert out.count(miss) == 1
        assert "identical to earlier seeds" in out

    def test_all_clean(self):
        ok = ChaosResult(protocol="srb-uni", seed=0, ok=True, violations=[],
                         schedule="s")
        assert format_failures([ok]) == "all chaos runs clean"

    def test_real_broken_protocol_sweep_dedupes(self):
        results = chaos_sweep(protocols=("srb-uni-broken",), seeds=range(4),
                              horizon=250.0)
        bad = [r for r in results if not r.ok]
        assert bad, "the broken protocol fixture should fail some seeds"
        out = format_failures(results)
        # the report must stay parseable: one block per failing seed
        assert out.count("replay with:") == len(bad)
