"""Tests for the seeded chaos harness (repro.faults.chaos)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, PropertyViolation
from repro.faults.chaos import (
    assert_all_ok,
    chaos_sweep,
    format_failures,
    make_schedule,
    replay,
    run_chaos,
)

SEEDS = range(11)  # 11 seeds x 2 protocols = 22 seeded fault schedules


class TestProtocolsSurviveChaos:
    def test_srb_and_minbft_zero_violations_across_sweep(self):
        results = chaos_sweep(
            protocols=("srb-uni", "minbft"), seeds=SEEDS
        )
        assert len(results) == 2 * len(SEEDS)
        assert_all_ok(results)
        # the sweep must actually inject faults, not vacuously pass
        assert sum(r.stats["dropped"] for r in results) > 0
        assert sum(r.stats["duplicates"] for r in results) > 0
        assert sum(r.stats["restarts"] for r in results) > 0
        # and the protocols must actually make progress in every run
        assert all(r.stats["deliveries"] > 0 for r in results
                   if r.protocol == "srb-uni")
        assert all(r.stats["executions"] > 0 for r in results
                   if r.protocol == "minbft")

    def test_srb_uni_seed_29021_delivers_every_broadcast(self):
        # once a head-of-line block: pid 0's L1 round for k=1 can never
        # complete after a crash, and its later rounds used to queue behind it
        r = replay("srb-uni", 29021)
        assert r.ok, format_failures([r])


class TestBrokenProtocolDetection:
    def test_broken_fixture_fails_and_reproduces_by_seed(self):
        results = [run_chaos("srb-uni-broken", s) for s in range(20)]
        failing = [r for r in results if not r.ok]
        assert failing, "EagerBrokenSRB never violated safety in 20 schedules"
        # every reported seed reproduces the identical violations
        for r in failing[:3]:
            again = replay(r.protocol, r.seed)
            assert not again.ok
            assert again.violations == r.violations
            assert again.schedule == r.schedule

    def test_violations_are_sequencing(self):
        results = [run_chaos("srb-uni-broken", s) for s in range(20)]
        bad = next(r for r in results if not r.ok)
        assert any("sequencing" in v for v in bad.violations)

    def test_failure_report_names_seed_and_replay(self):
        results = [run_chaos("srb-uni-broken", s) for s in range(20)]
        text = format_failures(results)
        bad = next(r for r in results if not r.ok)
        assert f"seed={bad.seed}" in text
        assert "replay with" in text
        assert "GSTAdversary" in text  # the generated schedule is shown

    def test_assert_all_ok_raises_with_details(self):
        results = [run_chaos("srb-uni-broken", s) for s in range(20)]
        with pytest.raises(PropertyViolation, match="chaos"):
            assert_all_ok(results)


class TestScheduleDerivation:
    def test_schedule_is_pure_function_of_seed(self):
        a = make_schedule(7, crashable=[1, 2, 3])
        b = make_schedule(7, crashable=[1, 2, 3])
        assert a == b

    def test_different_seeds_differ(self):
        assert make_schedule(1, crashable=[1]) != make_schedule(2, crashable=[1])

    def test_describe_covers_crashes(self):
        found_crash = False
        for seed in range(10):
            s = make_schedule(seed, crashable=[1, 2])
            text = s.describe()
            assert f"seed={seed}" in text
            if s.crashes:
                found_crash = True
                assert "crash pid" in text
                for c in s.crashes:
                    assert c.pid in (1, 2)
        assert found_crash

    def test_at_most_one_process_down_at_a_time(self):
        for seed in range(50):
            s = make_schedule(seed, crashable=[0, 1, 2])
            downs = [
                (c.at, c.restart_at if c.restart_at is not None else s.horizon)
                for c in s.crashes
            ]
            downs.sort()
            for (_, end1), (start2, _) in zip(downs, downs[1:]):
                assert end1 <= start2

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos protocol"):
            run_chaos("nope", 0)
