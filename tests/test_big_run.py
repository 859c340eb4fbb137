"""Workload generators: open-loop arrivals and per-tenant op streams.

Both are pure functions of their seed: the arrival clock draws from its own
stream (changing the op mix never moves a timestamp), holds its laws at
rates far past saturation, and a tenant's ops depend on ``(seed, index)``
alone, not on the size of the fleet.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.workloads.generator import (
    open_loop_arrivals,
    tenant_ops,
    tenant_workloads,
)


class TestOpenLoopArrivals:
    def test_deterministic_in_seed(self):
        assert open_loop_arrivals(30, seed=5) == open_loop_arrivals(30, seed=5)
        assert open_loop_arrivals(30, seed=5) != open_loop_arrivals(30, seed=6)

    def test_arrival_times_strictly_increase(self):
        arrivals = open_loop_arrivals(100, seed=2, rate=50.0)
        times = [t for t, _ in arrivals]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_times_independent_of_op_stream(self):
        # the arrival clock draws from its own rng stream, so changing the
        # op generator must not move the timestamps
        kv = open_loop_arrivals(20, seed=9, kind="uniform-kv")
        bank = open_loop_arrivals(20, seed=9, kind="bank")
        assert [t for t, _ in kv] == [t for t, _ in bank]
        assert [op for _, op in kv] != [op for _, op in bank]

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            open_loop_arrivals(10, rate=0.0)


class TestOverloadArrivals:
    """The generator's laws must survive rates far past saturation — the
    regime the serving-layer soak drives it into."""

    def test_count_exact_at_any_rate(self):
        for rate in (0.01, 10.0, 500.0, 1e6):
            assert len(open_loop_arrivals(200, seed=4, rate=rate)) == 200

    def test_strictly_increasing_even_at_extreme_rates(self):
        # exponential interarrivals are strictly positive, so the clock
        # must never stall or go backwards however dense the stream
        times = [t for t, _ in open_loop_arrivals(500, seed=8, rate=1e6)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_mean_interarrival_tracks_rate(self):
        n = 2000
        span = open_loop_arrivals(n, seed=6, rate=100.0)[-1][0]
        assert span * 100.0 / n == pytest.approx(1.0, rel=0.1)

    def test_doubling_rate_halves_the_span(self):
        slow = open_loop_arrivals(1000, seed=6, rate=50.0)[-1][0]
        fast = open_loop_arrivals(1000, seed=6, rate=100.0)[-1][0]
        assert slow / fast == pytest.approx(2.0, rel=0.15)


class TestTenantWorkloads:
    def test_deterministic_and_independent_of_fleet_size(self):
        # tenant i's stream derives from (seed, i) alone: growing the
        # fleet must not move anyone's ops
        assert tenant_ops(3, 20, seed=5) == tenant_ops(3, 20, seed=5)
        small = tenant_workloads(4, 20, seed=5)
        large = tenant_workloads(8, 20, seed=5)
        assert small == large[:4]

    def test_private_keyspace(self):
        a, b = tenant_workloads(2, 30, seed=7)
        touched = lambda ops: {op[1] for op in ops}
        assert touched(a) & touched(b) == set()

    def test_bank_opens_then_mixes_reads(self):
        ops = tenant_ops(0, 40, seed=3, kind="bank", read_ratio=0.5)
        assert ops[0] == ("open", "tenant0")
        kinds = {op[0] for op in ops[1:]}
        assert kinds == {"balance", "deposit"}

    def test_read_ratio_extremes(self):
        no_reads = tenant_ops(1, 30, seed=3, read_ratio=0.0)
        assert all(op[0] != "balance" for op in no_reads)
        all_reads = tenant_ops(1, 30, seed=3, read_ratio=1.0)
        assert all(op[0] == "balance" for op in all_reads[1:])

    def test_kv_kind(self):
        ops = tenant_ops(2, 25, seed=4, kind="kv", read_ratio=0.3)
        assert {op[0] for op in ops} <= {"get", "put"}
        assert all(op[1] == "tenant2" for op in ops)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tenant_ops(0, 10, read_ratio=1.5)
        with pytest.raises(ConfigurationError):
            tenant_ops(0, 10, kind="graph")
        with pytest.raises(ConfigurationError):
            tenant_workloads(0, 10)
