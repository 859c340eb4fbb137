"""Tests for replicated apps, the safety checker, workloads, and analysis."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import format_kv, format_table, percentile, summarize
from repro.consensus.apps import BankApp, CounterApp, KVStoreApp, NoopApp, make_app
from repro.consensus.safety import check_replication
from repro.errors import ConfigurationError
from repro.sim.trace import TraceStore
from repro.workloads import WorkloadSpec, bank_transfers, generate_workload, skewed_kv, uniform_kv


class TestApps:
    def test_counter(self):
        app = CounterApp()
        assert app.apply(("add", 5)) == 5
        assert app.apply(("add", -2)) == 3
        assert app.apply(("get",)) == 3

    def test_kv(self):
        app = KVStoreApp()
        assert app.apply(("put", "k", "v")) == "OK"
        assert app.apply(("get", "k")) == "v"
        assert app.apply(("cas", "k", "v", "w")) is True
        assert app.apply(("cas", "k", "v", "x")) is False
        assert app.apply(("delete", "k")) is True
        assert app.apply(("delete", "k")) is False

    def test_bank_order_sensitivity(self):
        app = BankApp()
        app.apply(("open", "a"))
        app.apply(("open", "b"))
        app.apply(("deposit", "a", 50))
        assert app.apply(("transfer", "a", "b", 60)) == "INSUFFICIENT"
        assert app.apply(("transfer", "a", "b", 30)) == "OK"
        assert app.apply(("balance", "b")) == 30
        assert app.apply(("deposit", "ghost", 1)) == "NO-ACCOUNT"

    def test_unknown_ops_raise(self):
        for app in (CounterApp(), KVStoreApp(), BankApp()):
            with pytest.raises(ConfigurationError):
                app.apply(("fly",))

    def test_make_app(self):
        assert isinstance(make_app("noop"), NoopApp)
        with pytest.raises(ConfigurationError):
            make_app("nope")

    @given(st.lists(st.tuples(st.sampled_from(["put", "get", "delete"]),
                              st.sampled_from(["a", "b", "c"])), max_size=30))
    @settings(max_examples=50)
    def test_kv_determinism(self, spec):
        ops = []
        for kind, key in spec:
            if kind == "put":
                ops.append(("put", key, key * 2))
            else:
                ops.append((kind, key))
        a, b = KVStoreApp(), KVStoreApp()
        ra = [a.apply(op) for op in ops]
        rb = [b.apply(op) for op in ops]
        assert ra == rb and a.digest() == b.digest()


def trace_with_executions(executions, dones=()):
    t = TraceStore()
    for i, (replica, seq, client, req_id, op, result) in enumerate(executions):
        t.record(float(i), "custom", replica, event="execute", seq=seq,
                 client=client, req_id=req_id, op=op, result=result)
    for client, ops in dones:
        t.record(99.0, "custom", client, event="client_done", ops=ops)
    return t


class TestSafetyChecker:
    def test_clean_logs_pass(self):
        t = trace_with_executions([
            (0, 1, 9, 1, ("add", 1), 1), (1, 1, 9, 1, ("add", 1), 1),
            (0, 2, 9, 2, ("add", 1), 2), (1, 2, 9, 2, ("add", 1), 2),
        ], dones=[(9, 2)])
        check_replication(t, [0, 1], expected_ops={9: 2}).assert_ok()

    def test_slot_divergence_flagged(self):
        t = trace_with_executions([
            (0, 1, 9, 1, ("add", 1), 1),
            (1, 1, 9, 2, ("add", 2), 2),  # different request at slot 1
        ])
        rep = check_replication(t, [0, 1])
        assert rep.violations

    def test_result_divergence_flagged(self):
        t = trace_with_executions([
            (0, 1, 9, 1, ("add", 1), 1),
            (1, 1, 9, 1, ("add", 1), 999),
        ])
        rep = check_replication(t, [0, 1])
        assert any("diverges across replicas" in v for v in rep.violations)

    def test_hole_flagged(self):
        t = trace_with_executions([(0, 2, 9, 1, ("add", 1), 1)])
        rep = check_replication(t, [0])
        assert any("non-contiguous" in v for v in rep.violations)

    def test_duplicate_execution_flagged(self):
        t = trace_with_executions([
            (0, 1, 9, 1, ("add", 1), 1),
            (0, 2, 9, 1, ("add", 1), 2),
        ])
        rep = check_replication(t, [0])
        assert any("twice" in v for v in rep.violations)

    def test_client_liveness(self):
        t = trace_with_executions([], dones=[(9, 3)])
        rep = check_replication(t, [0], expected_ops={9: 3, 10: 2})
        assert any("client 10" in v for v in rep.liveness_violations)
        rep2 = check_replication(t, [0], expected_ops={9: 5})
        assert any("3/5" in v for v in rep2.liveness_violations)


class TestWorkloads:
    def test_uniform_deterministic(self):
        assert uniform_kv(20, seed=1) == uniform_kv(20, seed=1)
        assert uniform_kv(20, seed=1) != uniform_kv(20, seed=2)

    def test_skew_concentrates_on_hot_keys(self):
        ops = skewed_kv(2000, seed=3, keys=16, zipf_s=1.5)
        from collections import Counter

        keys = Counter(op[1] for op in ops)
        assert keys["k0"] > keys.get("k15", 0) * 3

    def test_bank_workload_shape(self):
        ops = bank_transfers(30, seed=4, accounts=4)
        assert len(ops) == 30
        assert ops[0][0] == "open"
        assert any(op[0] == "transfer" for op in ops)

    def test_generate_by_spec(self):
        spec = WorkloadSpec(kind="uniform-kv", n_ops=10, seed=5)
        assert len(generate_workload(spec)) == 10
        with pytest.raises(ConfigurationError):
            generate_workload(WorkloadSpec(kind="nope", n_ops=1))

    def test_zipf_validation(self):
        with pytest.raises(ConfigurationError):
            skewed_kv(5, zipf_s=0)


class TestAnalysis:
    def test_percentiles(self):
        vals = sorted(range(1, 101))
        assert percentile(vals, 0.0) == 1
        assert percentile(vals, 1.0) == 100
        assert abs(percentile(vals, 0.5) - 50.5) < 1e-9

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4 and s.mean == 2.5
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert "p95" in s.row()

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])
        with pytest.raises(ConfigurationError):
            percentile([], 0.5)
        with pytest.raises(ConfigurationError):
            percentile([1.0], 2.0)

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "---" in lines[2]
        assert len(lines) == 5

    def test_format_kv(self):
        out = format_kv("Run", [("metric", 1), ("longer_name", "x")])
        assert "metric" in out and "longer_name" in out
