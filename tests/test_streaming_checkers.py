"""Streaming checkers vs batch checkers: identical verdicts, fail-fast aborts.

The Trace-v2 refactor rebuilt every property checker around an incremental
core that runs both ways — batch (``check_*`` over a finished trace) and
streaming (attached as a live :class:`TraceObserver`). These tests pin the
contract: same state, same report, and with ``fail_fast=True`` the run
stops at the exact violating event.
"""

from __future__ import annotations

import random

import pytest

from repro.agreement.definitions import (
    WEAK,
    AgreementStreamChecker,
    check_agreement,
)
from repro.consensus.safety import ReplicationStreamChecker, check_replication
from repro.core.directionality import (
    DirectionalityStreamChecker,
    check_directionality,
)
from repro.core.srb import SRBStreamChecker, check_srb
from repro.errors import PropertyViolation
from repro.faults.chaos import make_schedule, run_chaos
from repro.service.soak import ServiceLivenessAuditor
from repro.sim.trace import TraceStore

SEEDS = range(11)  # must mirror tests/test_chaos.py: the tier-1 sweep grid


def recorded_through(trace_builder, checker):
    """Build a trace while ``checker`` rides along as a live observer."""
    store = TraceStore()
    store.subscribe(checker)
    trace_builder(store)
    return store


# --- synthetic trace builders ---------------------------------------------


def srb_trace(store, seed=0, violate=False):
    rng = random.Random(seed)
    msgs = [(k, f"m{k}") for k in range(1, 6)]
    t = 0.0
    for k, m in msgs:
        store.record(t, "bcast", 0, seq=k, value=m)
        t += 1.0
    for p in (1, 2, 3):
        order = list(msgs)
        if violate and p == 2:
            order[0], order[1] = order[1], order[0]  # out-of-order delivery
        elif not violate:
            rng.shuffle(order)
            order.sort()  # correct receivers deliver in seq order
        for k, m in order:
            store.record(t, "bcast_deliver", p, sender=0, seq=k, value=m)
            t += 1.0


def rounds_trace(store, seed=0, violate=False):
    rng = random.Random(seed)
    pids = (0, 1, 2)
    t = 0.0
    for r in range(1, 4):
        for p in pids:
            store.record(t, "round_sent", p, round=r)
            t += 1.0
        for p in pids:
            for q in pids:
                if q == p:
                    continue
                if violate and r == 2 and {p, q} == {0, 1}:
                    continue  # neither of the pair hears the other
                if rng.random() < 0.9:
                    store.record(t, "round_recv", p, round=r, src=q)
                    t += 1.0
        for p in pids:
            store.record(t, "round_end", p, round=r)
            t += 1.0


def replication_trace(store, seed=0, violate=False):
    rng = random.Random(seed)
    ops = [(c, i, f"op{c}-{i}") for c in (3, 4) for i in range(3)]
    rng.shuffle(ops)
    t = 0.0
    for slot, (client, req_id, op) in enumerate(ops, start=1):
        for replica in (0, 1, 2):
            result = f"r{slot}"
            if violate and slot == 3 and replica == 2:
                result = "diverged"
            store.record(
                t, "custom", replica, event="execute", seq=slot,
                client=client, req_id=req_id, op=op, result=result,
            )
            t += 1.0
    for client in (3, 4):
        store.record(t, "custom", client, event="client_done", ops=3)
        t += 1.0


def service_trace(store, seed=0, violate=False):
    # tenants 1 and 2 behind ingress 0; every request ends done, abandoned
    # or rejected at the ingress — except, when violating, one left in limbo
    rng = random.Random(seed)
    t = 0.0
    for req_id in range(8):
        tenant = rng.choice((1, 2))
        store.record(t, "custom", tenant, event="svc_sent", req_id=req_id)
        t += rng.uniform(0.5, 2.0)
        if violate and req_id == 3:
            continue
        outcome = rng.choice(("svc_done", "svc_failed", "svc_reject"))
        if outcome == "svc_reject":
            store.record(t, "custom", 0, event=outcome, tenant=tenant, req_id=req_id)
        else:
            store.record(t, "custom", tenant, event=outcome, req_id=req_id)
        t += rng.uniform(0.5, 2.0)


def agreement_trace(store, seed=0, violate=False):
    values = {0: "v", 1: "v", 2: "w" if violate else "v"}
    for t, (p, v) in enumerate(values.items()):
        store.record(float(t), "decide", p, value=v)


# --- streaming == batch on synthetic traces -------------------------------


class TestStreamingMatchesBatch:
    @pytest.mark.parametrize("violate", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_srb(self, seed, violate):
        live = SRBStreamChecker(0, [1, 2, 3])
        store = recorded_through(
            lambda s: srb_trace(s, seed=seed, violate=violate), live
        )
        batch = check_srb(store, 0, [1, 2, 3])
        assert live.finish() == batch
        assert batch.ok is (not violate)
        if violate:
            assert live.online_violations  # flagged at the event, pre-finish

    @pytest.mark.parametrize("violate", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_directionality(self, seed, violate):
        live = DirectionalityStreamChecker([0, 1, 2])
        store = recorded_through(
            lambda s: rounds_trace(s, seed=seed, violate=violate), live
        )
        batch = check_directionality(store, [0, 1, 2])
        assert live.finish() == batch
        assert batch.is_unidirectional is (not violate)

    @pytest.mark.parametrize("violate", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_replication(self, seed, violate):
        live = ReplicationStreamChecker([0, 1, 2])
        store = recorded_through(
            lambda s: replication_trace(s, seed=seed, violate=violate), live
        )
        expected = {3: 3, 4: 3}
        batch = check_replication(store, [0, 1, 2], expected_ops=expected)
        assert live.finish(expected_ops=expected) == batch
        assert batch.ok is (not violate)

    @pytest.mark.parametrize("violate", [False, True])
    def test_agreement(self, violate):
        inputs = {0: "v", 1: "v", 2: "v"}
        live = AgreementStreamChecker(WEAK, inputs, [0, 1, 2], True)
        store = recorded_through(
            lambda s: agreement_trace(s, violate=violate), live
        )
        batch = check_agreement(store, WEAK, inputs, [0, 1, 2], True)
        assert live.finish() == batch
        assert batch.ok is (not violate)

    @pytest.mark.parametrize("violate", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_service_liveness(self, seed, violate):
        live = ServiceLivenessAuditor(2.0, 3.0, [1, 2], 0)
        store = recorded_through(
            lambda s: service_trace(s, seed=seed, violate=violate), live
        )
        end = store.events()[-1].time + 10.0
        batch = ServiceLivenessAuditor(2.0, 3.0, [1, 2], 0).consume(store)
        assert batch.online_violations == live.online_violations
        report = batch.finish(end)
        assert live.finish(end) == report
        assert report.obligations_armed == 8
        assert report.ok is (not violate)

    def test_jsonl_replay_matches_live(self):
        live = SRBStreamChecker(0, [1, 2, 3])
        store = recorded_through(lambda s: srb_trace(s, violate=True), live)
        replayed = SRBStreamChecker(0, [1, 2, 3])
        TraceStore.from_jsonl(store.to_jsonl(), observers=[replayed])
        assert replayed.finish() == live.finish()
        assert replayed.online_violations == live.online_violations


# --- fail-fast stops at the exact violating event -------------------------


class TestFailFast:
    def test_srb_raises_at_violating_event(self):
        checker = SRBStreamChecker(0, [1, 2, 3], fail_fast=True)
        store = TraceStore()
        store.subscribe(checker)
        with pytest.raises(PropertyViolation, match="SRB-stream"):
            srb_trace(store, violate=True)
        index, message = checker.online_violations[0]
        # recording stopped at the flagged event: it is the last one stored
        assert store.events()[-1].index == index
        assert "sequencing" in message

    def test_replication_raises_on_divergence(self):
        checker = ReplicationStreamChecker([0, 1, 2], fail_fast=True)
        store = TraceStore()
        store.subscribe(checker)
        with pytest.raises(PropertyViolation, match="replication-stream"):
            replication_trace(store, violate=True)
        index, message = checker.online_violations[0]
        assert store.events()[-1].index == index
        assert "diverges" in message

    def test_agreement_raises_on_conflict(self):
        inputs = {0: "v", 1: "v", 2: "v"}
        checker = AgreementStreamChecker(
            WEAK, inputs, [0, 1, 2], True, fail_fast=True
        )
        store = TraceStore()
        store.subscribe(checker)
        with pytest.raises(PropertyViolation, match="stream"):
            agreement_trace(store, violate=True)
        assert store.events()[-1].index == checker.online_violations[0][0]

    def test_directionality_raises_on_unidirectional_violation(self):
        checker = DirectionalityStreamChecker([0, 1, 2], fail_fast=True)
        store = TraceStore()
        store.subscribe(checker)
        with pytest.raises(PropertyViolation, match="unidirectionality-stream"):
            rounds_trace(store, violate=True)
        assert checker.online_violations

    def test_directionality_batch_raises_where_the_live_run_did(self):
        live = DirectionalityStreamChecker([0, 1, 2], fail_fast=True)
        store = TraceStore()
        store.subscribe(live)
        with pytest.raises(PropertyViolation) as live_raised:
            rounds_trace(store, violate=True)
        full = TraceStore()
        rounds_trace(full, violate=True)
        batch = DirectionalityStreamChecker([0, 1, 2], fail_fast=True)
        with pytest.raises(PropertyViolation) as batch_raised:
            batch.consume(full)
        assert str(batch_raised.value) == str(live_raised.value)
        assert batch.online_violations == live.online_violations
        assert batch.online_violations[-1][0] == store.events()[-1].index


# --- the chaos sweep: streaming and batch agree run for run ----------------


class TestChaosSweepEquivalence:
    def test_full_sweep_identical_verdicts(self):
        """Acceptance bar: on every one of the tier-1 sweep's seeded
        schedules (11 seeds x 2 protocols), the streaming run and the
        batch run report the same verdict, violations, and stats."""
        for protocol in ("srb-uni", "minbft"):
            for seed in SEEDS:
                s = run_chaos(protocol, seed)  # streaming is the default
                b = run_chaos(protocol, seed, streaming=False)
                assert s.ok and b.ok, (protocol, seed)
                assert s.violations == b.violations == []
                assert s.stats == b.stats, (protocol, seed)
                assert s.abort_index is None and b.abort_index is None

    def test_broken_protocol_same_verdict_and_early_abort(self):
        aborted = 0
        for seed in range(12):
            s = run_chaos("srb-uni-broken", seed)
            b = run_chaos("srb-uni-broken", seed, streaming=False)
            assert s.ok == b.ok, seed
            if not s.ok:
                assert s.abort_index is not None
                assert f"event #{s.abort_index}" in s.violations[0]
                # the streaming run stopped early: it saw at most as many
                # messages as the batch run, which always runs to horizon
                assert s.stats["messages_sent"] <= b.stats["messages_sent"]
                aborted += 1
        assert aborted, "no broken run aborted in 12 schedules"

    def test_fault_free_pids_known_before_run(self):
        for seed in range(20):
            schedule = make_schedule(seed, crashable=[1, 2, 3])
            free = schedule.fault_free_pids(4)
            assert 0 in free  # the protected sender never crashes
            crashed = {c.pid for c in schedule.crashes}
            assert set(free) == set(range(4)) - crashed
