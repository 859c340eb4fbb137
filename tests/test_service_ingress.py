"""Tests for the ingress pump/admission pipeline and the tenant client.

Two layers: pure unit tests drive :class:`IngressProcess` through a fake
context (exact control over time and inspection of every send/timer), and
integration tests run the full served system — replicas, ingress, tenant
fleet — through the simulator.
"""

from __future__ import annotations

import pytest

from repro.consensus.replica import REPLY, REQUEST
from repro.errors import ConfigurationError, RetriesExhausted
from repro.faults.timeouts import FixedTimeout, RetryBudget
from repro.service import (
    BrownoutController,
    FairShare,
    IngressProcess,
    SVC_DONE,
    SVC_REJECT,
    SVC_REQ,
    TenantClient,
    TokenBucket,
    build_service_system,
    protected_profile,
    unprotected_profile,
)
from repro.sim.adversary import ReliableAsynchronous
from repro.sim.process import Process
from repro.sim.runner import Simulation


class FakeContext:
    """Just enough Context for driving an IngressProcess by hand."""

    def __init__(self):
        self.pid = 99
        self.now = 0.0
        self.seed = 0
        self.sent: list[tuple[int, tuple]] = []
        self.timers: dict[int, tuple[float, object]] = {}
        self.records: list[dict] = []
        self._next_timer = 0

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def set_timer(self, delay, tag):
        self._next_timer += 1
        self.timers[self._next_timer] = (self.now + delay, tag)
        return self._next_timer

    def cancel_timer(self, timer_id):
        self.timers.pop(timer_id, None)

    def record(self, kind, **fields):
        self.records.append({"kind": kind, **fields})

    def fire(self, tag, advance=0.0):
        """Fire one pending timer with ``tag``, consuming it (like the
        real scheduler does) before invoking the handler."""
        self.now += advance
        for timer_id, (_, t) in list(self.timers.items()):
            if t == tag:
                del self.timers[timer_id]
                return timer_id
        raise AssertionError(f"no pending timer {tag!r}")


def make_ingress(**kwargs) -> tuple[IngressProcess, FakeContext]:
    ingress = IngressProcess(replicas=(0, 1, 2), **kwargs)
    ctx = FakeContext()
    ingress._attach(ctx)
    return ingress, ctx


def req(tenant, req_id, op=("deposit", "a", 1)):
    return (SVC_REQ, tenant, req_id, op, f"sig-{tenant}-{req_id}")


def pump_tags(ctx):
    return [t for t in ctx.timers.values() if t[1] == IngressProcess.PUMP_TAG]


class TestIngressPump:
    def test_one_pump_timer_no_matter_the_backlog(self):
        ingress, ctx = make_ingress(proc_time=0.5)
        for i in range(5):
            ingress.on_message(4, req(4, i + 1))
        assert len(pump_tags(ctx)) == 1  # serialization point
        assert ingress.inbox_peak == 5 and ingress.pumped == 0

    def test_each_arrival_costs_pump_time_even_duplicates(self):
        ingress, ctx = make_ingress(proc_time=0.5)
        for _ in range(3):  # same request retransmitted thrice
            ingress.on_message(4, req(4, 1))
        pump(ingress, ctx, n=3, dt=0.5)
        assert ingress.pumped == 3
        assert ingress.admitted == 1
        assert ingress.dup_discarded == 2  # dedup happens AFTER pump cost

    def test_pump_idles_when_inbox_drains(self):
        ingress, ctx = make_ingress()
        ingress.on_message(4, req(4, 1))
        pump(ingress, ctx)
        assert not pump_tags(ctx)
        ingress.on_message(4, req(4, 2))  # re-arms on the next arrival
        assert len(pump_tags(ctx)) == 1

    def test_rejection_is_cheaper_than_service(self):
        # saying no is a counter check: after a typed reject the pump
        # re-arms at reject_time (proc_time/8 by default), after an
        # admission (or a dup) at the full proc_time
        ingress, ctx = make_ingress(
            proc_time=0.8, bucket=TokenBucket(rate=0.001, burst=1.0)
        )
        for i in (1, 2, 3):
            ingress.on_message(4, req(4, i))

        def next_pump_delay():
            ((due, _),) = pump_tags(ctx)
            return due - ctx.now

        pump(ingress, ctx, dt=0.8)  # admitted: full cost ahead
        assert ingress.admitted == 1
        assert next_pump_delay() == pytest.approx(0.8)
        pump(ingress, ctx, dt=0.8)  # bucket empty: rejected, cheap
        assert ingress.rejects == {"rate_limited": 1}
        assert next_pump_delay() == pytest.approx(0.1)

    def test_reject_time_override_and_validation(self):
        ingress, _ = make_ingress(proc_time=0.4, reject_time=0.05)
        assert ingress.reject_time == 0.05
        with pytest.raises(ConfigurationError):
            make_ingress(reject_time=0.0)

    def test_done_acks_bypass_the_pump(self):
        ingress, ctx = make_ingress()
        ingress.on_message(4, req(4, 1))
        pump(ingress, ctx)
        ingress.on_message(4, (SVC_DONE, 4, 1, 1.0))
        assert ingress.completed == 1
        assert ingress.pumped == 1  # the ack did not consume pump capacity

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IngressProcess(replicas=(0,), proc_time=0.0)
        with pytest.raises(ConfigurationError):
            IngressProcess(replicas=(0,), max_inflight=0)
        with pytest.raises(ConfigurationError):
            IngressProcess(replicas=(0,), lease_timeout=0.0)


def pump(ingress, ctx, n=1, dt=0.25):
    for _ in range(n):
        ctx.fire(IngressProcess.PUMP_TAG, advance=dt)
        ingress.on_timer(IngressProcess.PUMP_TAG)


def rejects_to(ctx, tenant):
    return [m for d, m in ctx.sent if d == tenant and m[0] == SVC_REJECT]


class TestAdmissionPipeline:
    def test_admitted_request_broadcast_to_all_replicas(self):
        ingress, ctx = make_ingress()
        ingress.on_message(4, req(4, 1, op=("deposit", "a", 5)))
        pump(ingress, ctx)
        requests = [(d, m) for d, m in ctx.sent if m[0] == REQUEST]
        assert [d for d, _ in requests] == [0, 1, 2]
        assert requests[0][1] == (REQUEST, 4, 1, ("deposit", "a", 5),
                                  "sig-4-1")
        assert ingress.dispatched == 1

    def test_queue_full_rejects_with_typed_reason(self):
        ingress, ctx = make_ingress(queue_limit=1, max_inflight=1)
        for i in range(3):
            ingress.on_message(4 + i, req(4 + i, 1))
        pump(ingress, ctx, n=3)
        # one dispatched, one queued, the third shed
        assert ingress.dispatched == 1 and ingress.admitted == 2
        (reject,) = rejects_to(ctx, 6)
        assert reject[2] == "queue_full"
        assert reject[3] >= 1.0  # retry_after hint present
        assert ingress.rejects == {"queue_full": 1}

    def test_fair_share_isolates_tenants(self):
        ingress, ctx = make_ingress(fair=FairShare(per_tenant=1),
                                    max_inflight=1)
        ingress.on_message(4, req(4, 1))
        ingress.on_message(4, req(4, 2))  # same tenant, second outstanding
        ingress.on_message(5, req(5, 1))  # different tenant
        pump(ingress, ctx, n=3)
        (reject,) = rejects_to(ctx, 4)
        assert reject[1] == 2 and reject[2] == "fair_share"
        assert not rejects_to(ctx, 5)
        assert ingress.admitted == 2

    def test_token_bucket_rejects_with_refill_hint(self):
        ingress, ctx = make_ingress(bucket=TokenBucket(rate=1.0, burst=1.0))
        ingress.on_message(4, req(4, 1))
        ingress.on_message(5, req(5, 1))
        pump(ingress, ctx, n=2, dt=0.1)
        (reject,) = rejects_to(ctx, 5)
        assert reject[2] == "rate_limited"
        assert 0.0 < reject[3] <= 1.0  # time to the next token

    def test_brownout_sheds_writes_serves_reads(self):
        brown = BrownoutController(depth_high=5.0, alpha=1.0)
        ingress, ctx = make_ingress(brownout=brown)
        # depth between high and high*open_factor: BROWNOUT, not OPEN
        brown.observe(0.0, 8)
        assert brown.sheds_writes() and not brown.sheds_all()
        ingress.on_message(4, req(4, 1, op=("deposit", "a", 1)))
        ingress.on_message(5, req(5, 1, op=("balance", "a")))
        pump(ingress, ctx, n=2, dt=0.01)  # tiny dt: EWMA stays hot
        (reject,) = rejects_to(ctx, 4)
        assert reject[2] == "brownout_write"
        assert not rejects_to(ctx, 5)  # the read passed
        assert ingress.admitted == 1

    def test_open_mode_sheds_everything(self):
        brown = BrownoutController(depth_high=5.0, alpha=1.0)
        ingress, ctx = make_ingress(brownout=brown)
        brown.observe(0.0, 100)  # past depth_high * open_factor
        ingress.on_message(5, req(5, 1, op=("balance", "a")))
        pump(ingress, ctx, dt=0.01)
        (reject,) = rejects_to(ctx, 5)
        assert reject[2] == "overload"  # even reads shed in OPEN

    def test_completed_watermark_dedups_after_slot_freed(self):
        ingress, ctx = make_ingress()
        ingress.on_message(4, req(4, 1))
        pump(ingress, ctx)
        ingress.on_message(4, (SVC_DONE, 4, 1, 1.0))
        ingress.on_message(4, req(4, 1))  # late retransmission
        pump(ingress, ctx)
        assert ingress.dup_discarded == 1
        assert ingress.dispatched == 1  # not re-dispatched

    def test_rejections_recorded_in_trace(self):
        ingress, ctx = make_ingress(queue_limit=1, max_inflight=1)
        for i in range(3):
            ingress.on_message(4 + i, req(4 + i, 1))
        pump(ingress, ctx, n=3)
        events = [r for r in ctx.records if r.get("event") == "svc_reject"]
        assert events == [{
            "kind": "custom", "event": "svc_reject", "tenant": 6,
            "req_id": 1, "reason": "queue_full",
        }]


class TestDispatchAndLeases:
    def test_max_inflight_bounds_concurrent_dispatch(self):
        ingress, ctx = make_ingress(max_inflight=2)
        for i in range(4):
            ingress.on_message(4 + i, req(4 + i, 1))
        pump(ingress, ctx, n=4)
        assert ingress.dispatched == 2
        assert len(ingress.queue) == 2

    def test_completion_frees_the_slot(self):
        ingress, ctx = make_ingress(max_inflight=1)
        ingress.on_message(4, req(4, 1))
        ingress.on_message(5, req(5, 1))
        pump(ingress, ctx, n=2)
        assert ingress.dispatched == 1
        ingress.on_message(4, (SVC_DONE, 4, 1, 0.5))
        assert ingress.dispatched == 2  # the queued request went out

    def test_lease_expiry_frees_a_lost_slot(self):
        ingress, ctx = make_ingress(max_inflight=1, lease_timeout=10.0)
        ingress.on_message(4, req(4, 1))
        ingress.on_message(5, req(5, 1))
        pump(ingress, ctx, n=2)
        ctx.now += 10.0
        ingress.on_timer((IngressProcess.LEASE_TAG, 4, 1))
        assert ingress.lease_expired == 1
        assert ingress.dispatched == 2
        # a late ack for the expired request must not double-free
        ingress.on_message(4, (SVC_DONE, 4, 1, 99.0))
        assert ingress.completed == 0

    def test_service_stats_shape(self):
        ingress, ctx = make_ingress(queue_limit=1, max_inflight=1,
                                    brownout=BrownoutController(10.0))
        for i in range(3):
            ingress.on_message(4 + i, req(4 + i, 1))
        pump(ingress, ctx, n=3)
        stats = ingress.service_stats()
        assert stats["pumped"] == 3
        assert stats["shed_total"] == 1 and stats["shed_queue_full"] == 1
        assert stats["final_mode"] == 0
        assert all(isinstance(v, (int, float)) for v in stats.values())


class _SilentSink(Process):
    """An ingress-shaped black hole: accepts everything, answers nothing."""

    def on_message(self, src, msg):
        pass


class _AlwaysReject(Process):
    """An ingress that sheds every request with a fixed retry_after."""

    def on_message(self, src, msg):
        if isinstance(msg, tuple) and msg and msg[0] == SVC_REQ:
            self.ctx.send(src, (SVC_REJECT, msg[2], "overload", 2.0))


def _lone_tenant(ingress_stub, **kwargs):
    from repro.crypto.signatures import SignatureScheme

    tenant = TenantClient(
        ingress=0,
        replicas=(),
        reply_quorum=1,
        ops=[("deposit", "a", 1), ("deposit", "a", 2)],
        think_time=0.0,
        **kwargs,
    )
    tenant.signer = SignatureScheme(2, seed=0).signer(1)
    sim = Simulation([ingress_stub, tenant],
                     ReliableAsynchronous(0.01, 0.1), seed=3)
    return sim, tenant


class TestTenantClient:
    def test_budget_exhaustion_is_a_typed_terminal_outcome(self):
        sim, tenant = _lone_tenant(
            _SilentSink(),
            timeout_policy=FixedTimeout(1.0),
            retry_budget=RetryBudget(ratio=0.0, min_reserve=1.0),
        )
        sim.run(until=60.0)
        # reserve of 1: each op gets exactly one retry, then abandonment
        assert len(tenant.failures) == 2
        assert all(isinstance(f, RetriesExhausted) for f in tenant.failures)
        assert tenant.failures[0].attempts == 2
        assert tenant.done and tenant.results == []
        failed = [e for e in sim.trace.events()
                  if e.field("event") == "svc_failed"]
        assert [e.field("reason") for e in failed] == ["retries_exhausted"] * 2

    def test_unbudgeted_tenant_retries_forever(self):
        sim, tenant = _lone_tenant(
            _SilentSink(), timeout_policy=FixedTimeout(1.0, backoff=1.0)
        )
        sim.run(until=60.0)
        assert tenant.failures == [] and not tenant.done
        assert tenant.retransmissions >= 50  # ~1/s against a silent peer

    def test_backpressure_pauses_instead_of_retrying(self):
        sim, tenant = _lone_tenant(
            _AlwaysReject(),
            timeout_policy=FixedTimeout(1.0),
            honor_backpressure=True,
        )
        sim.run(until=60.0)
        assert tenant.rejections > 0
        # every resubmission waited out retry_after (2s) + jitter rather
        # than the 1s retry timer: the reject/resubmit cycle is strictly
        # slower than the timeout cycle would have been
        assert tenant.rejections <= 30
        assert tenant.retransmissions == 0  # retry timer never fired

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenantClient(ingress=0, replicas=(0,), reply_quorum=0, ops=[])


class TestServedSystemIntegration:
    def _run(self, seed, profile=None, until=400.0):
        sim, replicas, ingress, tenants = build_service_system(
            profile=profile or protected_profile(
                think_time=1.0, start_spread=2.0
            ),
            n_tenants=3,
            ops_per_tenant=4,
            seed=seed,
        )
        stats = sim.run(until=until)
        return sim, ingress, tenants, stats

    def test_all_ops_complete_below_saturation(self):
        _, ingress, tenants, stats = self._run(seed=5)
        assert all(t.done for t in tenants)
        assert sum(len(t.results) for t in tenants) == 12
        assert ingress.completed == 12
        assert not any(t.failures for t in tenants)

    def test_runstats_service_counters_exported(self):
        _, ingress, _, stats = self._run(seed=5)
        assert stats.service is not None
        assert stats.service["completed"] == 12
        assert stats.service["pumped"] >= stats.service["admitted"]
        assert stats.service == ingress.service_stats()

    def test_runstats_service_none_without_a_serving_layer(self):
        sim = Simulation([_SilentSink()], ReliableAsynchronous(0.01, 0.1))
        stats = sim.run(until=1.0)
        assert stats.service is None

    def test_same_seed_same_run_bit_identical(self):
        _, ingress_a, tenants_a, stats_a = self._run(seed=11)
        _, ingress_b, tenants_b, stats_b = self._run(seed=11)
        assert stats_a == stats_b
        assert [t.latencies for t in tenants_a] == [t.latencies for t in tenants_b]
        assert ingress_a.service_stats() == ingress_b.service_stats()

    def test_different_seeds_diverge(self):
        _, _, tenants_a, _ = self._run(seed=11)
        _, _, tenants_b, _ = self._run(seed=12)
        assert [t.latencies for t in tenants_a] != [t.latencies for t in tenants_b]

    def test_replies_come_from_replicas_not_the_ingress(self):
        from repro.faults.channel import RC_DATA

        def inner(msg):
            # unwrap the reliable channel's (DATA, inc, id, payload) frame
            if isinstance(msg, tuple) and len(msg) == 4 and msg[0] == RC_DATA:
                return msg[3]
            return msg

        sim, ingress, tenants, _ = self._run(seed=5)
        replies = [e for e in sim.trace.events(kind="deliver")
                   if isinstance(inner(e.field("msg")), tuple)
                   and inner(e.field("msg"))[0] == REPLY]
        assert replies  # replicas answered
        # every reply went straight replica -> tenant: never via the
        # ingress (pid 3), which is an overload boundary only
        assert all(e.field("src") < 3 and e.pid >= 4 for e in replies)

    def test_profiles_disable_and_enable_policies(self):
        protected = protected_profile().make_ingress((0, 1, 2))
        assert protected.bucket and protected.fair and protected.codel
        assert protected.brownout and protected.queue.maxlen == 24
        unprotected = unprotected_profile().make_ingress((0, 1, 2))
        assert unprotected.bucket is None and unprotected.fair is None
        assert unprotected.codel is None and unprotected.brownout is None
        assert unprotected.queue.maxlen is None
