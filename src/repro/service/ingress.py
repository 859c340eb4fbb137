"""The service front-end: a simulated ingress fronting the replica group.

:class:`IngressProcess` is the trust and overload boundary between
multi-tenant clients and the MinBFT-replicated state machine. Tenants
submit ``SVC_REQ`` messages; the ingress *admits or sheds* them (see
:mod:`repro.service.admission`), queues admitted work in a bounded FIFO,
and dispatches up to ``max_inflight`` requests into consensus by
forwarding the tenant-signed ``REQUEST`` to every replica. Replicas
verify the tenant's own signature and reply directly to the tenant (the
ingress never holds authority to impersonate anyone); a courtesy
``SVC_DONE`` ack from the tenant releases the dispatch slot, with a lease
timeout as the lost-ack fallback.

**The input pump is the modeled bottleneck.** Real ingresses spend CPU
parsing, authenticating, and routing every inbound byte *before* they can
tell a duplicate from fresh work; in a simulator where message handling
is free, overload would be unobservable. The pump restores that cost:
inbound ``SVC_REQ`` frames land in an inbox and are processed strictly
one per ``proc_time`` of virtual time, so the ingress's service rate is
``1/proc_time`` and — critically — **duplicate retransmissions consume
real capacity** even though dedup discards them afterwards. That single
modeling choice is what makes retry storms metastable here exactly as in
production: a burst outage leaves every tenant retransmitting, the dup
arrival rate exceeds the pump rate, and the inbox grows without bound
while goodput pins to zero — unless admission control, retry budgets,
and backpressure (the protected configuration) bring arrivals back under
``1/proc_time``.

:class:`TenantClient` is the matching workload driver: the closed-loop
:class:`~repro.consensus.client.BFTClient` (sign, retry on a timeout
policy — optionally jittered and bounded by a
:class:`~repro.faults.timeouts.RetryBudget` — match replies, abandon)
with the first hop through the ingress. It adds only what the ingress
asks of it: honoring typed ``SVC_REJECT`` backpressure by pausing for the
advertised ``retry_after``, the ``SVC_DONE`` ack, and the ``svc_sent`` /
``svc_done`` / ``svc_failed`` trace-event names the streaming service
auditors key on.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Sequence

from ..consensus.client import BFTClient
from ..consensus.replica import REPLY, REQUEST
from ..errors import ConfigurationError
from ..sim.process import Process
from ..types import ProcessId
from .admission import (
    BoundedAdmissionQueue,
    FairShare,
    QueueDeadline,
    QueuedRequest,
    TokenBucket,
)
from .degrade import BrownoutController

SVC_REQ = "__svc_req__"
SVC_REJECT = "__svc_reject__"
SVC_DONE = "__svc_done__"

DEFAULT_READ_OPS = frozenset({"get", "balance"})
"""Op heads servable in brownout (read-only) mode, per the stock apps."""


class IngressProcess(Process):
    """Admission-controlled ingress between tenants and the replica group.

    Every policy is optional (``None`` disables it); with all of them off
    and ``queue_limit=None`` this is the *unprotected* configuration —
    an unbounded FIFO in front of consensus, the design the soak harness
    convicts. ``proc_time`` is the per-inbound-message pump cost (the
    service rate is its inverse); ``max_inflight`` bounds concurrent
    consensus dispatches; ``lease_timeout`` frees a dispatch slot whose
    completion ack never arrived.
    """

    PUMP_TAG = "svc-pump"
    LEASE_TAG = "svc-lease"

    def __init__(
        self,
        replicas: Sequence[ProcessId],
        proc_time: float = 0.25,
        reject_time: Optional[float] = None,
        max_inflight: int = 16,
        lease_timeout: float = 120.0,
        queue_limit: Optional[int] = None,
        bucket: Optional[TokenBucket] = None,
        fair: Optional[FairShare] = None,
        codel: Optional[QueueDeadline] = None,
        brownout: Optional[BrownoutController] = None,
        read_ops: frozenset[str] = DEFAULT_READ_OPS,
    ) -> None:
        super().__init__()
        if proc_time <= 0:
            raise ConfigurationError(f"proc_time must be > 0, got {proc_time}")
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if lease_timeout <= 0:
            raise ConfigurationError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        if reject_time is not None and reject_time <= 0:
            raise ConfigurationError(
                f"reject_time must be > 0, got {reject_time}"
            )
        self.replicas = tuple(replicas)
        self.proc_time = proc_time
        # saying no is a counter check, not a dispatch: a typed rejection
        # re-arms the pump after a fraction of the full service cost, so a
        # protected ingress can reject faster than tenants can ask (dup
        # *recognition* stays at full cost — parse/auth happen before the
        # dedup table is consulted, which is what makes retry storms real)
        self.reject_time = (
            reject_time if reject_time is not None else proc_time / 8.0
        )
        self.max_inflight = max_inflight
        self.lease_timeout = lease_timeout
        self.queue = BoundedAdmissionQueue(queue_limit)
        self.bucket = bucket
        self.fair = fair
        self.codel = codel
        self.brownout = brownout
        self.read_ops = read_ops
        self._inbox: deque[tuple[ProcessId, int, tuple, Any]] = deque()
        self._pump_busy = False
        # requests currently owned by the service: queued or dispatched
        self._in_service: set[tuple[ProcessId, int]] = set()
        self._inflight: dict[tuple[ProcessId, int], Optional[int]] = {}
        self._completed_wm: dict[ProcessId, int] = {}
        # counters (all numeric: they aggregate across ingresses and feed
        # RunStats.service / ChaosResult.stats["service"] verbatim)
        self.pumped = 0
        self.admitted = 0
        self.dispatched = 0
        self.completed = 0
        self.dup_discarded = 0
        self.lease_expired = 0
        self.rejects: dict[str, int] = {}
        self.inbox_peak = 0

    # -- inbound -----------------------------------------------------------

    def on_message(self, src: ProcessId, msg: Any) -> None:
        if not (isinstance(msg, tuple) and msg):
            return
        if msg[0] == SVC_REQ and len(msg) == 5:
            _, tenant, req_id, op, sig = msg
            if not (isinstance(tenant, int) and isinstance(req_id, int)):
                return
            self._inbox.append((tenant, req_id, op, sig))
            if len(self._inbox) > self.inbox_peak:
                self.inbox_peak = len(self._inbox)
            if not self._pump_busy:
                self._pump_busy = True
                self.ctx.set_timer(self.proc_time, self.PUMP_TAG)
        elif msg[0] == SVC_DONE and len(msg) == 4:
            _, tenant, req_id, _latency = msg
            if isinstance(tenant, int) and isinstance(req_id, int):
                self._on_done(tenant, req_id)

    # -- pump: one inbound request per proc_time ---------------------------

    def on_timer(self, tag: Any) -> None:
        if tag == self.PUMP_TAG:
            self._pump_one()
            return
        if isinstance(tag, tuple) and len(tag) == 3 and tag[0] == self.LEASE_TAG:
            self._on_lease_expiry(tag[1], tag[2])

    def _pump_one(self) -> None:
        if not self._inbox:
            self._pump_busy = False
            return
        tenant, req_id, op, sig = self._inbox.popleft()
        self.pumped += 1
        rejected = self._admit_or_shed(tenant, req_id, op, sig)
        if self._inbox:
            self.ctx.set_timer(
                self.reject_time if rejected else self.proc_time,
                self.PUMP_TAG,
            )
        else:
            self._pump_busy = False

    # -- admission pipeline ------------------------------------------------

    def _admit_or_shed(self, tenant: ProcessId, req_id: int, op: tuple,
                       sig: Any) -> bool:
        """Run the admission pipeline; True iff it ended in a typed reject."""
        now = self.ctx.now
        if self.brownout is not None:
            self.brownout.observe(
                now, len(self.queue), busy=bool(self._inflight)
            )
        key = (tenant, req_id)
        if req_id <= self._completed_wm.get(tenant, 0) or key in self._in_service:
            self.dup_discarded += 1
            return False
        if self.brownout is not None and self.brownout.sheds_all():
            self._reject(tenant, req_id, "overload")
            return True
        is_read = bool(op) and isinstance(op, tuple) and op[0] in self.read_ops
        if (
            self.brownout is not None
            and self.brownout.sheds_writes()
            and not is_read
        ):
            self._reject(tenant, req_id, "brownout_write")
            return True
        if self.fair is not None and not self.fair.try_admit(tenant):
            self._reject(tenant, req_id, "fair_share")
            return True
        if self.bucket is not None and not self.bucket.try_admit(now):
            self._reject(
                tenant, req_id, "rate_limited",
                retry_after=self.bucket.retry_after(now),
            )
            return True
        if not self.queue.try_push(QueuedRequest(tenant, req_id, op, sig, now)):
            self._reject(tenant, req_id, "queue_full")
            return True
        if self.fair is not None:
            self.fair.acquire(tenant)
        self._in_service.add(key)
        self.admitted += 1
        self._dispatch_ready()
        return False

    def _reject(self, tenant: ProcessId, req_id: int, reason: str,
                retry_after: Optional[float] = None) -> None:
        if retry_after is None:
            # back off for roughly the current backlog's drain time
            backlog = len(self._inbox) + len(self.queue)
            retry_after = max(1.0, backlog * self.proc_time)
        self.rejects[reason] = self.rejects.get(reason, 0) + 1
        self.ctx.record(
            "custom", event="svc_reject", tenant=tenant, req_id=req_id,
            reason=reason,
        )
        self.ctx.send(tenant, (SVC_REJECT, req_id, reason, retry_after))

    # -- dispatch into consensus -------------------------------------------

    def _dispatch_ready(self) -> None:
        now = self.ctx.now
        while len(self._inflight) < self.max_inflight:
            item = self.queue.pop()
            if item is None:
                return
            key = (item.tenant, item.req_id)
            sojourn = now - item.enqueued_at
            if self.codel is not None and self.codel.should_drop(now, sojourn):
                self._in_service.discard(key)
                if self.fair is not None:
                    self.fair.release(item.tenant)
                self._reject(item.tenant, item.req_id, "deadline")
                continue
            timer = self.ctx.set_timer(
                self.lease_timeout, (self.LEASE_TAG, item.tenant, item.req_id)
            )
            self._inflight[key] = timer
            self.dispatched += 1
            request = (REQUEST, item.tenant, item.req_id, item.op, item.sig)
            for r in self.replicas:
                self.ctx.send(r, request)

    def _on_done(self, tenant: ProcessId, req_id: int) -> None:
        wm = self._completed_wm.get(tenant, 0)
        if req_id > wm:
            self._completed_wm[tenant] = req_id
        key = (tenant, req_id)
        timer = self._inflight.pop(key, None)
        if key not in self._in_service:
            return  # lease already expired (or duplicate ack)
        self._in_service.discard(key)
        if timer is not None:
            self.ctx.cancel_timer(timer)
        if self.fair is not None:
            self.fair.release(tenant)
        self.completed += 1
        if self.brownout is not None:
            self.brownout.note_completion(self.ctx.now)
        self._dispatch_ready()

    def _on_lease_expiry(self, tenant: ProcessId, req_id: int) -> None:
        key = (tenant, req_id)
        if self._inflight.pop(key, None) is None:
            return  # completed meanwhile
        self._in_service.discard(key)
        if self.fair is not None:
            self.fair.release(tenant)
        self.lease_expired += 1
        self._dispatch_ready()

    # -- exported counters -------------------------------------------------

    def service_stats(self) -> dict[str, float]:
        """Numeric overload counters (see ``RunStats.service``)."""
        stats: dict[str, float] = {
            "pumped": self.pumped,
            "admitted": self.admitted,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "dup_discarded": self.dup_discarded,
            "lease_expired": self.lease_expired,
            "queue_depth_peak": self.queue.depth_peak,
            "queue_len_final": len(self.queue),
            "inbox_peak": self.inbox_peak,
            "inbox_len_final": len(self._inbox),
            "shed_total": sum(self.rejects.values()),
        }
        for reason, count in self.rejects.items():
            stats[f"shed_{reason}"] = count
        if self.brownout is not None:
            stats["brownout_entries"] = self.brownout.brownout_entries
            stats["open_entries"] = self.brownout.open_entries
            stats["recoveries"] = self.brownout.recoveries
            stats["final_mode"] = self.brownout.mode
        return stats


class TenantClient(BFTClient):
    """Closed-loop tenant driving ops through the ingress.

    One outstanding request at a time (which also keeps the replicas'
    per-client reply cache coherent): sign, send ``SVC_REQ`` to the
    ingress, wait for ``reply_quorum`` matching replica ``REPLY``\\ s,
    ack with ``SVC_DONE``, think, repeat — the
    :class:`~repro.consensus.client.BFTClient` life-cycle, retransmission
    policy, jitter and retry budget included (budget exhaustion is a
    terminal, typed ``svc_failed`` outcome). With
    ``honor_backpressure=True`` a typed ``SVC_REJECT`` pauses the tenant
    for the advertised ``retry_after`` (plus jitter) instead of feeding
    the retry storm; ``False`` models the legacy client that ignores
    backpressure entirely.
    """

    RETRY_TAG = "svc-retry"
    RESUBMIT_TAG = "svc-resubmit"
    JITTER_LABEL = "tenant"
    SENT, DONE, FAILED, FINISHED = (
        "svc_sent", "svc_done", "svc_failed", "tenant_done"
    )

    def __init__(
        self,
        ingress: ProcessId,
        replicas: Sequence[ProcessId],
        reply_quorum: int,
        ops: Sequence[tuple],
        timeout_policy: Any = None,
        retry_timeout: float = 30.0,
        retry_budget: Any = None,
        backoff_jitter: float = 0.0,
        think_time: float = 0.0,
        honor_backpressure: bool = True,
        start_spread: float = 0.0,
    ) -> None:
        super().__init__(
            replicas, reply_quorum, ops, retry_timeout=retry_timeout,
            think_time=think_time, timeout_policy=timeout_policy,
            retry_budget=retry_budget, backoff_jitter=backoff_jitter,
        )
        self.ingress = ingress
        self.honor_backpressure = honor_backpressure
        self.start_spread = start_spread
        self.rejections = 0

    def on_start(self) -> None:
        if self.start_spread > 0:
            # de-synchronize the fleet's first wave of submissions
            self._install_jitter()
            self.ctx.set_timer(
                self._jitter_rng().random() * self.start_spread, self.THINK_TAG
            )
        else:
            super().on_start()

    def _first_hop(self, req_id: int, op: tuple, sig: Any) -> None:
        self.ctx.send(self.ingress, (SVC_REQ, self.pid, req_id, op, sig))

    def _completed(self, req_id: int, latency: float) -> None:
        self.ctx.send(self.ingress, (SVC_DONE, self.pid, req_id, latency))

    # -- timers: the service's tags carry no request id ---------------------
    #
    # One request is in flight at a time, and a retry or resubmit timer
    # drives whichever request that is when it fires. Two rejects of one
    # request (the original and a retransmission) therefore leave a second
    # retry timer behind that can retransmit the *next* request early.
    # Harmless (the ingress deduplicates) and pinned by the chaos witnesses,
    # so it is kept as it is.

    def _arm_retry(self, req_id: int) -> None:
        self._inflight[req_id]["timer"] = self.ctx.set_timer(
            self.timeout_policy.current(), self.RETRY_TAG
        )

    def on_timer(self, tag: Any) -> None:
        if tag == self.RETRY_TAG:
            for req_id in tuple(self._inflight):  # _retry may abandon it
                self._retry(req_id)
        elif tag == self.RESUBMIT_TAG:
            for req_id in self._inflight:
                self._send_request(req_id)
                self._arm_retry(req_id)
        else:
            super().on_timer(tag)

    # -- completions and backpressure --------------------------------------

    def on_message(self, src: ProcessId, msg: Any) -> None:
        if not (isinstance(msg, tuple) and msg):
            return
        if msg[0] == SVC_REJECT and len(msg) == 4:
            self._on_reject(msg)
        elif msg[0] == REPLY and len(msg) == 5 and src in self.replicas:
            req_id = msg[2]
            if not isinstance(req_id, int):
                return
            if req_id in self._inflight:
                super().on_message(src, msg)
            elif 0 < req_id <= self._next_op:
                # a reply for a request this tenant already resolved
                # (completed earlier, or abandoned on budget exhaustion while
                # it was still queued at the ingress): ack it anyway, so the
                # ingress frees the dispatch slot now instead of waiting out
                # the lease
                self.ctx.send(self.ingress, (SVC_DONE, self.pid, req_id, 0.0))

    def _on_reject(self, msg: tuple) -> None:
        _, req_id, _reason, retry_after = msg
        rec = self._inflight.get(req_id) if isinstance(req_id, int) else None
        if rec is None:
            return
        self.rejections += 1
        if not self.honor_backpressure:
            return  # legacy client: keeps hammering on its retry timer
        # honor the hint: pause (with jitter, so the shed herd does not
        # return in lockstep) and resubmit the same request
        if rec["timer"] is not None:
            self.ctx.cancel_timer(rec["timer"])
            rec["timer"] = None
        delay = max(float(retry_after), 0.1)
        delay *= 1.0 + 0.5 * self._jitter_rng().random()
        self.ctx.set_timer(delay, self.RESUBMIT_TAG)
