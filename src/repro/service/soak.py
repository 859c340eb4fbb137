"""Deterministic overload soak harness with a planted metastable retry storm.

The fixture this module exists for is the classic *metastable failure*:
a service runs healthily below saturation, a **transient** network outage
makes every client retransmit, and the retry traffic alone — duplicates
the ingress must still pay pump time to recognize — exceeds the service
rate. The queue of work grows, which makes clients wait longer, which
makes them retry more: the overload now **sustains itself after the
trigger is gone**. Goodput pins near zero forever even though the
network has been perfect since GST.

Both arms of the experiment run the same replicas, the same tenants' op
streams, the same planted burst, the same seed:

- **unprotected** (:func:`unprotected_profile`): unbounded admission
  queue, no shed policies, tenants with fixed never-escalating timeouts,
  unbounded retries, backpressure ignored. The post-burst dup rate
  (``n_tenants / timeout``) exceeds the pump rate (``1 / proc_time``),
  the work-in-system passes the unstable equilibrium, and the collapse
  is permanent — convicted by the :class:`ServiceLivenessAuditor` (post-
  GST requests stop reaching *any* terminal outcome within the bound).
- **protected** (:func:`protected_profile`): bounded queue + token
  bucket + per-tenant fair share + CoDel + brownout at the ingress;
  retry budgets, jittered escalating backoff, and honored backpressure
  at the tenants. Retries can never amplify offered load past the
  configured budget ratio, so post-GST arrivals fall back under the pump
  rate and the service recovers — the same auditor comes back clean.

The liveness contract is deliberately *answer-oriented*: an obligation
armed at ``svc_sent`` is satisfied by **any terminal outcome** — a
completion (``svc_done``), a typed rejection recorded at the ingress
(``svc_reject``), or a budgeted abandonment (``svc_failed``). Graceful
degradation means answering everyone quickly, not completing everyone;
the goodput criterion (SLA-windowed completions, measured by
``benchmarks/bench_service_overload.py``) separately rules out the
degenerate "reject everything" strategy.

Everything is a pure function of the seed: the planted burst is placed
relative to the schedule's GST, tenant jitter streams derive from
``(seed, "tenant", pid)``, and :func:`run_service_chaos` runs the chaos
cells ``service`` / ``service-storm`` (declared in
:data:`repro.faults.chaos.PROTOCOLS`), so the standard sweep / replay
tooling (and its serial ≡ parallel bit-identity) applies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from ..consensus.minbft import MinBFTReplica
from ..consensus.safety import ReplicationStreamChecker
from ..crypto.signatures import SignatureScheme
from ..errors import ConfigurationError
from ..faults.adversaries import BurstWindow, GSTAdversary
from ..sim.adversary import Adversary, ReliableAsynchronous
from ..sim.runner import Simulation
from ..sim.liveness import DeadlineChecker
from ..sim.trace import CUSTOM, TraceEvent
from ..types import ProcessId, Time
from .admission import FairShare, QueueDeadline, TokenBucket
from .degrade import BrownoutController
from .ingress import IngressProcess, TenantClient

__all__ = [
    "PlantedBurstGST",
    "ServiceLivenessAuditor",
    "ServiceFixture",
    "ServiceProfile",
    "build_service_system",
    "protected_profile",
    "run_service_chaos",
    "unprotected_profile",
]


# ---------------------------------------------------------------------------
# Profiles: the two arms of the experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ServiceProfile:
    """One complete serving-layer configuration (ingress + tenant knobs).

    A zero/negative value disables the corresponding optional policy
    (``queue_limit=None`` likewise removes the queue bound), so the
    unprotected arm is expressed in the same vocabulary as the protected
    one — the experiment varies *policy*, never topology.
    """

    name: str
    protected: bool
    # ingress
    proc_time: float = 0.35
    reject_time: Optional[float] = None
    max_inflight: int = 16
    lease_timeout: float = 90.0
    queue_limit: Optional[int] = None
    bucket_rate: float = 0.0
    bucket_burst: float = 8.0
    fair_per_tenant: int = 0
    codel_target: float = 0.0
    codel_interval: float = 4.0
    brownout_depth: float = 0.0
    brownout_phi: float = 6.0
    # tenants
    tenant_timeout: float = 5.0
    tenant_backoff: float = 1.0
    tenant_max_timeout: float = 600.0
    backoff_jitter: float = 0.0
    retry_ratio: float = -1.0
    retry_reserve: float = 3.0
    honor_backpressure: bool = False
    think_time: float = 15.0
    start_spread: float = 5.0

    def make_ingress(self, replicas: Sequence[ProcessId]) -> IngressProcess:
        return IngressProcess(
            replicas=replicas,
            proc_time=self.proc_time,
            reject_time=self.reject_time,
            max_inflight=self.max_inflight,
            lease_timeout=self.lease_timeout,
            queue_limit=self.queue_limit,
            bucket=(
                TokenBucket(self.bucket_rate, self.bucket_burst)
                if self.bucket_rate > 0 else None
            ),
            fair=(
                FairShare(self.fair_per_tenant)
                if self.fair_per_tenant > 0 else None
            ),
            codel=(
                QueueDeadline(self.codel_target, self.codel_interval)
                if self.codel_target > 0 else None
            ),
            brownout=(
                BrownoutController(
                    self.brownout_depth, phi_high=self.brownout_phi
                )
                if self.brownout_depth > 0 else None
            ),
        )

    def tenant_kwargs(self) -> dict[str, Any]:
        from ..faults.timeouts import FixedTimeout, RetryBudget

        timeout, backoff, cap = (
            self.tenant_timeout, self.tenant_backoff, self.tenant_max_timeout
        )
        kwargs: dict[str, Any] = {
            # zero-arg factories: every tenant resolves a FRESH instance
            "timeout_policy": lambda: FixedTimeout(
                timeout, backoff=backoff, max_timeout=cap
            ),
            "backoff_jitter": self.backoff_jitter,
            "think_time": self.think_time,
            "honor_backpressure": self.honor_backpressure,
            "start_spread": self.start_spread,
        }
        if self.retry_ratio >= 0:
            ratio, reserve = self.retry_ratio, self.retry_reserve
            kwargs["retry_budget"] = lambda: RetryBudget(
                ratio=ratio, min_reserve=reserve
            )
        return kwargs


def protected_profile(**overrides: Any) -> ServiceProfile:
    """Every defense on: bounded queue, shed policies, budgets, jitter."""
    profile = ServiceProfile(
        name="protected",
        protected=True,
        lease_timeout=40.0,
        queue_limit=24,
        bucket_rate=2.5,
        bucket_burst=8.0,
        fair_per_tenant=2,
        codel_target=8.0,
        codel_interval=4.0,
        brownout_depth=12.0,
        # patience must exceed the system's own designed sojourn
        # (queue_limit * proc_time + consensus slack ~= 10.5s), or tenants
        # spend their retry budgets on requests that were going to complete
        tenant_timeout=12.0,
        tenant_backoff=2.0,
        tenant_max_timeout=60.0,
        backoff_jitter=0.5,
        retry_ratio=0.1,
        retry_reserve=3.0,
        honor_backpressure=True,
    )
    return dataclasses.replace(profile, **overrides) if overrides else profile


def unprotected_profile(**overrides: Any) -> ServiceProfile:
    """Every defense off: the metastable-collapse baseline.

    Fixed 5s timeouts that never escalate, unbounded retries, unbounded
    admission queue, backpressure ignored — the configuration whose
    post-burst duplicate rate (``n_tenants / 5s``) exceeds the pump rate
    and therefore never recovers.
    """
    profile = ServiceProfile(name="unprotected", protected=False)
    return dataclasses.replace(profile, **overrides) if overrides else profile


# ---------------------------------------------------------------------------
# The planted trigger
# ---------------------------------------------------------------------------


class PlantedBurstGST(GSTAdversary):
    """GST adversary with one deliberate full-network outage before GST.

    The metastable-failure *trigger*: a total loss window of
    ``burst_len`` time units ending ``burst_gap`` before GST. During the
    window every tenant's outstanding request (and every reply) is lost,
    so at GST the whole fleet is simultaneously retransmitting — the
    correlated state that tips an unprotected service past its unstable
    equilibrium. Placement is derived from ``gst``, so the fixture moves
    with the schedule and stays a pure function of the seed.

    Subclassing note: windows are (re)generated at :meth:`bind`, so the
    planted burst must be appended inside :meth:`_generate_windows` —
    appending to ``bursts`` after construction would be erased when the
    simulation binds its RNG.
    """

    def __init__(
        self,
        n: int,
        gst: Time,
        delta: float = 1.0,
        burst_len: float = 28.0,
        burst_gap: float = 2.0,
        **chaos_kwargs: Any,
    ) -> None:
        if burst_len <= 0:
            raise ConfigurationError(
                f"burst_len must be > 0, got {burst_len}"
            )
        if burst_gap < 0:
            raise ConfigurationError(
                f"burst_gap must be >= 0, got {burst_gap}"
            )
        end = gst - burst_gap
        start = max(end - burst_len, 0.0)
        if start >= end:
            raise ConfigurationError(
                f"planted burst [{start}, {end}) is empty; gst={gst} too small"
            )
        self.planted = BurstWindow(start=start, end=end, drop=1.0)
        super().__init__(n, gst=gst, delta=delta, **chaos_kwargs)

    def _generate_windows(self) -> None:
        super()._generate_windows()
        self.bursts = tuple(sorted(
            (*self.bursts, self.planted), key=lambda b: b.start
        ))


def storm_adversary(n: int, gst: Time, delta: float) -> PlantedBurstGST:
    """The storm fixture's adversary: quiet network except the planted burst.

    Background chaos is deliberately zero — the experiment isolates the
    *overload* failure mode, so the only fault is the trigger itself (the
    generic ``service`` protocol covers composed chaos).
    """
    return PlantedBurstGST(
        n=n,
        gst=gst,
        delta=delta,
        drop_probability=0.0,
        dup_probability=0.0,
        straggler_probability=0.0,
        n_bursts=0,
        n_partitions=0,
    )


# ---------------------------------------------------------------------------
# Liveness contract
# ---------------------------------------------------------------------------


class ServiceLivenessAuditor(DeadlineChecker):
    """Streaming post-GST auditor for the serving layer's answer contract.

    Every request a fault-free tenant submits (``svc_sent``) must reach
    *some* terminal outcome within ``bound`` of ``max(t_sent, gst)``:

    - ``svc_done`` — completed with a reply quorum;
    - ``svc_reject`` recorded at the ingress — a typed refusal (graceful
      degradation IS an answer; the goodput metric separately penalizes
      answering everything with rejections);
    - ``svc_failed`` — the tenant's own budgeted abandonment (a terminal
      *decision*, reached in bounded time by construction of the budget).

    A metastably collapsed service violates this contract wholesale: the
    unbounded inbox keeps requests in limbo — no reply, no rejection —
    past any bound. The deadline plumbing — batch path, ``fail_fast``,
    report — is :class:`~repro.sim.liveness.DeadlineChecker`'s, as for the
    replication auditors.
    """

    def __init__(
        self,
        gst: Time,
        bound: float,
        tenants: Iterable[ProcessId],
        ingress: ProcessId,
        fail_fast: bool = False,
    ) -> None:
        if bound <= 0:
            raise ConfigurationError(f"bound must be > 0, got {bound}")
        super().__init__(gst, fail_fast)
        self.bound = bound
        self.tenants = set(tenants)
        self.ingress = ingress

    prop = "service-liveness"
    kinds = frozenset({CUSTOM})

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind != CUSTOM:
            return
        self._expire(ev)
        tag = ev.field("event")
        if tag == "svc_sent" and ev.pid in self.tenants:
            req_id = ev.field("req_id")
            self._arm(
                ("svc", ev.pid, req_id),
                ev.time,
                self.bound,
                f"request {req_id} from tenant {ev.pid} (sent t={ev.time:g}) "
                "reached no terminal outcome (done/rejected/abandoned)",
            )
        elif tag in ("svc_done", "svc_failed") and ev.pid in self.tenants:
            self._satisfy(("svc", ev.pid, ev.field("req_id")))
        elif tag == "svc_reject" and ev.pid == self.ingress:
            self._satisfy(("svc", ev.field("tenant"), ev.field("req_id")))


# ---------------------------------------------------------------------------
# System builder
# ---------------------------------------------------------------------------


def _replica_vc_policy(req_timeout: float) -> Any:
    """View-change timer for served replicas: escalating, not fixed.

    Under storm load, arrival-to-execution latency can legitimately exceed
    any fixed bound while the primary is perfectly healthy; a constant
    timer then triggers a view change on every expiry, and each view
    change re-proposes the un-checkpointed log. Exponential backoff makes
    repeated unproductive view changes geometrically rarer (progress still
    resets the timer, so a genuinely dead primary is replaced promptly).
    """
    from ..faults.timeouts import FixedTimeout

    return FixedTimeout(req_timeout, backoff=2.0, max_timeout=600.0)


def build_service_system(
    profile: Optional[ServiceProfile] = None,
    n_tenants: int = 8,
    ops_per_tenant: int = 6,
    f: int = 1,
    app: str = "bank",
    seed: int = 0,
    adversary: Optional[Adversary] = None,
    req_timeout: float = 90.0,
    checkpoint_interval: int = 32,
    reliable: bool | dict = True,
    trace_retention: Optional[int] = None,
    observers: Sequence[Any] = (),
    workloads: Optional[Sequence[Sequence[tuple]]] = None,
) -> tuple[Simulation, list[MinBFTReplica], IngressProcess, list[TenantClient]]:
    """A ready-to-run served deployment: replicas + ingress + tenant fleet.

    Pid layout: replicas ``0..n-1``, ingress ``n``, tenants
    ``n+1..n+n_tenants``. Tenants sign their own requests (the ingress
    holds no signing authority and merely forwards tenant-signed
    ``REQUEST`` tuples), replicas verify and reply directly to the tenant
    — the ingress is an overload boundary, not a trust boundary. Replicas
    run with batching on: a saturated ingress dispatches up to
    ``max_inflight`` distinct tenants concurrently and one slot carries
    the whole batch window.
    """
    if f < 1:
        raise ConfigurationError(f"f must be >= 1, got {f}")
    if n_tenants < 1:
        raise ConfigurationError(f"n_tenants must be >= 1, got {n_tenants}")
    from ..consensus.apps import make_app
    from ..consensus.harness import usig_hardware
    from ..workloads.generator import tenant_workloads

    profile = profile if profile is not None else protected_profile()
    n = 2 * f + 1
    total = n + 1 + n_tenants
    scheme = SignatureScheme(total, seed=seed)
    trusted = usig_hardware(n, seed)

    replicas: list[MinBFTReplica] = []
    for pid in range(n):
        replicas.append(MinBFTReplica(
            n=n,
            **trusted[pid],
            scheme=scheme,
            signer=scheme.signer(pid),
            app=make_app(app),
            req_timeout=req_timeout,
            # checkpointing is load-bearing under sustained load: without a
            # stable checkpoint every view change re-proposes the log from
            # seq 0, and under overload those floods dominate the run
            checkpoint_interval=checkpoint_interval,
            batching=True,
            timeout_policy=_replica_vc_policy(req_timeout),
        ))

    ingress = profile.make_ingress(range(n))

    if workloads is None:
        workloads = tenant_workloads(
            n_tenants, ops_per_tenant, seed=seed,
            kind="bank" if app == "bank" else "kv",
        )
    tenant_kwargs = profile.tenant_kwargs()
    tenants: list[TenantClient] = []
    for i in range(n_tenants):
        tenant = TenantClient(
            ingress=n,
            replicas=range(n),
            reply_quorum=f + 1,
            ops=list(workloads[i]),
            **tenant_kwargs,
        )
        tenant.signer = scheme.signer(n + 1 + i)
        tenants.append(tenant)

    hosted = [*replicas, ingress, *tenants]
    if reliable:
        from ..faults.channel import wrap_reliable

        kwargs = reliable if isinstance(reliable, dict) else {}
        hosted = wrap_reliable(hosted, **kwargs)
    adversary = (
        adversary if adversary is not None else ReliableAsynchronous(0.01, 0.5)
    )
    sim = Simulation(hosted, adversary, seed=seed,
                     trace_retention=trace_retention, observers=observers)
    return sim, replicas, ingress, tenants


# ---------------------------------------------------------------------------
# Chaos protocol runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ServiceFixture:
    """The fixed part of a serving-layer chaos cell: the answer bound the
    liveness auditor holds it to, and whether its network is the
    schedule's composed chaos or the planted storm on a quiet one."""

    bound: float
    storm: bool = False


def run_service_chaos(
    cell: Any, n_tenants: int, ops_per_tenant: int, protected: bool = True
) -> Any:
    """The serving layer under one fault schedule; a standard ChaosResult.

    ``cell.spec.config`` is the cell's :class:`ServiceFixture`; its row
    supplies the fleet size. Two cells share this runner:

    - ``service``: generic seeded chaos — loss, duplication, bursts,
      partitions, replica crash/recovery — against a modestly loaded
      protected service. The robustness regression: composed faults must
      not break the answer contract.
    - ``service-storm``: the planted metastable retry-storm fixture on an
      otherwise quiet network, sized so the unprotected arm's duplicate
      rate exceeds the pump rate. ``protected=True`` must come back clean;
      ``protected=False`` must be convicted by the liveness auditor — both
      are asserted by ``tests/test_service_soak.py`` on every quick-sweep
      seed.

    Safety (replica execution order) is audited by the standard
    :class:`~repro.consensus.safety.ReplicationStreamChecker` in both
    arms — overload collapse is a *liveness* failure; consensus safety
    must hold even mid-storm.
    """
    from ..faults.chaos import reboot_replica

    fixture, schedule = cell.spec.config, cell.schedule
    prof = protected_profile() if protected else unprotected_profile()
    app = "bank"
    f = 1
    n = 2 * f + 1
    total = n + 1 + n_tenants
    if fixture.storm:
        adversary: Adversary = storm_adversary(
            total, gst=schedule.gst, delta=schedule.delta
        )
    else:
        adversary = schedule.make_adversary(total)
    sim, replicas, _ingress, _tenants = build_service_system(
        profile=prof,
        n_tenants=n_tenants,
        ops_per_tenant=ops_per_tenant,
        f=f,
        app=app,
        seed=schedule.seed,
        adversary=adversary,
        reliable=cell.channel,
        # the auditors stream; full retention of a storm run's millions of
        # events would dominate memory without ever being read back
        trace_retention=50_000,
    )
    checker = ReplicationStreamChecker(cell.correct(n), fail_fast=True)
    live = ServiceLivenessAuditor(
        gst=schedule.gst,
        bound=fixture.bound,
        tenants=range(n + 1, n + 1 + n_tenants),
        ingress=n,
    )

    return cell.run(
        sim, adversary, replicas,
        # a served replica reboots with the serving configuration
        # build_service_system gave it
        reboot=lambda old: reboot_replica(
            old, app, _replica_vc_policy(old.req_timeout),
            dict(checkpoint_interval=old.checkpoint_interval, batching=True),
        ),
        checker=checker,
        live=live,
        audit=checker.finish,
        extra_stats=lambda: {"service": sim.collect_service_stats()},
        preamble=(
            f"arm={prof.name} tenants={n_tenants} "
            f"pump={1.0 / prof.proc_time:.2f}/s\n"
        ),
    )
