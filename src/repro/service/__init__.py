"""Overload-robust serving layer for the replicated lattice service.

The serving layer stands between multi-tenant workload generators and
the MinBFT replica group, and exists to answer one question: *what
happens to a replicated service pushed past saturation, and what
machinery keeps it from collapsing?* Four modules:

- :mod:`~repro.service.admission` — the shed policies (token bucket,
  per-tenant fair share, CoDel queue-deadline) and the bounded queue;
- :mod:`~repro.service.degrade` — the brownout / circuit-breaker ladder
  (full service → read-only → shed-everything) driven by queue-depth
  EWMA and phi-accrual silence on the completion stream;
- :mod:`~repro.service.ingress` — the ingress process (serialized input
  pump, admission pipeline, bounded dispatch into consensus) and the
  backpressure-aware :class:`~repro.service.ingress.TenantClient`;
- :mod:`~repro.service.soak` — the deterministic soak harness with the
  planted metastable retry-storm fixture: unprotected, goodput collapses
  after a transient burst and never recovers; protected, the service
  degrades gracefully and recovers after GST — convicted/cleared by the
  streaming service-liveness auditor.

Everything is a pure function of the run seed (jitter streams derive
from it); the chaos registry declares the ``service`` /
``service-storm`` cells, so the same sweep/replay tooling applies.
"""

from .admission import (
    AdmissionDecision,
    BoundedAdmissionQueue,
    FairShare,
    QueueDeadline,
    QueuedRequest,
    REASONS,
    TokenBucket,
)
from .degrade import BROWNOUT, BrownoutController, MODE_NAMES, NORMAL, OPEN
from .ingress import (
    DEFAULT_READ_OPS,
    IngressProcess,
    SVC_DONE,
    SVC_REJECT,
    SVC_REQ,
    TenantClient,
)
from .soak import (
    PlantedBurstGST,
    ServiceLivenessAuditor,
    ServiceProfile,
    build_service_system,
    protected_profile,
    run_service_chaos,
    unprotected_profile,
)

__all__ = [
    "AdmissionDecision",
    "BoundedAdmissionQueue",
    "BROWNOUT",
    "BrownoutController",
    "DEFAULT_READ_OPS",
    "FairShare",
    "IngressProcess",
    "MODE_NAMES",
    "NORMAL",
    "OPEN",
    "PlantedBurstGST",
    "QueueDeadline",
    "QueuedRequest",
    "REASONS",
    "ServiceLivenessAuditor",
    "ServiceProfile",
    "SVC_DONE",
    "SVC_REJECT",
    "SVC_REQ",
    "TenantClient",
    "TokenBucket",
    "build_service_system",
    "protected_profile",
    "run_service_chaos",
    "unprotected_profile",
]
