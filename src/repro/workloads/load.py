"""Open-loop consensus load harness: drive a pipelined cluster to saturation.

:func:`run_pipeline_load` is the bridge between the workload generator and
the replication core: it takes a Poisson arrival stream from
:func:`~repro.workloads.generator.open_loop_arrivals`, splits it
round-robin across a fleet of multi-outstanding
:class:`~repro.consensus.client.BFTClient` processes, runs the MinBFT or
PBFT cluster under the deterministic scheduler with the **streaming
replication safety checker attached** (``fail_fast=True`` — a pipelining
bug that reorders or duplicates execution aborts the run at the violating
event, it cannot hide in an aggregate), and returns committed throughput,
latency order statistics, pipeline counters, and a replay witness.

The witness (``order_hash``) folds every dispatched event's
``(index, time, kind, pid)`` into SHA-256, so two runs of the same
configuration are either bit-identically scheduled or measurably not —
the property the benchmark's replayed cell asserts.

Sustaining 10⁵+ requests per sweep is feasible because the replicas now
prune per-slot state at checkpoint stabilization and deduplicate through
the bounded :class:`~repro.consensus.dedup.ClientDedup`; the harness
exposes ``peak_slot_state`` so soak tests can assert the bound held.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

from ..analysis.stats import Summary, summarize
from ..consensus.harness import build_minbft_system, build_pbft_system
from ..consensus.safety import (
    ReplicationLivenessChecker,
    ReplicationStreamChecker,
)
from ..errors import ConfigurationError
from ..sim.trace import CUSTOM, TraceEvent, TraceObserver
from .generator import open_loop_arrivals


class OrderHasher(TraceObserver):
    """Replay witness: SHA-256 over every event's (index, time, kind, pid).

    Hashed ``FLUSH`` records at a time, with ``repr(time)`` memoized by
    identity (one dispatch's events share the clock's float): by equality,
    ``0.0 == -0.0`` and ``nan`` differs from itself.
    """

    FLUSH = 2048

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self._buf: list[str] = []
        self._t, self._t_repr = None, repr(None)

    def on_event(self, ev: TraceEvent) -> None:
        t = ev.time
        if t is not self._t:
            self._t, self._t_repr = t, repr(t)
        # byte-identical to repr((index, time, kind, pid)), without the tuple
        self._buf.append(f"({ev.index!r}, {self._t_repr}, {ev.kind!r}, {ev.pid!r})")
        if len(self._buf) >= self.FLUSH:
            self._flush()

    def _flush(self) -> None:
        self._h.update("".join(self._buf).encode())
        self._buf.clear()

    def hexdigest(self) -> str:
        self._flush()
        return self._h.hexdigest()


class _CompletionClock(TraceObserver):
    """Tracks the span of client completions for throughput accounting."""

    def __init__(self) -> None:
        self.first_sent: Optional[float] = None
        self.last_done: Optional[float] = None
        self.completions = 0

    kinds = frozenset({CUSTOM})

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind != CUSTOM:
            return
        tag = ev.field("event")
        if tag == "request_sent":
            if self.first_sent is None:
                self.first_sent = ev.time
        elif tag == "request_done":
            self.last_done = ev.time
            self.completions += 1


@dataclass(slots=True)
class LoadResult:
    """Outcome of one open-loop load cell."""

    protocol: str
    rate: float
    n_requests: int
    completed: int
    failed: int
    duration: float
    """First ``request_sent`` to last ``request_done`` (virtual time)."""
    throughput: float
    """Committed requests per unit virtual time over ``duration``."""
    latency: Optional[Summary]
    order_hash: str
    safety_ok: bool
    liveness_ok: bool
    peak_backlog: int
    peak_slot_state: int
    """Max per-slot/per-request entries held by any replica at run end."""
    consensus: Optional[dict]
    events_processed: int
    end_time: float
    violations: list = field(default_factory=list)

    @property
    def p50(self) -> float:
        return self.latency.p50 if self.latency is not None else float("nan")

    @property
    def p99(self) -> float:
        return self.latency.p99 if self.latency is not None else float("nan")


def split_arrivals(
    arrivals: list[tuple[float, tuple]], n_clients: int
) -> list[list[tuple[float, tuple]]]:
    """Round-robin an arrival stream across ``n_clients`` clients.

    Striding (``arrivals[c::n]``) keeps each client's sub-stream
    time-sorted and keeps per-client arrival rates statistically equal —
    a contiguous split would hand client 0 the whole early run and make
    the fleet sequential again.
    """
    if n_clients < 1:
        raise ConfigurationError(f"n_clients must be >= 1, got {n_clients}")
    return [list(arrivals[c::n_clients]) for c in range(n_clients)]


def run_pipeline_load(
    protocol: str = "minbft",
    n_requests: int = 1_000,
    rate: float = 50.0,
    f: int = 1,
    n_clients: int = 4,
    seed: int = 0,
    kind: str = "uniform-kv",
    app: str = "kv",
    window_size: int = 16,
    batching: Any = "adaptive",
    checkpoint_interval: int = 8,
    max_outstanding: int = 8,
    batch_delay: float = 0.2,
    req_timeout: float = 25.0,
    retry_timeout: float = 40.0,
    request_bound: float = 500.0,
    max_events: Optional[int] = None,
    trace_retention: Optional[int] = None,
) -> LoadResult:
    """Run one open-loop load cell against a pipelined cluster.

    ``batching`` is ``False`` (per-request slots), ``"fixed"`` (legacy
    fixed-delay batch timer), or ``"adaptive"`` (EWMA-sized batches).
    The streaming safety checker runs ``fail_fast`` — the call *raises*
    at the violating event on any ordering/duplication regression; the
    liveness auditor's verdict lands in ``liveness_ok`` (obligations are
    discharged by ``request_done`` or a typed ``request_failed``).

    Everything, including the adaptive batch caps, is a pure function of
    ``seed`` — re-running the same cell reproduces ``order_hash`` exactly.
    """
    if protocol not in ("minbft", "pbft"):
        raise ConfigurationError(f"unknown protocol {protocol!r}")
    arrivals = open_loop_arrivals(n_requests, seed=seed, rate=rate, kind=kind)
    per_client = split_arrivals(arrivals, n_clients)

    n = (2 * f + 1) if protocol == "minbft" else (3 * f + 1)
    hasher = OrderHasher()
    clock = _CompletionClock()
    safety = ReplicationStreamChecker(
        correct_replicas=range(n), fail_fast=True
    )
    liveness = ReplicationLivenessChecker(
        gst=0.0,
        request_bound=request_bound,
        fault_free_replicas=range(n),
        fault_free_clients=range(n, n + n_clients),
        f=f,
    )
    build = build_minbft_system if protocol == "minbft" else build_pbft_system
    sim, replicas, clients = build(
        f=f,
        n_clients=n_clients,
        app=app,
        seed=seed,
        req_timeout=req_timeout,
        retry_timeout=retry_timeout,
        client_arrivals=per_client,
        replica_options=dict(
            checkpoint_interval=checkpoint_interval,
            window_size=window_size,
            batching=bool(batching),
            batch_policy=batching if isinstance(batching, str) else None,
            batch_delay=batch_delay,
        ),
        client_options=dict(max_outstanding=max_outstanding),
        observers=(hasher, clock, safety, liveness),
        # every auditor above streams, so soak runs can bound the trace
        # ring buffer instead of holding 10^6 events for a batch audit
        trace_retention=trace_retention,
    )
    limit = max_events if max_events is not None else max(60 * n_requests, 200_000)
    stats = sim.run_to_quiescence(max_events=limit)

    safety_report = safety.finish(
        expected_ops=None  # abandoned requests are legal under overload
    )
    liveness_report = liveness.finish(stats.end_time)
    latencies = [lat for c in clients for lat in c.latencies]
    completed = sum(len(c.results) for c in clients)
    failed = sum(len(c.failures) for c in clients)
    first = clock.first_sent if clock.first_sent is not None else 0.0
    last = clock.last_done if clock.last_done is not None else first
    duration = max(last - first, 1e-9)
    sim.close()  # the result reads only process state, which a closed run keeps
    return LoadResult(
        protocol=protocol,
        rate=rate,
        n_requests=n_requests,
        completed=completed,
        failed=failed,
        duration=duration,
        throughput=completed / duration,
        latency=summarize(latencies) if latencies else None,
        order_hash=hasher.hexdigest(),
        safety_ok=safety_report.ok,
        liveness_ok=not liveness_report.violations,
        peak_backlog=max((c.peak_backlog for c in clients), default=0),
        peak_slot_state=max(r.slot_state_size() for r in replicas),
        consensus=stats.consensus,
        events_processed=stats.events_processed,
        end_time=stats.end_time,
        violations=list(safety_report.violations)
        + list(liveness_report.violations),
    )
