"""Safety and liveness checkers for replicated state machines.

Protocol-agnostic: both MinBFT and PBFT replicas record
``custom/execute`` trace events with ``(seq, client, req_id, op, result)``;
the checkers audit those plus client completions.

Checked properties:

- **order safety** — correct replicas' executed logs are prefix-compatible
  (no two correct replicas execute different requests at a slot, no holes);
- **no duplicates** — no request executed twice by one replica;
- **result determinism** — replicas that executed a slot produced the same
  result (exercises the app's determinism end to end);
- **client liveness** — every client finished its workload (optional, for
  runs expected to complete).

Both checking modes share one incremental core
(:class:`ReplicationStreamChecker`): batch :func:`check_replication`
replays the finished trace through it; attached as a live
:class:`~repro.sim.trace.TraceObserver` with ``fail_fast=True`` the same
core flags *permanent* violations online — a duplicate execution or a slot
whose batch prefix diverges between two replicas can never be undone by
later events, so the run aborts at that exact event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..errors import ConfigurationError, PropertyViolation
from ..sim.liveness import DeadlineChecker, LivenessReport
from ..sim.trace import CUSTOM, StreamChecker, TraceEvent, TraceStore
from ..types import ProcessId, Time


@dataclass(frozen=True, slots=True)
class Execution:
    """One replica's execution of one slot."""

    replica: ProcessId
    seq: int
    client: ProcessId
    req_id: int
    op: Any
    result: Any


@dataclass(slots=True)
class ReplicationReport:
    executions: list[Execution] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    clients_done: dict[ProcessId, int] = field(default_factory=dict)
    liveness_violations: list[str] = field(default_factory=list)
    transfers: dict[ProcessId, set[int]] = field(default_factory=dict)
    """Per replica: stable seqs it fast-forwarded to via checkpoint transfer
    (gaps up to those seqs are legitimate, not order violations)."""
    noops: dict[ProcessId, set[int]] = field(default_factory=dict)
    """Per replica: slots ordered but applied as no-ops (every request in
    the slot was a duplicate of an earlier execution). Benign holes in the
    execution stream — but replicas must *agree* a slot is a no-op."""

    @property
    def ok(self) -> bool:
        return not self.violations and not self.liveness_violations

    def all_violations(self) -> list[str]:
        return self.violations + self.liveness_violations

    def assert_ok(self) -> None:
        if not self.ok:
            raise PropertyViolation(
                "replication", "; ".join(self.all_violations()[:3])
            )

    def log_of(self, replica: ProcessId) -> list[Execution]:
        return sorted(
            (e for e in self.executions if e.replica == replica),
            key=lambda e: e.seq,
        )


class ReplicationStreamChecker(StreamChecker):
    """Incremental replication-audit state shared by batch and streaming modes.

    Collects executions, checkpoint transfers, and client completions from
    ``custom`` trace events as they arrive. :meth:`finish` runs the full
    audit over the accumulated state and produces the exact report the
    pre-refactor whole-trace scan did.

    Online detection (``fail_fast=True``): two violation classes are
    permanent the moment they occur and raise at the violating event —

    - a replica executing the same ``(client, req_id)`` twice;
    - slot divergence visible in batch *prefixes*: if replica A's k-th
      execution of slot s disagrees with replica B's k-th execution of
      slot s, their final slot signatures cannot match either.

    Order-safety gaps are *not* flagged online (a gap may still be covered
    by a later checkpoint-transfer record); :meth:`finish` audits those.
    """

    def __init__(
        self,
        correct_replicas: Iterable[ProcessId],
        fail_fast: bool = False,
    ) -> None:
        super().__init__(fail_fast)
        self.correct = sorted(set(correct_replicas))
        self._correct_set = set(self.correct)
        self.executions: list[Execution] = []
        self.clients_done: dict[ProcessId, int] = {}
        self.transfers: dict[ProcessId, set[int]] = {}
        self.noops: dict[ProcessId, set[int]] = {}
        self.by_slot: dict[int, dict[ProcessId, list[Execution]]] = {}
        self._seen_requests: dict[ProcessId, set[tuple]] = {}
        self.events_consumed = 0

    # -- streaming ---------------------------------------------------------

    prop = "replication-stream"
    kinds = frozenset({CUSTOM})

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind != CUSTOM:
            return
        tag = ev.field("event")
        if tag == "execute" and ev.pid in self._correct_set:
            self.events_consumed += 1
            e = Execution(
                replica=ev.pid,
                seq=ev.field("seq"),
                client=ev.field("client"),
                req_id=ev.field("req_id"),
                op=ev.field("op"),
                result=ev.field("result"),
            )
            self.executions.append(e)
            slot = self.by_slot.setdefault(e.seq, {})
            mine = slot.setdefault(e.replica, [])
            mine.append(e)
            # always record online findings; fail_fast only controls whether
            # the first one aborts the run (the compromised-hardware soak
            # needs the divergence *recorded* while the run continues into
            # conviction and recovery)
            self._check_online(ev, e, slot, mine)
        elif tag == "client_done":
            self.events_consumed += 1
            self.clients_done[ev.pid] = ev.field("ops")
        elif tag == "state_transfer" and ev.pid in self._correct_set:
            self.events_consumed += 1
            self.transfers.setdefault(ev.pid, set()).add(ev.field("stable_seq"))
        elif tag == "execute_noop" and ev.pid in self._correct_set:
            self.events_consumed += 1
            self.noops.setdefault(ev.pid, set()).add(ev.field("seq"))
        elif tag == "rollback" and ev.pid in self._correct_set:
            self.events_consumed += 1
            self._rollback(ev.pid, ev.field("to_seq"))

    def _rollback(self, replica: ProcessId, to_seq: int) -> None:
        """Forget ``replica``'s executions above ``to_seq``.

        A forensic conviction rolls survivors back to their last attested
        state (:mod:`repro.consensus.forensics`): slots above the rollback
        point are re-executed once the group re-forms, and auditing the
        discarded attempts against the recovered history would misread the
        re-executions as duplicates/divergence. Violations already flagged
        online stay flagged — pre-conviction divergence is the planted
        evidence, not noise.
        """
        kept: list[Execution] = []
        seen = self._seen_requests.get(replica, set())
        for e in self.executions:
            if e.replica == replica and e.seq > to_seq:
                slot = self.by_slot.get(e.seq)
                if slot is not None:
                    slot.pop(replica, None)
                    if not slot:
                        del self.by_slot[e.seq]
                seen.discard((e.client, e.req_id))
            else:
                kept.append(e)
        self.executions = kept
        noops = self.noops.get(replica)
        if noops:
            self.noops[replica] = {s for s in noops if s <= to_seq}

    def _check_online(
        self,
        ev: TraceEvent,
        e: Execution,
        slot: dict[ProcessId, list[Execution]],
        mine: list[Execution],
    ) -> None:
        seen = self._seen_requests.setdefault(e.replica, set())
        key = (e.client, e.req_id)
        if key in seen:
            self._flag(
                ev,
                f"replica {e.replica} executed request {key} twice",
            )
        seen.add(key)
        # prefix divergence: compare this batch position against every other
        # replica that has already executed this position of the slot
        pos = len(mine) - 1
        sig = (e.client, e.req_id, repr(e.result))
        for other, theirs in slot.items():
            if other == e.replica or len(theirs) <= pos:
                continue
            o = theirs[pos]
            if (o.client, o.req_id, repr(o.result)) != sig:
                self._flag(
                    ev,
                    f"slot {e.seq} position {pos} diverges: replica "
                    f"{e.replica} executed {sig} but replica {other} "
                    f"executed {(o.client, o.req_id, repr(o.result))}",
                )

    # -- final audit -------------------------------------------------------

    def finish(
        self, expected_ops: dict[ProcessId, int] | None = None
    ) -> ReplicationReport:
        """Audit the accumulated state; identical to the pre-refactor scan."""
        return _audit(
            self.correct,
            self.executions,
            self.clients_done,
            self.transfers,
            self.noops,
            self.by_slot,
            expected_ops,
        )


class ReplicationLivenessChecker(DeadlineChecker):
    """Streaming post-GST liveness auditor for the replication layer.

    Under partial synchrony nothing is owed before GST; after it, within a
    delay-derived bound:

    - every request a fault-free client *sends* must complete
      (``request_sent`` → ``request_done``), with deadline
      ``max(t_sent, gst) + request_bound``;
    - every view change must *terminate* once it has enough backing to be
      guaranteed to run: an obligation for target view ``v`` is armed only
      when **f+1 distinct fault-free replicas** have started view changes
      targeting ``>= v`` (a lone stuck replica whose quorum partners
      crashed is protocol-legal and must not be flagged), and is satisfied
      when any fault-free replica adopts a view ``>= v``, under the same
      ``request_bound`` from the moment it is armed.

    The deadline plumbing — batch path, ``fail_fast``, report — is
    :class:`~repro.sim.liveness.DeadlineChecker`'s.
    """

    def __init__(
        self,
        gst: Time,
        request_bound: float,
        fault_free_replicas: Iterable[ProcessId],
        fault_free_clients: Iterable[ProcessId],
        f: int,
        fail_fast: bool = False,
    ) -> None:
        if request_bound <= 0:
            raise ConfigurationError(
                f"request_bound must be > 0, got {request_bound}"
            )
        super().__init__(gst, fail_fast)
        self.request_bound = request_bound
        self.replicas = set(fault_free_replicas)
        self.clients = set(fault_free_clients)
        self.f = f
        # per fault-free replica: highest view-change target started and not
        # yet resolved by an adoption >= target (quorum-gating state)
        self._vc_pending: dict[ProcessId, int] = {}
        self._vc_armed: set[int] = set()

    # -- streaming ---------------------------------------------------------

    prop = "liveness-stream"
    kinds = frozenset({CUSTOM})

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind != CUSTOM:
            return
        self._expire(ev)
        tag = ev.field("event")
        if tag == "request_sent" and ev.pid in self.clients:
            self._arm(
                ("req", ev.pid, ev.field("req_id")),
                ev.time,
                self.request_bound,
                f"request {ev.field('req_id')} from client {ev.pid} "
                f"(sent t={ev.time:g}) never completed",
            )
        elif tag == "request_done" and ev.pid in self.clients:
            self._satisfy(("req", ev.pid, ev.field("req_id")))
        elif tag == "request_failed" and ev.pid in self.clients:
            # a typed abandonment (retry budget exhausted) discharges the
            # obligation: the client made a deliberate, recorded decision
            # to stop waiting, same stance as the service-layer auditor —
            # a *silent* non-completion is still convicted
            self._satisfy(("req", ev.pid, ev.field("req_id")))
        elif tag == "view_change_start" and ev.pid in self.replicas:
            target = ev.field("new_view")
            if target > self._vc_pending.get(ev.pid, 0):
                self._vc_pending[ev.pid] = target
            backing = sum(1 for t in self._vc_pending.values() if t >= target)
            if backing >= self.f + 1 and target not in self._vc_armed:
                self._vc_armed.add(target)
                self._arm(
                    ("vc", target),
                    ev.time,
                    self.request_bound,
                    f"view change to view {target} (f+1 fault-free starters "
                    f"by t={ev.time:g}) never terminated",
                )
        elif tag == "view_adopted" and ev.pid in self.replicas:
            view = ev.field("view")
            for target in sorted(t for t in self._vc_armed if t <= view):
                self._vc_armed.discard(target)
                self._satisfy(("vc", target))
            if self._vc_pending.get(ev.pid, 0) <= view:
                self._vc_pending.pop(ev.pid, None)


def check_replication_liveness(
    trace: TraceStore,
    gst: Time,
    request_bound: float,
    fault_free_replicas: Iterable[ProcessId],
    fault_free_clients: Iterable[ProcessId],
    f: int,
    end_time: Optional[Time] = None,
) -> LivenessReport:
    """Batch liveness audit of a finished trace (same core as streaming)."""
    return (
        ReplicationLivenessChecker(
            gst=gst,
            request_bound=request_bound,
            fault_free_replicas=fault_free_replicas,
            fault_free_clients=fault_free_clients,
            f=f,
        )
        .consume(trace)
        .finish(end_time=end_time)
    )


def check_replication(
    trace: TraceStore,
    correct_replicas: Iterable[ProcessId],
    expected_ops: dict[ProcessId, int] | None = None,
) -> ReplicationReport:
    """Audit executed logs across the correct replicas.

    Client liveness is audited only when ``expected_ops`` names how many
    operations each client must have completed.
    """
    return (
        ReplicationStreamChecker(correct_replicas)
        .consume(trace)
        .finish(expected_ops=expected_ops)
    )


def _audit(
    correct: list[ProcessId],
    executions: list[Execution],
    clients_done: dict[ProcessId, int],
    transfers: dict[ProcessId, set[int]],
    noops: dict[ProcessId, set[int]],
    by_slot: dict[int, dict[ProcessId, list[Execution]]],
    expected_ops: dict[ProcessId, int] | None,
) -> ReplicationReport:
    report = ReplicationReport()
    report.executions = list(executions)
    report.clients_done = dict(clients_done)
    report.transfers = {p: set(s) for p, s in transfers.items()}
    report.noops = {p: set(s) for p, s in noops.items()}

    # order safety + result determinism, slot by slot. A slot may carry a
    # *batch* of requests; every replica must execute the same ordered batch
    # with the same results.
    for seq, execs in sorted(by_slot.items()):
        signatures = {
            r: tuple((e.client, e.req_id, repr(e.result)) for e in es)
            for r, es in execs.items()
        }
        distinct = set(signatures.values())
        if len(distinct) > 1:
            report.violations.append(
                f"slot {seq} diverges across replicas: "
                f"{sorted(str(s)[:80] for s in distinct)}"
            )
        # dedup determinism: the decision that a slot is a pure duplicate
        # depends only on the (identical) execution prefix, so a slot
        # applied on one correct replica but no-opped on another means
        # their prefixes disagreed
        nooped = [r for r in correct if seq in report.noops.get(r, set())]
        if nooped and execs:
            report.violations.append(
                f"slot {seq} applied on replicas {sorted(execs)} but "
                f"no-opped on {nooped}"
            )

    # per-replica: contiguous slots (gaps only across checkpoint transfers),
    # no duplicate requests
    for r in correct:
        log = report.log_of(r)
        # batches repeat a seq (dedupe); no-op slots fill their hole
        seqs = sorted({e.seq for e in log} | report.noops.get(r, set()))
        covered = report.transfers.get(r, set())
        prev = 0
        for s in seqs:
            contiguous = s == prev + 1
            # a transfer to stable seq t installs state covering slots 1..t,
            # so skipping prev+1..s-1 is fine when some t >= s-1 exists
            transferred = any(t >= s - 1 for t in covered)
            if not contiguous and not transferred:
                report.violations.append(
                    f"replica {r} executed non-contiguous slots {seqs[:20]} "
                    f"(gap before {s} not covered by a checkpoint transfer)"
                )
                break
            prev = s
        keys = [(e.client, e.req_id) for e in log]
        if len(keys) != len(set(keys)):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            report.violations.append(
                f"replica {r} executed requests twice: {dupes[:5]}"
            )

    # client liveness
    if expected_ops:
        for client, expected in sorted(expected_ops.items()):
            done = report.clients_done.get(client)
            if done is None:
                report.liveness_violations.append(
                    f"client {client} never finished its {expected} ops"
                )
            elif done != expected:
                report.liveness_violations.append(
                    f"client {client} finished {done}/{expected} ops"
                )
    return report
