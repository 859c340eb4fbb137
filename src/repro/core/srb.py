"""Sequenced Reliable Broadcast: the four properties and their checker.

The paper's Definition 1. A designated *sender* broadcasts messages with
consecutive sequence numbers (1, 2, …); the primitive guarantees:

1. **validity** — a correct sender's every message is eventually delivered
   by every correct process;
2. **agreement (relay + no-duplicity)** — if some correct process delivers
   ``m`` with sequence number ``k`` from ``p``, eventually every correct
   process delivers the same ``m`` with ``k`` from ``p``;
3. **sequencing** — deliveries from ``p`` happen in sequence-number order
   with no gaps;
4. **integrity** — a delivered message was actually broadcast by ``p``.

Implementations record ``bcast`` events when the sender broadcasts and
``bcast_deliver`` events on delivery. Two checking modes share one
incremental core (:class:`SRBStreamChecker`):

- **batch** — :func:`check_srb` audits a finished trace by replaying its
  ``bcast``/``bcast_deliver`` events through the same core;
- **streaming** — attach an :class:`SRBStreamChecker` as a
  :class:`~repro.sim.trace.TraceObserver` and it maintains the same state
  online; with ``fail_fast=True`` a *permanent* safety violation
  (sequencing gap, agreement conflict) raises at the exact violating
  event instead of after the run.

"Eventually" is interpreted as *by the end of the run* — callers are
responsible for running long enough past quiescence (the benches use
generous horizons and verify network fairness separately).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..errors import ConfigurationError, PropertyViolation
from ..sim.liveness import DeadlineChecker, LivenessReport
from ..sim.trace import BCAST, BCAST_DELIVER, StreamChecker, TraceEvent, TraceStore
from ..types import Delivery, ProcessId, SeqNum, Time


@dataclass(slots=True)
class SRBReport:
    """Audit result for one sender's broadcast stream in one trace."""

    sender: ProcessId
    broadcasts: list[tuple[SeqNum, Any]] = field(default_factory=list)
    deliveries: list[Delivery] = field(default_factory=list)
    validity_violations: list[str] = field(default_factory=list)
    agreement_violations: list[str] = field(default_factory=list)
    sequencing_violations: list[str] = field(default_factory=list)
    integrity_violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.validity_violations
            or self.agreement_violations
            or self.sequencing_violations
            or self.integrity_violations
        )

    def all_violations(self) -> list[str]:
        return (
            [f"validity: {v}" for v in self.validity_violations]
            + [f"agreement: {v}" for v in self.agreement_violations]
            + [f"sequencing: {v}" for v in self.sequencing_violations]
            + [f"integrity: {v}" for v in self.integrity_violations]
        )

    def assert_ok(self) -> None:
        if not self.ok:
            vs = self.all_violations()
            raise PropertyViolation(
                "SRB", vs[0] + (f" (+{len(vs) - 1} more)" if len(vs) > 1 else "")
            )


class SRBStreamChecker(StreamChecker):
    """Incremental SRB state shared by the batch and streaming checkers.

    Feed it ``bcast`` / ``bcast_deliver`` events (any other kinds are
    ignored) — as a live :class:`~repro.sim.trace.TraceObserver` or through
    :meth:`~repro.sim.trace.StreamChecker.consume` (:func:`check_srb`'s
    batch path). :meth:`finish` then audits the four
    properties over the accumulated state; its report is identical to the
    pre-refactor whole-trace scan by construction.

    Online detection: sequencing gaps and agreement conflicts are
    *permanent* the moment they happen (no later event can undo them), so
    they are flagged on arrival in :attr:`online_violations` with the
    violating event's trace index; ``fail_fast=True`` additionally raises
    :class:`~repro.errors.PropertyViolation` right there, aborting the
    simulation step that recorded the event. Liveness properties
    (validity, agreement relay) only resolve at end of run and are checked
    in :meth:`finish`.
    """

    def __init__(
        self,
        sender: ProcessId,
        correct: Iterable[ProcessId],
        sender_correct: bool = True,
        expect_complete: bool = True,
        fail_fast: bool = False,
    ) -> None:
        super().__init__(fail_fast)
        self.sender = sender
        self.correct_set = sorted(set(correct))
        self.sender_correct = sender_correct
        self.expect_complete = expect_complete
        self.broadcasts: list[tuple[SeqNum, Any]] = []
        self.deliveries: list[Delivery] = []
        self.by_receiver: dict[ProcessId, list[Delivery]] = {
            p: [] for p in self.correct_set
        }
        self.value_of: dict[SeqNum, tuple[ProcessId, Any]] = {}
        self.events_consumed = 0

    # -- streaming ---------------------------------------------------------

    prop = "SRB-stream"
    kinds = frozenset({BCAST, BCAST_DELIVER})

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == BCAST:
            if ev.pid == self.sender:
                self.events_consumed += 1
                self.broadcasts.append((ev.field("seq"), ev.field("value")))
        elif ev.kind == BCAST_DELIVER:
            if ev.field("sender") != self.sender:
                return
            self.events_consumed += 1
            d = Delivery(
                receiver=ev.pid,
                sender=self.sender,
                seq=ev.field("seq"),
                value=ev.field("value"),
                time=ev.time,
            )
            self.deliveries.append(d)
            deliveries = self.by_receiver.get(d.receiver)
            if deliveries is None:
                return  # not a correct process; its stream is unconstrained
            deliveries.append(d)
            # sequencing: the i-th delivery must carry seq i+1 — a mismatch
            # can never be fixed by later events
            if d.seq != len(deliveries):
                self._flag(
                    ev,
                    f"sequencing: process {d.receiver} delivery "
                    f"#{len(deliveries)} has seq {d.seq}",
                )
            # agreement conflict: two correct processes, same seq,
            # different value — permanent
            known = self.value_of.get(d.seq)
            if known is None:
                self.value_of[d.seq] = (d.receiver, d.value)
            elif known[1] != d.value:
                self._flag(
                    ev,
                    f"agreement: seq {d.seq}: process {known[0]} delivered "
                    f"{known[1]!r} but process {d.receiver} delivered "
                    f"{d.value!r}",
                )

    # -- final audit -------------------------------------------------------

    def finish(self) -> SRBReport:
        """Audit the four SRB properties over the accumulated state."""
        correct_set = self.correct_set
        by_receiver = self.by_receiver
        report = SRBReport(sender=self.sender)
        report.broadcasts = list(self.broadcasts)
        report.deliveries = list(self.deliveries)

        # --- sequencing (property 3): in-order, gap-free, no duplicates --------
        for p in correct_set:
            seqs = [d.seq for d in by_receiver[p]]
            for i, s in enumerate(seqs):
                if s != i + 1:
                    report.sequencing_violations.append(
                        f"process {p} delivery #{i + 1} has seq {s} "
                        f"(full order: {seqs})"
                    )
                    break

        # --- agreement part 1: no two correct processes disagree on a seq ------
        value_of: dict[SeqNum, tuple[ProcessId, Any]] = {}
        for p in correct_set:
            for d in by_receiver[p]:
                if d.seq in value_of:
                    q, v = value_of[d.seq]
                    if v != d.value:
                        report.agreement_violations.append(
                            f"seq {d.seq}: process {q} delivered {v!r} but "
                            f"process {p} delivered {d.value!r}"
                        )
                else:
                    value_of[d.seq] = (p, d.value)

        # set-indexed views of each receiver's stream: the relay/validity
        # audits below are membership tests, not linear rescans per seq
        # (identical verdicts — ``(seq, value) in pairs`` is exactly
        # ``any(d.seq == seq and d.value == value)``)
        seqs_of = {p: {d.seq for d in by_receiver[p]} for p in correct_set}
        try:
            pairs_of = {
                p: {(d.seq, d.value) for d in by_receiver[p]} for p in correct_set
            }
        except TypeError:  # unhashable payloads: keep the linear-scan audit
            pairs_of = None

        # --- agreement part 2 (relay, liveness): all-or-nothing per seq --------
        if self.expect_complete:
            for seq, (q, v) in sorted(value_of.items()):
                for p in correct_set:
                    if seq not in seqs_of[p]:
                        report.agreement_violations.append(
                            f"seq {seq}: delivered by process {q} but never by "
                            f"process {p}"
                        )

        # --- validity (property 1) -----------------------------------------------
        if self.sender_correct and self.expect_complete:
            for seq, value in report.broadcasts:
                for p in correct_set:
                    delivered = (
                        (seq, value) in pairs_of[p]
                        if pairs_of is not None
                        else any(
                            d.seq == seq and d.value == value
                            for d in by_receiver[p]
                        )
                    )
                    if not delivered:
                        report.validity_violations.append(
                            f"sender broadcast ({seq}, {value!r}) but process {p} "
                            "did not deliver it"
                        )

        # --- integrity (property 4) ------------------------------------------------
        broadcast_set = set(report.broadcasts)
        for p in correct_set:
            for d in by_receiver[p]:
                if (d.seq, d.value) not in broadcast_set:
                    if self.sender_correct:
                        report.integrity_violations.append(
                            f"process {p} delivered ({d.seq}, {d.value!r}) which the "
                            "correct sender never broadcast"
                        )
                    elif not any(v == d.value for (_s, v) in report.broadcasts):
                        report.integrity_violations.append(
                            f"process {p} delivered ({d.seq}, {d.value!r}); the "
                            "Byzantine sender never even produced that value"
                        )
        return report


class SRBLivenessChecker(DeadlineChecker):
    """Streaming post-GST delivery-liveness auditor for SRB streams.

    Every ``bcast`` recorded by a fault-free process at time ``t`` owes a
    matching ``bcast_deliver`` at every fault-free receiver by
    ``max(t, gst) + bound`` — the timed refinement of SRB validity under
    partial synchrony. Before GST nothing is owed; a broadcast sent in the
    chaotic era's deadline simply starts at GST. The deadline plumbing —
    batch path, ``fail_fast``, report, ``unresolved`` obligations past the
    end of the run — is :class:`~repro.sim.liveness.DeadlineChecker`'s.
    """

    def __init__(
        self,
        gst: Time,
        bound: float,
        fault_free: Iterable[ProcessId],
        fail_fast: bool = False,
    ) -> None:
        if bound <= 0:
            raise ConfigurationError(f"bound must be > 0, got {bound}")
        super().__init__(gst, fail_fast)
        self.bound = bound
        self.fault_free = sorted(set(fault_free))
        self._ff_set = set(self.fault_free)

    # -- streaming ---------------------------------------------------------

    prop = "SRB-liveness-stream"
    kinds = frozenset({BCAST, BCAST_DELIVER})

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == BCAST and ev.pid in self._ff_set:
            self._expire(ev)
            seq, value = ev.field("seq"), ev.field("value")
            for receiver in self.fault_free:
                self._arm(
                    ("dlv", ev.pid, seq, receiver),
                    ev.time,
                    self.bound,
                    f"broadcast #{seq} by fault-free sender {ev.pid} "
                    f"(t={ev.time:g}, {value!r}) never delivered by "
                    f"fault-free process {receiver}",
                )
        elif ev.kind == BCAST_DELIVER and ev.pid in self._ff_set:
            self._expire(ev)
            self._satisfy(("dlv", ev.field("sender"), ev.field("seq"), ev.pid))


def check_srb_liveness(
    trace: TraceStore,
    gst: Time,
    bound: float,
    fault_free: Iterable[ProcessId],
    end_time: Optional[Time] = None,
) -> LivenessReport:
    """Batch post-GST delivery-liveness audit (same core as streaming)."""
    return (
        SRBLivenessChecker(gst=gst, bound=bound, fault_free=fault_free)
        .consume(trace)
        .finish(end_time=end_time)
    )


def check_srb(
    trace: TraceStore,
    sender: ProcessId,
    correct: Iterable[ProcessId],
    sender_correct: bool = True,
    expect_complete: bool = True,
) -> SRBReport:
    """Audit the four SRB properties for ``sender``'s stream (batch mode).

    ``expect_complete=True`` treats the run as long enough that every
    "eventually" should have resolved; set it False for truncated runs
    (then only safety — agreement consistency, sequencing, integrity —
    is checked, not liveness).

    With a Byzantine sender (``sender_correct=False``) validity is not
    required and integrity is checked against the union of values the
    Byzantine code *recorded* as broadcast (our Byzantine senders attest
    whatever they send; a value delivered that was never even recorded
    means forged provenance — always a violation).
    """
    return (
        SRBStreamChecker(
            sender,
            correct,
            sender_correct=sender_correct,
            expect_complete=expect_complete,
        )
        .consume(trace)
        .finish()
    )


def deliveries_by_process(
    trace: TraceStore, sender: ProcessId
) -> dict[ProcessId, list[tuple[SeqNum, Any]]]:
    """Convenience: per-receiver ordered (seq, value) lists for ``sender``."""
    out: dict[ProcessId, list[tuple[SeqNum, Any]]] = {}
    for d in trace.broadcast_deliveries():
        if d.sender == sender:
            out.setdefault(d.receiver, []).append((d.seq, d.value))
    return out
