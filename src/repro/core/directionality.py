"""Directionality checkers: bidirectional / unidirectional / zero-directional.

The paper's central definitions (Section 3.2 and the draft's "Old stuff"
section) quantify, for rounds, how much communication between pairs of
correct processes is guaranteed:

- **bidirectional**: if p sends to q in round r, q receives p's round-r
  message before q begins round r+1;
- **unidirectional**: if p and q both send in round r, at least one of them
  receives the other's round-r message before its own round r ends;
- **zero-directional**: neither direction is guaranteed.

These are properties of *systems* (all schedules), so a single trace can
refute a level but never prove it. The checker therefore reports, per
trace: which levels were *violated*, and the strongest level *consistent
with* the trace. Benches run many adversarial schedules and aggregate.

Both checking modes share one incremental core
(:class:`DirectionalityStreamChecker`): batch :func:`check_directionality`
replays a finished trace through it; attached as a live
:class:`~repro.sim.trace.TraceObserver` with ``fail_fast=True`` the same
core detects violations online — a directionality violation is permanent
the moment the relevant ``round_end`` passes without the required receipt,
so the run aborts at that exact event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import PropertyViolation
from ..sim.trace import (
    ROUND_END,
    ROUND_RECV,
    ROUND_SENT,
    StreamChecker,
    TraceEvent,
    TraceStore,
)
from ..types import ProcessId, RoundId

BIDIRECTIONAL = "bidirectional"
UNIDIRECTIONAL = "unidirectional"
ZERO_DIRECTIONAL = "zero-directional"


@dataclass(frozen=True, slots=True)
class PairViolation:
    """A pair of correct processes and a round where a guarantee failed."""

    p: ProcessId
    q: ProcessId
    round: RoundId
    detail: str

    def __str__(self) -> str:
        return f"pair ({self.p}, {self.q}) round {self.round}: {self.detail}"


@dataclass(slots=True)
class DirectionalityReport:
    """Result of checking one trace."""

    rounds_checked: int = 0
    pairs_checked: int = 0
    bidirectional_violations: list[PairViolation] = field(default_factory=list)
    unidirectional_violations: list[PairViolation] = field(default_factory=list)

    @property
    def is_bidirectional(self) -> bool:
        """No bidirectional violation observed (necessary, not sufficient)."""
        return not self.bidirectional_violations

    @property
    def is_unidirectional(self) -> bool:
        return not self.unidirectional_violations

    def classify(self) -> str:
        """Strongest directionality level consistent with this trace."""
        if self.is_bidirectional:
            return BIDIRECTIONAL
        if self.is_unidirectional:
            return UNIDIRECTIONAL
        return ZERO_DIRECTIONAL

    def assert_unidirectional(self) -> None:
        if self.unidirectional_violations:
            raise PropertyViolation(
                "unidirectionality",
                f"{self.unidirectional_violations[0]} "
                f"(+{len(self.unidirectional_violations) - 1} more)",
            )


@dataclass(frozen=True, slots=True)
class _RoundView:
    """What one process did in one of its rounds, in trace-index terms."""

    sent_index: Optional[int]  # None: participated without sending
    end_index: Optional[int]  # None: round never completed in this trace
    received_from: dict[ProcessId, int]  # src -> first receive index for this round


class DirectionalityStreamChecker(StreamChecker):
    """Incremental round-view collection shared by batch and streaming modes.

    Maintains first-occurrence ``round_sent`` / ``round_end`` /
    ``round_recv`` indexes per ``(pid, round)`` as events arrive —
    equivalent state to the pre-refactor whole-trace ``_collect`` scan.
    :meth:`finish` then runs the pair/round audit over the collected views
    and produces the exact same report as the old batch checker.

    With ``fail_fast=True`` the checker also evaluates obligations online,
    at the events where they become *definite*: a ``round_end`` that passes
    without the required receipt (later receives carry higher trace
    indexes, so they cannot retroactively satisfy the obligation), or a
    straggling ``round_sent`` arriving after the peer's round already
    ended. :meth:`finish` remains authoritative for the full report.
    Each finding is a :class:`PairViolation`; a bidirectional miss is
    recorded but never fatal — the property checked is unidirectionality.
    """

    def __init__(
        self, correct: Iterable[ProcessId], fail_fast: bool = False
    ) -> None:
        super().__init__(fail_fast)
        self.correct = sorted(set(correct))
        self._pidset = set(self.correct)
        self.sent: dict[tuple[ProcessId, RoundId], int] = {}
        self.ended: dict[tuple[ProcessId, RoundId], int] = {}
        self.received: dict[tuple[ProcessId, RoundId], dict[ProcessId, int]] = {}
        self.round_order: dict[RoundId, None] = {}

    # -- streaming ---------------------------------------------------------

    prop = "unidirectionality-stream"
    kinds = frozenset({ROUND_SENT, ROUND_END, ROUND_RECV})

    def on_event(self, ev: TraceEvent) -> None:
        if ev.pid not in self._pidset:
            return
        if ev.kind == ROUND_SENT:
            r = ev.field("round")
            self.round_order.setdefault(r, None)
            if (ev.pid, r) not in self.sent:
                self.sent[(ev.pid, r)] = ev.index
                if self.fail_fast:
                    self._check_late_send(ev, ev.pid, r)
        elif ev.kind == ROUND_END:
            r = ev.field("round")
            self.round_order.setdefault(r, None)
            if (ev.pid, r) not in self.ended:
                self.ended[(ev.pid, r)] = ev.index
                if self.fail_fast:
                    self._check_round_end(ev, ev.pid, r)
        elif ev.kind == ROUND_RECV:
            r = ev.field("round")
            self.round_order.setdefault(r, None)
            src = ev.field("src")
            self.received.setdefault((ev.pid, r), {}).setdefault(src, ev.index)

    def _got_in_round(self, p: ProcessId, r: RoundId, src: ProcessId) -> bool:
        got = self.received.get((p, r), {}).get(src)
        if got is None:
            return False
        end = self.ended.get((p, r))
        return end is None or got <= end

    def _check_round_end(self, ev: TraceEvent, p: ProcessId, r: RoundId) -> None:
        # p's round r just ended; any sender already on record whose message
        # p has not received in-round is now a definite bidirectional miss.
        for s in self.correct:
            if s == p or (s, r) not in self.sent:
                continue
            if not self._got_in_round(p, r, s):
                self._flag(
                    ev,
                    PairViolation(
                        s, p, r, f"{p} ended round {r} without {s}'s message"
                    ),
                    bidirectional=True,
                )
        # unidirectional: pairs where both sent and both have now ended with
        # neither having heard the other in-round.
        if (p, r) not in self.sent:
            return
        for q in self.correct:
            if q == p or (q, r) not in self.sent or (q, r) not in self.ended:
                continue
            if not self._got_in_round(p, r, q) and not self._got_in_round(q, r, p):
                a, b = (p, q) if p < q else (q, p)
                self._flag(
                    ev,
                    PairViolation(
                        a,
                        b,
                        r,
                        "neither process received the other's round "
                        f"{r} message before its round ended",
                    ),
                    bidirectional=False,
                )

    def _check_late_send(self, ev: TraceEvent, s: ProcessId, r: RoundId) -> None:
        # s's first round-r send arrived after some peers already ended round
        # r — those peers can no longer have received it in-round.
        for p in self.correct:
            if p == s or (p, r) not in self.ended:
                continue
            if not self._got_in_round(p, r, s):
                self._flag(
                    ev,
                    PairViolation(
                        s, p, r, f"{p} ended round {r} without {s}'s message"
                    ),
                    bidirectional=True,
                )

    def _flag(
        self, ev: TraceEvent, violation: PairViolation, bidirectional: bool
    ) -> None:
        if bidirectional:
            self.online_violations.append((ev.index, violation))
        else:
            super()._flag(ev, violation)

    # -- final audit -------------------------------------------------------

    def views(self) -> dict[ProcessId, dict[RoundId, _RoundView]]:
        out: dict[ProcessId, dict[RoundId, _RoundView]] = {
            p: {} for p in self.correct
        }
        keys = set(self.sent) | set(self.ended) | set(self.received)
        for p, r in keys:
            out[p][r] = _RoundView(
                sent_index=self.sent.get((p, r)),
                end_index=self.ended.get((p, r)),
                received_from=self.received.get((p, r), {}),
            )
        return out

    def finish(self) -> DirectionalityReport:
        """Audit the collected views; identical to the pre-refactor scan."""
        correct = self.correct
        views = self.views()
        report = DirectionalityReport()
        # labels may be any hashable; preserve first-appearance order
        all_rounds = list(
            dict.fromkeys(
                r for r in self.round_order
                if any(r in views[p] for p in correct)
            )
        )
        report.rounds_checked = len(all_rounds)

        for i, p in enumerate(correct):
            for q in correct[i + 1 :]:
                for r in all_rounds:
                    vp = views[p].get(r)
                    vq = views[q].get(r)
                    # --- bidirectional obligations (one-sided) ---
                    for sender, receiver, vs, vr in ((p, q, vp, vq), (q, p, vq, vp)):
                        if vs is None or vs.sent_index is None:
                            continue
                        if vr is None or vr.end_index is None:
                            continue
                        got = vr.received_from.get(sender)
                        if got is None or got > vr.end_index:
                            report.bidirectional_violations.append(
                                PairViolation(
                                    sender,
                                    receiver,
                                    r,
                                    f"{receiver} ended round {r} without {sender}'s message",
                                )
                            )
                    # --- unidirectional obligation (both sent) ---
                    if vp is None or vq is None:
                        continue
                    if vp.sent_index is None or vq.sent_index is None:
                        continue
                    report.pairs_checked += 1
                    p_ok = _received_in_round(vp, q)
                    q_ok = _received_in_round(vq, p)
                    if not p_ok and not q_ok:
                        # obligation only binds if both rounds actually ended
                        if vp.end_index is not None and vq.end_index is not None:
                            report.unidirectional_violations.append(
                                PairViolation(
                                    p,
                                    q,
                                    r,
                                    "neither process received the other's round "
                                    f"{r} message before its round ended",
                                )
                            )
        return report


def check_directionality(
    trace: TraceStore, correct: Iterable[ProcessId]
) -> DirectionalityReport:
    """Check one trace against the three directionality definitions.

    Only rounds in which **both** processes of a pair sent are examined
    (that is the paper's premise for unidirectionality); the bidirectional
    check additionally covers the one-sided case — if p sent in round r and
    q completed its round r without hearing p, bidirectionality is violated
    regardless of whether q sent.

    Rounds that a process never completed (trace ended first) impose no
    obligation on that process but still witness receipt for the other side.
    """
    return DirectionalityStreamChecker(correct).consume(trace).finish()


def _received_in_round(view: _RoundView, src: ProcessId) -> bool:
    got = view.received_from.get(src)
    if got is None:
        return False
    return view.end_index is None or got <= view.end_index
