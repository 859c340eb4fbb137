"""Retained whole-run directionality checker: the differential reference.

This is :class:`~repro.core.directionality.DirectionalityStreamChecker` as
it stood before rounds were settled during the run: it keeps the
first-occurrence ``round_sent`` / ``round_end`` / ``round_recv`` indexes of
every ``(pid, round)`` until :meth:`finish`, which rebuilds each round's
view and audits every pair over every round. It is kept as the oracle of
``tests/test_directionality_differential.py``, which feeds this checker and
the production one the same traces and asserts equal reports and equal
online findings.

Do not optimize this file. Behavioural fixes must be applied to both
checkers (and are a red flag: the point of the pair is that the verdict
never changes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.directionality import DirectionalityReport, PairViolation
from repro.sim.trace import (
    ROUND_END,
    ROUND_RECV,
    ROUND_SENT,
    StreamChecker,
    TraceEvent,
)
from repro.types import ProcessId, RoundId


@dataclass(frozen=True, slots=True)
class _RoundView:
    """What one process did in one of its rounds, in trace-index terms."""

    sent_index: Optional[int]  # None: participated without sending
    end_index: Optional[int]  # None: round never completed in this trace
    received_from: dict[ProcessId, int]  # src -> first receive index for this round


class ReferenceDirectionalityChecker(StreamChecker):
    """The whole-run checker: every round's state is kept until ``finish``."""

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
        correct = self.correct
        views = self.views()
        report = DirectionalityReport()
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
                    if vp is None or vq is None:
                        continue
                    if vp.sent_index is None or vq.sent_index is None:
                        continue
                    report.pairs_checked += 1
                    p_ok = _received_in_round(vp, q)
                    q_ok = _received_in_round(vq, p)
                    if not p_ok and not q_ok:
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


def _received_in_round(view: _RoundView, src: ProcessId) -> bool:
    got = view.received_from.get(src)
    if got is None:
        return False
    return view.end_index is None or got <= view.end_index
