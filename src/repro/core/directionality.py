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
core detects unidirectionality violations online — one is permanent the
moment the relevant ``round_end`` passes without the required receipt, so
the run aborts at that exact event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

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


class DirectionalityStreamChecker(StreamChecker):
    """Incremental round-view collection shared by batch and streaming modes.

    Maintains first-occurrence ``round_sent`` / ``round_end`` /
    ``round_recv`` indexes per ``(pid, round)`` as events arrive, and
    *settles* a round once every correct process has both sent and ended
    it: no later event can change that round's verdict (only first
    occurrences count, and a later receive is past the round's end
    either way). Settling audits the round's pairs, files each finding
    under its (pair, round ordinal, direction) key, drops the round's
    indexes and keeps only its label, so late events for it are ignored.
    What the checker holds is the open rounds; what grows with the run is
    one label per settled round and the findings themselves. :meth:`finish`
    audits the rounds still open with the same per-round code and sorts
    the findings, so its report is the whole-trace scan's, list order
    included.

    With ``fail_fast=True`` the checker also raises online, at the
    ``round_end`` that makes a unidirectional miss definite: both processes
    sent and have now ended round r, and neither received the other's
    message in-round (later receives carry higher trace indexes, so they
    cannot retroactively satisfy the obligation). Bidirectional misses are
    never fatal — the property checked is unidirectionality — so they are
    left to :meth:`finish`, which remains authoritative for the full report.
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
        # open round -> [ordinal, first sends/ends still missing, the label
        # as it first appeared (an equal label may arrive as another type)]
        self._open: dict[RoundId, list] = {}
        self._settled: set[RoundId] = set()
        # settled rounds' findings, as their sort keys plus the label (the
        # violation is built by finish), and their pair count
        self._bidi: list[tuple] = []
        self._uni: list[tuple] = []
        self._pairs_checked = 0

    # -- streaming ---------------------------------------------------------

    prop = "unidirectionality-stream"
    kinds = frozenset({ROUND_SENT, ROUND_END, ROUND_RECV})

    def on_event(self, ev: TraceEvent) -> None:
        p, kind = ev.pid, ev.kind
        if p not in self._pidset:
            return
        if kind == ROUND_SENT:
            first = self.sent
        elif kind == ROUND_END:
            first = self.ended
        elif kind != ROUND_RECV:
            return
        r = ev.field("round")
        if r in self._settled:
            return
        opened = self._open.get(r)
        if opened is None:
            opened = self._open[r] = [
                len(self._open) + len(self._settled), 2 * len(self.correct), r
            ]
        if kind == ROUND_RECV:
            self.received.setdefault((p, r), {}).setdefault(ev.field("src"), ev.index)
            return
        if (p, r) in first:
            return
        first[(p, r)] = ev.index
        opened[1] -= 1
        if self.fail_fast and kind == ROUND_END:
            self._check_round_end(ev, p, r)
        if not opened[1]:
            self._settle(opened[2], opened[0])

    def _got_in_round(self, p: ProcessId, r: RoundId, src: ProcessId) -> bool:
        got = self.received.get((p, r), {}).get(src)
        if got is None:
            return False
        end = self.ended.get((p, r))
        return end is None or got <= end

    def _check_round_end(self, ev: TraceEvent, p: ProcessId, r: RoundId) -> None:
        # p's round r just ended: a pair where both sent and both have now
        # ended with neither having heard the other in-round is a definite
        # unidirectional miss.
        if (p, r) not in self.sent:
            return
        for q in self.correct:
            if q == p or (q, r) not in self.sent or (q, r) not in self.ended:
                continue
            if not self._got_in_round(p, r, q) and not self._got_in_round(q, r, p):
                a, b = (p, q) if p < q else (q, p)
                self._flag(ev, PairViolation(
                    a, b, r, "neither process received the other's round "
                    f"{r} message before its round ended"))

    # -- audit -------------------------------------------------------------

    def _settle(self, r: RoundId, ordinal: int) -> None:
        """Audit round ``r``, which every correct process sent and ended,
        then forget all of it but its label."""
        self._pairs_checked += self._audit(r, ordinal, self._bidi, self._uni)
        del self._open[r]
        self._settled.add(r)
        for p in self.correct:
            del self.sent[(p, r)], self.ended[(p, r)]
            self.received.pop((p, r), None)

    def _audit(self, r: RoundId, ordinal: int, bidi: list, uni: list) -> int:
        """Every pair's obligations in round ``r``; appends each finding
        as its (pair, ordinal[, direction]) key and the label, and returns
        the number of pairs in which both processes sent."""
        correct, sent, ended = self.correct, self.sent, self.ended
        pairs = 0
        for i, p in enumerate(correct):
            for j in range(i + 1, len(correct)):
                q = correct[j]
                # --- bidirectional obligations (one-sided) ---
                for slot, (s, v) in enumerate(((p, q), (q, p))):
                    if ((s, r) in sent and (v, r) in ended
                            and not self._got_in_round(v, r, s)):
                        bidi.append((i, j, ordinal, slot, r))
                # --- unidirectional obligation (both sent) ---
                if (p, r) not in sent or (q, r) not in sent:
                    continue
                pairs += 1
                # the obligation only binds if both rounds actually ended
                if ((p, r) in ended and (q, r) in ended
                        and not self._got_in_round(p, r, q)
                        and not self._got_in_round(q, r, p)):
                    uni.append((i, j, ordinal, r))
        return pairs

    def finish(self) -> DirectionalityReport:
        """The settled rounds' findings plus an audit of the open ones, in
        pair, round and direction order: the whole-trace scan's report."""
        bidi, uni = list(self._bidi), list(self._uni)
        pairs = self._pairs_checked
        for ordinal, _, r in self._open.values():
            pairs += self._audit(r, ordinal, bidi, uni)
        report = DirectionalityReport(
            rounds_checked=len(self._open) + len(self._settled),
            pairs_checked=pairs,
        )
        c = self.correct
        # the keys are unique, so sorting never compares two labels
        for i, j, _, slot, r in sorted(bidi):
            s, v = (c[j], c[i]) if slot else (c[i], c[j])
            report.bidirectional_violations.append(PairViolation(
                s, v, r, f"{v} ended round {r} without {s}'s message"))
        for i, j, _, r in sorted(uni):
            report.unidirectional_violations.append(PairViolation(
                c[i], c[j], r, "neither process received the other's round "
                f"{r} message before its round ended"))
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

