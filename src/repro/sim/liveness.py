"""Deadline bookkeeping shared by the streaming liveness auditors.

Safety checkers flag events that *happened* wrongly; liveness checkers must
flag events that *failed to happen* by some bound. The streaming form of
that is a deadline heap: each obligation ("request r completes", "view
change to v terminates at replica p", "broadcast #s reaches receiver q")
registers a key and an absolute deadline; each observed event first
advances virtual time, expiring every obligation whose deadline passed —
a *permanent* violation, since the obligation was for a time range now in
the past — and then may satisfy obligations.

Batch and streaming verdicts are identical by construction: the batch path
replays the recorded trace through the same monitor in event order, and
:meth:`DeadlineMonitor.flush` expires obligations whose deadlines fall
before the end of the observed run. Obligations whose deadlines lie
*beyond* the end of the run are reported as ``unresolved`` rather than
violated — the run simply did not last long enough to judge them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Hashable, Optional

from ..errors import PropertyViolation
from ..types import Time
from .trace import StreamChecker, TraceEvent

__all__ = ["DeadlineChecker", "DeadlineMonitor", "LivenessReport", "Obligation"]


@dataclass(slots=True)
class LivenessReport:
    """Verdict of a deadline-based liveness audit."""

    violations: list[str] = field(default_factory=list)
    unresolved: list[str] = field(default_factory=list)
    obligations_armed: int = 0
    obligations_satisfied: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_ok(self) -> None:
        if not self.ok:
            raise PropertyViolation("liveness", "; ".join(self.violations[:3]))


class Obligation:
    """One pending liveness obligation (slots; thousands may be live)."""

    __slots__ = ("key", "deadline", "message", "done")

    def __init__(self, key: Hashable, deadline: Time, message: str):
        self.key = key
        self.deadline = deadline
        self.message = message
        self.done = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Obligation({self.key!r}, by={self.deadline}, done={self.done})"


class DeadlineMonitor:
    """A heap of keyed obligations with lazy-deletion satisfaction.

    - :meth:`expect` registers an obligation (re-registering a live key
      replaces its deadline — the laxer of the two wins, so repeated
      ``expect`` calls cannot tighten an already-promised bound);
    - :meth:`satisfy` discharges a key (no-op if absent — liveness events
      may be reported more than once);
    - :meth:`advance` pops every obligation whose deadline is strictly
      before ``now`` and returns them as violations;
    - :meth:`flush` does the same for an end-of-run time and additionally
      reports the still-pending tail as unresolved.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[Time, int, Obligation]] = []
        self._live: dict[Hashable, Obligation] = {}
        self._seq = 0  # FIFO tiebreak for equal deadlines → deterministic order

    def __len__(self) -> int:
        return len(self._live)

    def pending(self) -> list[Obligation]:
        """Live obligations, soonest deadline first (for reports/tests)."""
        return sorted(self._live.values(), key=lambda o: (o.deadline, o.message))

    def expect(self, key: Hashable, deadline: Time, message: str) -> None:
        prior = self._live.get(key)
        if prior is not None:
            if deadline <= prior.deadline:
                return
            prior.done = True  # superseded; lazy-deleted from the heap
        ob = Obligation(key, deadline, message)
        self._live[key] = ob
        heapq.heappush(self._heap, (deadline, self._seq, ob))
        self._seq += 1

    def satisfy(self, key: Hashable) -> bool:
        ob = self._live.pop(key, None)
        if ob is None:
            return False
        ob.done = True
        return True

    def advance(self, now: Time) -> list[Obligation]:
        """Expire obligations with ``deadline < now``; they are permanent."""
        expired: list[Obligation] = []
        heap = self._heap
        while heap and heap[0][0] < now:
            _, _, ob = heapq.heappop(heap)
            if ob.done:
                continue
            self._live.pop(ob.key, None)
            expired.append(ob)
        return expired

    def flush(self, end_time: Optional[Time]) -> tuple[list[Obligation], list[Obligation]]:
        """End-of-run audit: ``(violated, unresolved)``.

        ``violated`` are obligations due strictly before ``end_time``;
        ``unresolved`` are the rest — the run ended before their deadline,
        so no verdict is possible. ``end_time=None`` treats everything
        still pending as unresolved (no final clock available).
        """
        violated = self.advance(end_time) if end_time is not None else []
        unresolved = self.pending()
        for ob in unresolved:
            ob.done = True
        self._live.clear()
        self._heap.clear()
        return violated, unresolved


class DeadlineChecker(StreamChecker):
    """Base of the streaming post-GST liveness auditors.

    Owns what they share: one :class:`DeadlineMonitor`, the ``armed`` /
    ``satisfied`` counters and the end-of-run report. A subclass declares
    ``kinds`` and an ``on_event`` that calls :meth:`_expire` (which advances
    virtual time to the event) and then :meth:`_arm` / :meth:`_satisfy`.
    Nothing is owed before ``gst``: an obligation armed at ``start`` is due
    by ``max(start, gst) + bound``. An expired deadline is permanent, so it
    is a :meth:`_flag` finding — with ``fail_fast=True`` the run aborts at
    the first event whose timestamp proves it.
    """

    def __init__(self, gst: Time, fail_fast: bool = False) -> None:
        super().__init__(fail_fast)
        self.gst = gst
        self.monitor = DeadlineMonitor()
        self.armed = 0
        self.satisfied = 0

    def _arm(self, key: Hashable, start: Time, bound: float, message: str) -> None:
        self.monitor.expect(key, max(start, self.gst) + bound, message)
        self.armed += 1

    def _satisfy(self, key: Hashable) -> None:
        if self.monitor.satisfy(key):
            self.satisfied += 1

    def _expire(self, ev: TraceEvent) -> None:
        for ob in self.monitor.advance(ev.time):
            self._flag(ev, ob.message)

    def finish(self, end_time: Optional[Time] = None) -> LivenessReport:
        """Online expiries, then those due before ``end_time``; obligations
        due after it are ``unresolved``."""
        violated, unresolved = self.monitor.flush(end_time)
        return LivenessReport(
            violations=[m for _, m in self.online_violations]
            + [ob.message for ob in violated],
            unresolved=[ob.message for ob in unresolved],
            obligations_armed=self.armed,
            obligations_satisfied=self.satisfied,
        )
