"""MinBFT view-change evidence: tamper-evident USIG message logs.

MinBFT's view change survives ``n = 2f+1`` because of a property unique to
the trusted-hardware setting: a replica's VIEW-CHANGE message carries its
**entire sent-message log**, and the log is *tamper-evident by gap
checking* — every message a replica ever sent consumed one consecutive
USIG counter value, and the VIEW-CHANGE itself carries the next counter,
so a log that omits or alters any past message cannot verify. A Byzantine
replica can stop talking, but it cannot rewrite its history.

That is what fixes the classic quorum-intersection gap: a committed
request has f+1 COMMITs and the new-view quorum has f+1 VIEW-CHANGEs, so
they may intersect in a *single, possibly Byzantine* replica — which is
harmless here, because even that replica's log must faithfully contain its
COMMIT.

This module holds the pure functions: log verification, and the
deterministic computation of the re-proposal set S that both the new
primary and every backup derive independently from the same f+1 logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..types import ProcessId, SeqNum
from .usig import UI, USIGVerifier, ui_like


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One sent message with the UI that certified it."""

    message: tuple
    ui: UI


def verify_log_from(
    verifier: USIGVerifier,
    replica: ProcessId,
    log: Any,
    start_counter: SeqNum,
    end_counter: SeqNum,
) -> Optional[list[LogEntry]]:
    """Validate a sent-log suffix claimed by ``replica``.

    Checks every entry's UI and that counters run
    ``start_counter..end_counter-1`` with no gaps (``end_counter`` is the
    VIEW-CHANGE message's own UI counter; ``start_counter`` is 1 for a full
    log, or one past the replica's checkpointed counter after garbage
    collection). Returns the entries, or None if anything is off.
    """
    if not isinstance(log, tuple):
        return None
    if len(log) != end_counter - start_counter:
        return None
    entries: list[LogEntry] = []
    for i, raw in enumerate(log, start=start_counter):
        if not (isinstance(raw, tuple) and len(raw) == 2):
            return None
        message, ui = raw
        if not ui_like(ui) or ui.counter != i:
            return None
        if not verifier.verify_ui(ui, message, replica):
            return None
        entries.append(LogEntry(message=message, ui=ui))
    return entries


@dataclass(frozen=True, slots=True)
class SlotCandidate:
    """A (view, request) claim for one sequence slot, with its PREPARE UI."""

    view: int
    prepare_counter: SeqNum
    request: Any

    def beats(self, other: "SlotCandidate") -> bool:
        """Priority rule: higher view wins; within a view the *earlier*
        PREPARE (lower primary counter) wins — correct replicas accepted the
        UI-order-first PREPARE, so the later one can only have Byzantine
        support."""
        if self.view != other.view:
            return self.view > other.view
        return self.prepare_counter < other.prepare_counter


def extract_candidates(entries: list[LogEntry]) -> dict[SeqNum, SlotCandidate]:
    """The best slot claim per sequence number among the entries' PREPAREs
    and COMMITs (one replica's log, or several logs one after another)."""
    out: dict[SeqNum, SlotCandidate] = {}

    def offer(seq: SeqNum, cand: SlotCandidate) -> None:
        cur = out.get(seq)
        if cur is None or cand.beats(cur):
            out[seq] = cand

    for entry in entries:
        m = entry.message
        if not (isinstance(m, tuple) and m and isinstance(m[0], str)):
            continue
        if m[0] == "PREPARE" and len(m) == 4:
            _, view, seq, request = m
            if isinstance(view, int) and isinstance(seq, int):
                offer(seq, SlotCandidate(view, entry.ui.counter, request))
        elif m[0] == "COMMIT" and len(m) == 5:
            _, view, seq, request, prepare_ui = m
            if (
                isinstance(view, int)
                and isinstance(seq, int)
                and ui_like(prepare_ui)
            ):
                offer(seq, SlotCandidate(view, prepare_ui.counter, request))
    return out


def compute_reproposals(
    logs: dict[ProcessId, list[LogEntry]],
) -> dict[SeqNum, SlotCandidate]:
    """The deterministic re-proposal set S from f+1 verified logs.

    For each slot, the best candidate under :meth:`SlotCandidate.beats`
    across all logs (the first in log order among equals). The new primary
    and every backup compute it from the same NEW-VIEW bundle; a backup
    accepts only PREPAREs that match it in the new view.
    """
    return extract_candidates(
        [entry for entries in logs.values() for entry in entries]
    )
