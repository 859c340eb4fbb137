"""Event types for the discrete-event scheduler.

Every behavior in a simulation — message delivery, timer expiry, a shared
memory operation reaching its linearization point, a response arriving back
at its invoker — is an :class:`Event` on the scheduler's heap. Events are
ordered by ``(time, seq)``; ``seq`` is a global creation counter that makes
tie-breaking deterministic and FIFO for same-time events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..types import ProcessId, Time


@dataclass(frozen=True, slots=True)
class MessageDeliver:
    """Deliver ``msg`` from ``src`` to ``dst`` (calls ``dst.on_message``).

    ``duplicate`` marks adversary-injected extra copies of an already
    scheduled delivery; the network counts them separately so delivery
    ratios stay meaningful under at-least-once adversaries.
    """

    src: ProcessId
    dst: ProcessId
    msg: Any
    send_time: Time
    duplicate: bool = False


@dataclass(frozen=True, slots=True)
class TimerFire:
    """Fire timer ``tag`` at process ``pid`` (calls ``on_timer``)."""

    pid: ProcessId
    tag: Any
    timer_id: int


@dataclass(frozen=True, slots=True)
class OpLinearize:
    """A shared-memory operation reaches its atomic linearization point."""

    pid: ProcessId
    handle: int
    object_name: str
    op: str
    args: tuple


@dataclass(frozen=True, slots=True)
class OpRespond:
    """The response of a linearized shared-memory operation reaches its invoker."""

    pid: ProcessId
    handle: int
    object_name: str
    op: str
    result: Any


@dataclass(frozen=True, slots=True)
class Callback:
    """Run an arbitrary zero-argument function (used by scenario scripts).

    ``pid`` attributes the callback to a process (the crash target, the
    delivery receiver) so the model checker can compute independence;
    ``choice`` marks it as a *schedulable choice* — a transition the
    bounded model checker may reorder against other choices (oracle
    deliveries, scripted crashes). Both are ignored by the normal
    heap-ordered run loop.
    """

    fn: Callable[[], None]
    label: str = ""
    pid: ProcessId | None = None
    choice: bool = False


Payload = MessageDeliver | TimerFire | OpLinearize | OpRespond | Callback


def is_choice(payload: Payload) -> bool:
    """Is this payload a reorderable transition for controlled-schedule mode?

    Message deliveries and timer firings are the adversary's levers in the
    asynchronous model; callbacks opt in via ``choice=True`` (SRB-oracle
    deliveries, scripted crashes). Linearization/response events and plain
    scenario callbacks stay *forced*: they dispatch in deterministic
    ``(time, seq)`` order between choices.
    """
    if isinstance(payload, (MessageDeliver, TimerFire)):
        return True
    return isinstance(payload, Callback) and payload.choice


def choice_target(payload: Payload) -> ProcessId | None:
    """The process whose state a transition touches (independence domain).

    Two transitions with different targets commute (delivering to p cannot
    affect q's next step); same-target transitions conflict. ``None`` means
    "unknown — treat as dependent with everything".
    """
    if isinstance(payload, MessageDeliver):
        return payload.dst
    if isinstance(payload, TimerFire):
        return payload.pid
    if isinstance(payload, (OpLinearize, OpRespond)):
        return payload.pid
    if isinstance(payload, Callback):
        return payload.pid
    return None  # pragma: no cover - exhaustive over Payload union


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled occurrence. Ordering compares only ``(time, seq)``.

    ``__lt__``/``__eq__`` are hand-written rather than dataclass-generated:
    the generated comparators build a ``(time, seq)`` tuple per operand per
    comparison, and heap sift operations run one comparison per level — on
    10^6-event runs the tuple churn alone was a measurable slice of the
    loop. Semantics are identical to the old ``order=True`` pair.
    """

    time: Time
    seq: int
    payload: Payload = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    queued: bool = field(default=True, compare=False)
    """Logically pending (scheduled, not yet dispatched or drained).
    Cleared on every logical removal — dispatch, tombstone drain,
    compaction, controlled-mode ``step`` — so ``Scheduler.cancel`` can
    distinguish a pending event from one that already fired and keep its
    live/tombstone counters exact under cancel-after-fire. A ``queued``
    event sits in the scheduler's heap; a non-``queued`` one may linger
    there as a tombstone until lazily swept."""
    fired: bool = field(default=False, compare=False)
    """Actually dispatched (as opposed to cancelled and swept). ``after``
    chains block on this: a successor is enabled only once its predecessor
    *fired* — a predecessor cancelled before firing blocks its successors
    forever (see :meth:`repro.sim.scheduler.Scheduler.co_enabled`)."""
    after: "Event | None" = field(default=None, compare=False)
    """Program-order predecessor: this event must not dispatch before
    ``after`` has. The heap run loop never needs it (producers encode order
    in timestamps, ties break by seq), but controlled-schedule mode ignores
    timestamps, so producers with an ordering *guarantee* — the SRB
    oracle's per-(sender, receiver) sequencing — chain their events
    explicitly and the model checker treats chained events as blocked until
    the predecessor fires."""

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.time == other.time and self.seq == other.seq
