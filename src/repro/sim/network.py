"""The simulated point-to-point network.

Every ``send`` is submitted here; the attached
:class:`~repro.sim.adversary.Adversary` decides each message's delay or
withholds it for the rest of the run. The network keeps a ledger of
withheld messages so that:

- liveness checks can tell "the protocol deadlocked" apart from "the
  adversary never delivered the message", and
- fairness audits (`assert_fair_for`) can verify that an execution claimed
  to be *asynchronous* (where every message is eventually delivered) did
  not quietly drop correct-process traffic — required when a bench result
  depends on eventual delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, TYPE_CHECKING

from ..errors import PropertyViolation
from ..types import ProcessId, Time
from .adversary import Adversary, WITHHELD
from .events import MessageDeliver
from .trace import SEND

if TYPE_CHECKING:  # pragma: no cover
    from .runner import Simulation


@dataclass(frozen=True, slots=True)
class WithheldMessage:
    """Ledger entry for a message the adversary never delivered this run."""

    src: ProcessId
    dst: ProcessId
    msg: Any
    send_time: Time


class Network:
    """Adversary-mediated message transport.

    Statistics (``messages_sent``, ``messages_delivered``, ``bytes``-free
    message counts) feed the construction-cost benchmarks.
    """

    def __init__(self, sim: "Simulation", adversary: Adversary) -> None:
        self._sim = sim
        self.adversary = adversary
        # at-least-once adversaries inject extra copies; resolved once, as
        # nothing rebinds the adversary after construction
        self._extra_deliveries = getattr(adversary, "extra_deliveries", None)
        self.withheld: list[WithheldMessage] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.duplicates_delivered = 0
        """Adversary-injected extra copies, counted apart from
        ``messages_delivered`` so ``delivery_ratio`` cannot exceed 1.0 under
        a :class:`~repro.sim.adversary.DuplicatingAsynchronous` adversary."""

    def submit(self, src: ProcessId, dst: ProcessId, msg: Any) -> None:
        """Accept a message from ``src`` addressed to ``dst``."""
        sim = self._sim
        scheduler = sim.scheduler
        now = scheduler.now
        sim.trace.record(now, SEND, src, dst=dst, msg=msg)
        self.messages_sent += 1
        if scheduler.controlled and dst in sim._crashed:
            # controlled mode has no restarts: a delivery to a crashed
            # process is a guaranteed no-op, and keeping it as a choice
            # point would multiply the explored state space for nothing
            self.withheld.append(WithheldMessage(src, dst, msg, now))
            return
        delay = self.adversary.message_delay(src, dst, msg, now)
        if delay is WITHHELD:
            self.withheld.append(WithheldMessage(src, dst, msg, now))
            return
        if delay < 0:
            delay = 0.0
        scheduler.schedule(delay, MessageDeliver(src, dst, msg, now))
        extra = self._extra_deliveries
        if extra is not None:
            for extra_delay in extra(src, dst, msg, now):
                scheduler.schedule(
                    max(extra_delay, 0.0),
                    MessageDeliver(src, dst, msg, now, True),
                )

    def note_delivered(self, duplicate: bool = False) -> None:
        if duplicate:
            self.duplicates_delivered += 1
        else:
            self.messages_delivered += 1

    @property
    def delivery_ratio(self) -> float:
        """First-copy deliveries over submissions (1.0 = lossless so far)."""
        if self.messages_sent == 0:
            return 1.0
        return self.messages_delivered / self.messages_sent

    # -- audits ---------------------------------------------------------------

    def withheld_between(
        self, sources: Iterable[ProcessId], destinations: Iterable[ProcessId]
    ) -> list[WithheldMessage]:
        src_set, dst_set = set(sources), set(destinations)
        return [
            w for w in self.withheld if w.src in src_set and w.dst in dst_set
        ]

    def assert_fair_for(self, correct: Iterable[ProcessId]) -> None:
        """Raise if any correct→correct message was withheld.

        An execution in the *asynchronous* model must eventually deliver all
        messages between correct processes; scenario scripts that withhold
        such messages are modeling "arbitrarily delayed" schedules and must
        not call this.
        """
        correct_set = set(correct)
        bad = self.withheld_between(correct_set, correct_set)
        if bad:
            w = bad[0]
            shown = repr(w.msg)
            if len(shown) > 120:
                shown = shown[:117] + "..."
            raise PropertyViolation(
                "network-fairness",
                f"{len(bad)} correct-to-correct messages withheld, e.g. "
                f"{w.src}->{w.dst} at t={w.send_time}: {shown}",
            )
