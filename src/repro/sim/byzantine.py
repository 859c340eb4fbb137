"""Reusable Byzantine behaviors.

Two styles:

- standalone adversarial processes (:class:`SilentProcess`,
  :class:`BabblerProcess`) for scenarios where the Byzantine strategy is
  simple;
- :class:`ByzantineWrapper`, which hosts an unmodified correct protocol
  instance behind an intercepting context and lets an attack mutate, drop,
  duplicate, or selectively deliver its outgoing messages. This models the
  strongest realistic adversary for protocol-level tests: it follows the
  protocol except where the attack says otherwise, so it passes any
  syntactic validation the protocol performs.

Hardware capabilities are *not* bypassed by any of these: a wrapped process
still signs with its own signer and attests with its own trinket, exactly
like real compromised hosts with intact trusted hardware.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..types import ProcessId
from .process import Context, Interposer, Process, RelayContext


class SilentProcess(Process):
    """Byzantine process that never sends anything (crash-at-start)."""


class BabblerProcess(Process):
    """Sends random junk to random processes every ``period`` time units.

    Exercises validation paths: correct protocols must ignore garbage.
    """

    def __init__(self, period: float = 1.0, fanout: int = 3, rounds: int = 20) -> None:
        super().__init__()
        self.period = period
        self.fanout = fanout
        self.rounds = rounds
        self._sent = 0

    def on_start(self) -> None:
        self.ctx.set_timer(self.period, "babble")

    def on_timer(self, tag: Any) -> None:
        if tag != "babble" or self._sent >= self.rounds:
            return
        self._sent += 1
        for _ in range(self.fanout):
            dst = self.ctx.rng.randrange(self.ctx.n)
            junk = ("JUNK", self.ctx.rng.getrandbits(32))
            self.ctx.send(dst, junk)
        self.ctx.set_timer(self.period, "babble")


# ---------------------------------------------------------------------------
# Wrapping attacks around correct protocol code
# ---------------------------------------------------------------------------

MessageFilter = Callable[[ProcessId, ProcessId, Any], Optional[Any]]
"""``(src, dst, msg) -> out``: ``None`` drops the message, a message is
sent in its place, and a **list of** ``(dst, msg)`` **pairs** replaces the
send with arbitrarily many (re-routed, duplicated, injected) sends — the
general shape active attacks need for replay and multi-destination
equivocation."""


class _InterceptingContext(RelayContext):
    """Relay context that applies a filter to outgoing messages.

    ``broadcast`` is decomposed into per-destination sends so a filter can
    equivocate (send different bodies to different destinations) — the
    attack the paper's hardware exists to prevent. Every send of a
    wrapped process passes through :meth:`send`.
    """

    __slots__ = ("_filter",)

    def __init__(self, real: Context, filt: MessageFilter) -> None:
        super().__init__(real)
        self._filter = filt

    def send(self, dst: ProcessId, msg: Any) -> None:
        out = self._filter(self._real.pid, dst, msg)
        if out is None:
            return
        if isinstance(out, list):
            for d, m in out:
                self._real.send(d, m)
        else:
            self._real.send(dst, out)

    def broadcast(self, msg: Any, include_self: bool = True) -> None:
        for dst in range(self._real.n):
            if dst == self._real.pid and not include_self:
                continue
            self.send(dst, msg)


class ByzantineWrapper(Interposer):
    """Run ``inner`` (an unmodified protocol process) under a message filter.

    The inner process is attached to an intercepting relay around whatever
    context the wrapper is attached to: the simulation's own, or the
    reliable relay of a :class:`~repro.faults.channel.ReliableProcess`
    hosting the wrapper — so the filter runs *before* reliable-channel
    framing (the attack mutates protocol messages, not retransmission
    frames). A restart keeps the attack in force when its factory builds
    the replacement wrapped, with the same (stateful) filter.
    """

    def __init__(self, inner: Process, message_filter: MessageFilter) -> None:
        super().__init__(inner)
        self._message_filter = message_filter

    def _relay(self, ctx: Context) -> _InterceptingContext:
        return _InterceptingContext(ctx, self._message_filter)


# -- common filters -----------------------------------------------------------------


def drop_to(*victims: ProcessId) -> MessageFilter:
    """Suppress all messages to the given destinations (selective silence)."""

    victim_set = frozenset(victims)

    def filt(src: ProcessId, dst: ProcessId, msg: Any) -> Optional[Any]:
        return None if dst in victim_set else msg

    return filt


def mutate_kind(kind: str, mutator: Callable[[Any], Any]) -> MessageFilter:
    """Apply ``mutator`` to the body of messages whose ``kind`` matches.

    Works on the library's ``(kind, body...)`` tuple convention and on
    :class:`~repro.types.Message`; other messages pass through unchanged.
    """

    from ..types import Message

    def filt(src: ProcessId, dst: ProcessId, msg: Any) -> Optional[Any]:
        if isinstance(msg, Message) and msg.kind == kind:
            return Message(kind, mutator(msg.body))
        if isinstance(msg, tuple) and msg and msg[0] == kind:
            return (kind, *mutator(msg[1:]))
        return msg

    return filt


def equivocate_by_destination(
    kind: str, chooser: Callable[[ProcessId, Any], Any]
) -> MessageFilter:
    """Send destination-dependent bodies for ``kind`` messages.

    ``chooser(dst, body)`` returns the body destination ``dst`` should see —
    the canonical equivocation attack.
    """

    from ..types import Message

    def filt(src: ProcessId, dst: ProcessId, msg: Any) -> Optional[Any]:
        if isinstance(msg, Message) and msg.kind == kind:
            return Message(kind, chooser(dst, msg.body))
        if isinstance(msg, tuple) and msg and msg[0] == kind:
            return (kind, *chooser(dst, msg[1:]))
        return msg

    return filt
