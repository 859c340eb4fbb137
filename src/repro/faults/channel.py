"""Reliable delivery over lossy links: ack / retransmit / dedup.

Every protocol in this library was written against an asynchronous network
that *eventually delivers* — the model's fairness assumption. A lossy link
breaks that assumption, so running those protocols unchanged under
:class:`~repro.faults.adversaries.LossyAsynchronous` loses liveness (and,
for broken protocols, safety — see the chaos harness). The fix mirrors
real deployments: a retransmission layer that turns a fair-lossy link back
into an eventually-delivering one.

:class:`ReliableChannel` frames each payload as ``(DATA, inc, id,
payload)``, expects ``(ACK, inc, id)`` back, retransmits with exponential
backoff plus jitter (or a measured-RTT timeout, see below), deduplicates
received frames per ``(src, inc)`` stream, re-acks duplicates (the ack may
have been the lost copy), and gives up after ``max_retries`` attempts via
the ``give_up`` hook. Because every retransmission gets fresh adversary
coin-flips, a message survives any per-message drop probability below 1
with overwhelmingly high probability within the retry budget.

``inc`` is the sender's incarnation number. It exists because message ids
restart at 0 after a reboot: without the stream tag, a peer's dedup state
from the previous incarnation would silently swallow the fresh
incarnation's first frames (acked but never delivered), and a stale ack
``(ACK, k)`` from before the crash could cancel retransmission of the new
incarnation's frame ``k``. Tagging both directions with the incarnation
makes every (re)incarnation its own stream.

Dedup state is *bounded* (a long-running channel must not grow without
limit): each stream keeps a high-watermark ``low`` — every id ``<= low``
has been seen — plus a window of out-of-order ids above it, compacted as
the gap fills. If the window ever exceeds ``max_window`` (only possible
when a ``give_up`` left a permanent hole), the watermark jumps to the
lowest windowed id, writing the hole off as seen — the TCP-receive-window
tradeoff: bounded state in exchange for suppressing a straggler that
outlives the window. ``dedup_state_size`` exposes the retained entry
count.

Retransmission timing: by default the legacy fixed schedule
``base_timeout * backoff^attempt`` (capped). Pass ``timeout_policy`` (an
instance or zero-arg factory of :class:`~repro.faults.timeouts.TimeoutPolicy`)
to derive the per-attempt base from measured round-trip times instead —
ack RTTs are fed to the policy for never-retransmitted sends only (Karn's
algorithm: a retransmitted frame's ack is ambiguous).

:class:`ReliableProcess` hosts an *unmodified* protocol process behind the
channel, an :class:`~repro.sim.process.Interposer` like
:class:`~repro.sim.byzantine.ByzantineWrapper`: the inner process keeps
calling ``ctx.send`` / ``ctx.broadcast`` and never learns the network is
lossy; a wrapper hosted inside filters before framing. Unframed messages
from unwrapped peers pass straight through, so mixed deployments work.

Crash-recovery note: the channel's buffers are volatile. A crash kills all
pending retransmissions; after a restart the fresh channel's dedup table
is empty, so late retransmissions from peers may be delivered to the new
incarnation again — at-least-once across reboots, exactly like real
systems without durable dedup logs. Protocols must already be idempotent
under duplication (the library-wide rule), so this is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import ConfigurationError
from ..sim.process import Context, Interposer, Process, RelayContext
from ..types import ProcessId, Time
from .timeouts import TimeoutPolicy, derive_jitter_rng

RC_DATA = "__rc_data__"
RC_ACK = "__rc_ack__"
RETX_TAG = "__rc_retx__"

GiveUpHook = Callable[[ProcessId, Any, int], None]
"""``(dst, payload, attempts)`` — called when a send exhausts its retries."""


@dataclass(slots=True)
class _Pending:
    dst: ProcessId
    payload: Any
    attempt: int
    timer_id: Optional[int]
    sent_at: Time = 0.0


class _DedupWindow:
    """Bounded seen-id tracking for one ``(src, incarnation)`` stream."""

    __slots__ = ("low", "window", "max_window")

    def __init__(self, max_window: int) -> None:
        self.low = -1  # every id <= low has been seen
        self.window: set[int] = set()
        self.max_window = max_window

    def seen(self, msg_id: int) -> bool:
        """Record ``msg_id``; True when it was already seen (a duplicate)."""
        if msg_id <= self.low:
            return True
        if msg_id in self.window:
            return True
        self.window.add(msg_id)
        # compact: slide the watermark over the contiguous run above it
        while self.low + 1 in self.window:
            self.low += 1
            self.window.discard(self.low)
        if len(self.window) > self.max_window:
            # a permanent hole (a peer's give-up) pinned the watermark;
            # write the hole off as seen to keep state bounded
            self.low = min(self.window)
            self.window = {i for i in self.window if i > self.low}
        return False

    def __len__(self) -> int:
        return len(self.window)


class ReliableChannel:
    """Per-process retransmission endpoint (see module docstring).

    One channel serves one process; it uses the process's context for
    sending and timers, and a dedicated seed-derived RNG stream for
    retransmission jitter (independent of ``ctx.rng``). Stats:
    ``sent`` (distinct payloads), ``retransmissions``, ``acked``,
    ``delivered`` (fresh frames handed to the host), ``duplicates_suppressed``,
    ``gave_up``.
    """

    def __init__(
        self,
        ctx: Context,
        base_timeout: float = 2.0,
        backoff: float = 2.0,
        max_timeout: float = 30.0,
        jitter: float = 0.25,
        max_retries: int = 20,
        give_up: GiveUpHook | None = None,
        timeout_policy: TimeoutPolicy | Callable[[], TimeoutPolicy] | None = None,
        max_window: int = 1024,
    ) -> None:
        if base_timeout <= 0 or max_timeout < base_timeout:
            raise ConfigurationError(
                f"invalid timeout range [{base_timeout}, {max_timeout}]"
            )
        if backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1, got {backoff}")
        if not 0.0 <= jitter <= 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1], got {jitter}")
        if max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        if max_window < 1:
            raise ConfigurationError(f"max_window must be >= 1, got {max_window}")
        self.ctx = ctx
        self.incarnation = ctx.incarnation
        self.base_timeout = base_timeout
        self.backoff = backoff
        self.max_timeout = max_timeout
        self.jitter = jitter
        self.max_retries = max_retries
        self.give_up = give_up
        if callable(timeout_policy):
            timeout_policy = timeout_policy()
        self.timeout_policy: Optional[TimeoutPolicy] = timeout_policy
        self.max_window = max_window
        # Dedicated seed-derived jitter stream, independent of ctx.rng:
        # many channels backing off in lockstep re-collide forever without
        # jitter, and drawing it from the protocol stream would let retry
        # timing perturb protocol randomness (and vice versa). Keying by
        # (seed, pid, incarnation) keeps sweeps bit-identical, serial ≡
        # pooled.
        self._jitter_rng = derive_jitter_rng(
            ctx.seed, "rc", ctx.pid, ctx.incarnation
        )
        self._next_id = 0
        self._pending: dict[int, _Pending] = {}
        self._streams: dict[tuple[ProcessId, int], _DedupWindow] = {}
        self.sent = 0
        self.retransmissions = 0
        self.acked = 0
        self.delivered = 0
        self.duplicates_suppressed = 0
        self.gave_up = 0

    @property
    def dedup_state_size(self) -> int:
        """Retained dedup entries: one watermark per peer stream plus every
        out-of-order id still windowed (bounded by ``max_window`` each)."""
        return len(self._streams) + sum(len(w) for w in self._streams.values())

    # -- sending ----------------------------------------------------------------

    def send(self, dst: ProcessId, payload: Any) -> None:
        """Send ``payload`` to ``dst`` with at-least-once delivery effort."""
        msg_id = self._next_id
        self._next_id += 1
        self.sent += 1
        entry = _Pending(dst=dst, payload=payload, attempt=0, timer_id=None)
        self._pending[msg_id] = entry
        self._transmit(msg_id, entry)

    def _base_for_attempt(self) -> float:
        if self.timeout_policy is not None:
            return min(max(self.timeout_policy.current(), 1e-9), self.max_timeout)
        return self.base_timeout

    def broadcast(self, payload: Any, include_self: bool = True) -> None:
        """Reliable send to every process (each destination tracked alone)."""
        for dst in range(self.ctx.n):
            if dst == self.ctx.pid and not include_self:
                continue
            self.send(dst, payload)

    def _transmit(self, msg_id: int, entry: _Pending) -> None:
        entry.sent_at = self.ctx.now
        self.ctx.send(entry.dst, (RC_DATA, self.incarnation, msg_id, entry.payload))
        timeout = min(
            self._base_for_attempt() * (self.backoff ** entry.attempt),
            self.max_timeout,
        )
        timeout *= 1.0 + self.jitter * self._jitter_rng.random()
        entry.timer_id = self.ctx.set_timer(timeout, (RETX_TAG, msg_id))

    # -- receiving ----------------------------------------------------------------

    def handle_message(
        self,
        src: ProcessId,
        msg: Any,
        deliver: Callable[[ProcessId, Any], None],
    ) -> bool:
        """Consume channel frames; returns True when ``msg`` was one.

        Fresh DATA frames are acked and handed to ``deliver(src, payload)``;
        duplicate DATA is re-acked and suppressed. Non-frame messages return
        False so the host can process them directly.
        """
        if not (isinstance(msg, tuple) and len(msg) == 4 and msg[0] == RC_DATA):
            if isinstance(msg, tuple) and len(msg) == 3 and msg[0] == RC_ACK:
                self._handle_ack(msg[1], msg[2])
                return True
            return False
        _, inc, msg_id, payload = msg
        if not isinstance(msg_id, int) or not isinstance(inc, int):
            return True  # malformed frame: drop
        # the ack echoes the sender's incarnation so the sender can reject
        # acks addressed to a previous incarnation's id space
        self.ctx.send(src, (RC_ACK, inc, msg_id))  # always re-ack: acks get lost too
        stream = self._streams.get((src, inc))
        if stream is None:
            stream = self._streams[(src, inc)] = _DedupWindow(self.max_window)
        if stream.seen(msg_id):
            self.duplicates_suppressed += 1
            return True
        self.delivered += 1
        deliver(src, payload)
        return True

    def _handle_ack(self, inc: Any, msg_id: Any) -> None:
        if inc != self.incarnation:
            return  # stale ack: it acknowledges a prior incarnation's frame
        entry = self._pending.pop(msg_id, None)
        if entry is None:
            return  # duplicate ack, or ack for a given-up send
        self.acked += 1
        if entry.timer_id is not None:
            self.ctx.cancel_timer(entry.timer_id)
        if self.timeout_policy is not None and entry.attempt == 0:
            # Karn's algorithm: only never-retransmitted sends give an
            # unambiguous round-trip sample
            self.timeout_policy.observe(self.ctx.now - entry.sent_at)

    # -- timers -------------------------------------------------------------------

    def handle_timer(self, tag: Any) -> bool:
        """Consume retransmission timers; returns True when ``tag`` was one."""
        if not (isinstance(tag, tuple) and len(tag) == 2 and tag[0] == RETX_TAG):
            return False
        msg_id = tag[1]
        entry = self._pending.get(msg_id)
        if entry is None:
            return True  # acked meanwhile
        entry.attempt += 1
        if entry.attempt > self.max_retries:
            del self._pending[msg_id]
            self.gave_up += 1
            self.ctx.record(
                "custom", event="rc_give_up", dst=entry.dst,
                attempts=entry.attempt,
            )
            if self.give_up is not None:
                self.give_up(entry.dst, entry.payload, entry.attempt)
            return True
        self.retransmissions += 1
        self._transmit(msg_id, entry)
        return True

    @property
    def in_flight(self) -> int:
        return len(self._pending)


class _ReliableContext(RelayContext):
    """Relay context routing sends through a :class:`ReliableChannel`."""

    __slots__ = ("_channel",)

    def __init__(self, real: Context, channel: ReliableChannel) -> None:
        super().__init__(real)
        self._channel = channel

    def send(self, dst: ProcessId, msg: Any) -> None:
        if not self._real.alive:
            return
        self._channel.send(dst, msg)

    def broadcast(self, msg: Any, include_self: bool = True) -> None:
        if not self._real.alive:
            return
        self._channel.broadcast(msg, include_self=include_self)


class ReliableProcess(Interposer):
    """Host an unmodified protocol process behind a :class:`ReliableChannel`.

    The inner process's sends are framed and retransmitted; its receives
    are deduplicated. Channel keyword arguments are forwarded to
    :class:`ReliableChannel`. The channel is created at attach time (it
    needs the context) and is reachable as ``self.channel`` for stats.
    """

    def __init__(self, inner: Process, **channel_kwargs: Any) -> None:
        super().__init__(inner)
        self._channel_kwargs = channel_kwargs
        self.channel: Optional[ReliableChannel] = None

    def _relay(self, ctx: Context) -> _ReliableContext:
        self.channel = ReliableChannel(ctx, **self._channel_kwargs)
        return _ReliableContext(ctx, self.channel)

    def on_message(self, src: ProcessId, msg: Any) -> None:
        assert self.channel is not None
        if not self.channel.handle_message(src, msg, self.inner.on_message):
            self.inner.on_message(src, msg)  # unframed: unwrapped peer

    def on_timer(self, tag: Any) -> None:
        assert self.channel is not None
        if not self.channel.handle_timer(tag):
            self.inner.on_timer(tag)


def wrap_reliable(
    processes: "list[Process]", **channel_kwargs: Any
) -> list[ReliableProcess]:
    """Wrap every process in a deployment with its own reliable channel."""
    return [ReliableProcess(p, **channel_kwargs) for p in processes]
