"""Round-based communication: the engine and its transports.

The paper's classification is phrased in terms of *rounds*: a system
"implements rounds" with some directionality guarantee (bidirectional /
unidirectional / zero-directional). This module gives protocols a uniform
round API — :class:`RoundProcess` — over pluggable transports whose
guarantees differ:

========================================  =================================
transport                                 guarantee (under the right adversary)
========================================  =================================
:class:`SharedMemoryRoundTransport`       **unidirectional** under full
                                          asynchrony (paper §3.2: write own
                                          object, then scan all)
:class:`MessagePassingRoundTransport`     zero-directional (waits for n-f
                                          round messages; classic asynchrony)
:class:`LockStepRoundTransport`           bidirectional under lock-step
                                          synchrony (global round boundaries)
:class:`TimedRoundTransport`              unidirectional when ``wait >= 2Δ``
                                          under Δ-bounded delays (draft
                                          "Δ-synchronous communication");
                                          zero-directional for small waits
========================================  =================================

**Round labels.** A round is identified by a protocol-chosen hashable
*label* rather than a bare number. The paper's "round r" quantifies over a
common label both processes use; under asynchrony different processes
cannot align position-based counters, but they *can* agree on semantic
labels like ``("copy", sender, seq)`` — which is exactly what Algorithm 1
needs. ``begin_round(payload)`` without a label uses this process's round
count (1, 2, …), matching the classic numbered-round reading.

**Rounds are per label.** A process may have any number of rounds in
flight, and each label completes on its own end condition. The
directionality definitions quantify over one label and the pairs that send
in it, so nothing in them asks a process to finish one round before it
begins the next; protocols with independent instances (Algorithm 1, one
per sequence number) run them side by side.

Besides rounds, every transport offers :meth:`RoundTransport.post` — a
plain eventually-delivered "send to all" with no round obligation (in the
shared-memory world: append without waiting for a scan). Protocols use it
for relays that need only eventual delivery.

Trace events ``round_begin/round_sent/round_recv/round_end`` feed the
:mod:`repro.core.directionality` checker; posts are delivered to
``on_round_message`` with the distinguished label :data:`POST`.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Any, Hashable, Optional

from ..errors import ConfigurationError, SimulationError
from ..hardware.registers import AppendOnlyRegister
from ..sim.process import Process
from ..types import ProcessId

ROUND_MSG = "__round__"
POST = ("__post__",)
"""Label carried by non-round :meth:`RoundTransport.post` messages."""

Label = Hashable


class RoundTransport:
    """Base class for round transports; subclasses implement the mechanics.

    A transport is attached to exactly one host :class:`RoundProcess`. The
    host forwards simulator events to the ``handle_*`` hooks; a hook returns
    True when it consumed the event.

    Rounds are per label: ``active_labels`` holds every round this process
    has begun and not yet completed, and each completes on its own.
    :meth:`_deliver` does not deduplicate: it reports every call to the
    host, so a transport whose medium repeats messages drops copies first.
    """

    def __init__(self) -> None:
        self.host: Optional["RoundProcess"] = None
        self.active_labels: set[Label] = set()
        self.rounds_begun = 0
        self._labels_used: set[Label] = set()

    # -- wiring ---------------------------------------------------------------

    def attach(self, host: "RoundProcess") -> None:
        if self.host is not None:
            raise ConfigurationError("round transport attached twice")
        # a proxy: the host owns its transport, not the other way round
        self.host = weakref.proxy(host)

    def start(self) -> None:
        """Called from the host's ``on_start``."""

    # -- host API ----------------------------------------------------------------

    def begin_round(self, payload: Any, label: Label | None = None) -> Label:
        """Send ``payload`` in a new round; returns the round's label.

        Other rounds of this process may still be in flight. Raises if the
        label was used before by this process.
        """
        if self.host is None:
            raise SimulationError("transport not attached")
        return self._begin(payload, label)

    def post(self, payload: Any) -> None:
        """Eventually-delivered send-to-all with no round semantics."""
        raise NotImplementedError

    # -- subclass responsibilities ----------------------------------------------------

    def _send(self, label: Label, payload: Any) -> None:
        raise NotImplementedError

    def handle_message(self, src: ProcessId, msg: Any) -> bool:
        return False

    def handle_op_result(self, object_name: str, op: str, handle: int,
                         result: Any) -> bool:
        return False

    def handle_timer(self, tag: Any) -> bool:
        return False

    # -- shared plumbing -----------------------------------------------------------------

    def _begin(self, payload: Any, label: Label | None) -> Label:
        assert self.host is not None
        self.rounds_begun += 1
        if label is None:
            label = self.rounds_begun
        if label in self._labels_used:
            raise SimulationError(
                f"process {self.host.pid}: round label {label!r} reused"
            )
        self._labels_used.add(label)
        self.active_labels.add(label)
        ctx = self.host.ctx
        ctx.record("round_begin", round=label)
        ctx.record("round_sent", round=label, payload=payload)
        self._send(label, payload)
        return label

    def _deliver(self, label: Label, src: ProcessId, payload: Any) -> None:
        """Report a message to the host, with no record of earlier ones."""
        assert self.host is not None
        self.host.ctx.record("round_recv", round=label, src=src, payload=payload)
        self.host.on_round_message(label, src, payload)

    def _complete(self, label: Label) -> None:
        assert self.host is not None
        if label not in self.active_labels:
            return
        self.active_labels.remove(label)
        self.host.ctx.record("round_end", round=label)
        self.host.on_round_complete(label)


class RoundProcess(Process):
    """A process that communicates through a :class:`RoundTransport`.

    Subclasses implement ``on_round_message`` / ``on_round_complete`` (and
    may use the normal :class:`~repro.sim.process.Process` hooks; transport
    events are filtered out before ``on_other_message`` is called).
    """

    def __init__(self, transport: RoundTransport) -> None:
        super().__init__()
        self.rounds = transport

    # -- override points ----------------------------------------------------------

    def on_round_message(self, label: Label, src: ProcessId, payload: Any) -> None:
        """A payload from ``src`` tagged with round ``label`` became visible.

        ``label`` is :data:`POST` for non-round posts.
        """

    def on_round_complete(self, label: Label) -> None:
        """This process's round ``label`` satisfied the end condition."""

    def on_round_start(self) -> None:
        """Called once at simulation start (after the transport is live)."""

    def on_other_message(self, src: ProcessId, msg: Any) -> None:
        """Non-transport message (protocols mixing rounds with direct sends)."""

    # -- plumbing -------------------------------------------------------------------

    def on_start(self) -> None:
        self.rounds.attach(self)
        self.rounds.start()
        self.on_round_start()

    def on_message(self, src: ProcessId, msg: Any) -> None:
        if not self.rounds.handle_message(src, msg):
            self.on_other_message(src, msg)

    def on_timer(self, tag: Any) -> None:
        self.rounds.handle_timer(tag)

    def on_op_result(self, object_name: str, op: str, handle: int, result: Any) -> None:
        self.rounds.handle_op_result(object_name, op, handle, result)


# ---------------------------------------------------------------------------
# Shared-memory transport (the paper's §3.2 construction)
# ---------------------------------------------------------------------------


_RESUMING = -1
"""Stands for the own publish in flight until a reborn process's first scan
ends; no invocation handle is negative."""


class SharedMemoryRoundTransport(RoundTransport):
    """Unidirectional rounds from per-process append-only objects.

    The construction of the paper's Claim in §3.2 (due to Aguilera et al.):
    to send in round ``r``, append ``(r, payload)`` to your own object, then
    read objects ``o_1 … o_n``; the round ends when one full scan that
    *started after your append linearized* has completed. For any two
    correct processes that both send in a round, the later appender's
    counted scan must see the earlier appender's entry — unidirectionality.
    The argument never uses the label, so it holds per label, concurrent or
    not: every round whose append has linearized joins the labels counted
    by the next scan to start, and all of them complete when it ends.

    **One own publish in flight.** A process keeps at most one publish to
    its own object outstanding: entries sent meanwhile are held and ride on
    the next publish as one batch, and a round counts once a publish
    carrying its entry has landed. Own publishes therefore land in the order
    they were made, whatever the adversary does, and what one has made
    readable stays readable — a register rewrite cannot hide it, and a
    sticky chain has no gap before it. Subclasses say only how one batch is
    stored (:meth:`_publish`) and read back (:meth:`_scan_one`,
    :meth:`_ingest`).

    **A reborn process continues its object.** A restarted process's fresh
    transport holds its publishes until its first scan has read how far its
    own object already goes (:meth:`_resume`), so what it writes next lies
    beyond what its earlier incarnations made readable.

    The transport keeps rescanning (with exponential backoff once nothing
    changes) so entries appended later are still delivered — shared-memory
    "reception" is reading, and readers poll. Polling frequency affects
    only latency, never the unidirectionality argument. :meth:`post` is a
    plain append: eventual delivery via everyone's scans. Each published
    entry is delivered once, by position; a repeated entry is heard again.
    """

    SCAN_TAG = "__sm_round_scan__"
    LOG_PREFIX = "roundlog"
    """Object ``f"{LOG_PREFIX}{i}"`` is process ``i``'s; a subclass names its own."""
    FIRST_SCAN_DELAY = 0.05
    IDLE_BACKOFF = 1.6
    MAX_INTERVAL = 30.0

    def __init__(self) -> None:
        super().__init__()
        self._write: Optional[int] = None  # the one own publish in flight
        self._carried: tuple = ()  # the batch it carries
        self._held: list[tuple] = []  # entries waiting for it to land
        # the landed rounds the next scan to start counts; those the running
        # scan counts
        self._appended: list[Label] = []
        self._counted: list[Label] = []
        self._scan_handles: dict[int, ProcessId] = {}
        self._scan_running = False
        self._seen_lengths: dict[ProcessId, int] = {}
        self._interval = self.FIRST_SCAN_DELAY
        self._new_data = False
        self.scans_completed = 0

    # -- setup helper ------------------------------------------------------------

    @classmethod
    def build_objects(cls, n: int) -> list[AppendOnlyRegister]:
        """The per-process objects; register them on the simulation."""
        return [AppendOnlyRegister(f"{cls.LOG_PREFIX}{i}", owner=i) for i in range(n)]

    def _log_name(self, pid: ProcessId) -> str:
        return f"{self.LOG_PREFIX}{pid}"

    # -- round mechanics ------------------------------------------------------------

    def start(self) -> None:
        assert self.host is not None
        self._seen_lengths = {p: 0 for p in range(self.host.ctx.n)}
        if self.host.ctx.incarnation:
            self._write = _RESUMING
        self.host.ctx.set_timer(self.FIRST_SCAN_DELAY, self.SCAN_TAG)

    # -- object-specific hooks (overridden by the SWMR / PEATS / sticky
    # variants in repro.core.uni_from_sm; the unidirectionality argument only
    # needs "publish to own object, then scan all objects") -------------------

    def _publish(self, batch: tuple) -> Optional[int]:
        """Make ``batch``, a tuple of ``(label, payload)`` entries, readable
        by everyone; returns the handle."""
        assert self.host is not None
        return self.host.ctx.invoke(
            self._log_name(self.host.pid), "append", batch
        )

    def _scan_one(self, p: ProcessId) -> Optional[int]:
        """Issue the read of process ``p``'s object for the current scan."""
        assert self.host is not None
        return self.host.ctx.invoke(
            self._log_name(p), "read_from", self._seen_lengths[p]
        )

    def _ingest(self, src: ProcessId, result: Any) -> None:
        """Deliver what a scan's read of ``src``'s object returned."""
        if not isinstance(result, tuple):
            return
        if result:
            self._seen_lengths[src] += len(result)
            self._new_data = True
        for batch in result:
            self._deliver_batch(src, batch)

    def _resume(self) -> None:
        """Continue own publishes after those the first scan read of this
        process's object; an append lands after them by itself."""

    def _deliver_batch(self, src: ProcessId, batch: Any) -> None:
        """Deliver each ``(label, payload)`` entry of one publish's batch;
        whatever else a Byzantine owner stored is skipped."""
        if isinstance(batch, (tuple, list)):
            for entry in batch:
                if isinstance(entry, tuple) and len(entry) == 2:
                    self._deliver(entry[0], src, entry[1])

    # -- own publishes ----------------------------------------------------------------

    def _send(self, label: Label, payload: Any) -> None:
        self._held.append((label, payload))
        if self._write is None:
            self._write_held()

    def _write_held(self) -> None:
        self._carried, self._held = tuple(self._held), []
        self._write = self._publish(self._carried)

    def _publish_landed(self, handle: int) -> bool:
        """Whether ``handle`` was the own publish in flight; the held entries
        go out next, and each landed round is counted by the next scan."""
        if handle != self._write:
            return False
        landed = self._carried
        self._write = None
        if self._held:
            self._write_held()
        for label, _payload in landed:
            if label != POST:
                self._appended.append(label)
                if not self._scan_running:
                    self._begin_scan()
        return True

    def post(self, payload: Any) -> None:
        self._send(POST, payload)
        self._poke()

    def _poke(self) -> None:
        """Make sure scanning resumes promptly after new local activity."""
        self._interval = self.FIRST_SCAN_DELAY

    def handle_op_result(self, object_name, op, handle, result) -> bool:
        if handle in self._scan_handles:
            src = self._scan_handles.pop(handle)
            self._ingest(src, result)
            if not self._scan_handles:
                self._finish_scan()
            return True
        return self._publish_landed(handle)

    def handle_timer(self, tag: Any) -> bool:
        if tag != self.SCAN_TAG:
            return False
        if not self._scan_running:
            self._begin_scan()
        return True

    def _begin_scan(self) -> None:
        assert self.host is not None
        self._scan_running = True
        self._new_data = False
        # a scan counts exactly the rounds whose append linearized before it
        if self._appended:
            self._counted, self._appended = self._appended, []
        for p in range(self.host.ctx.n):
            handle = self._scan_one(p)
            if handle is not None:
                self._scan_handles[handle] = p
        if not self._scan_handles:  # nothing left to read (full sticky chains)
            self._finish_scan()

    def _finish_scan(self) -> None:
        assert self.host is not None
        self._scan_running = False
        self.scans_completed += 1
        if self._write == _RESUMING:
            self._resume()
            self._write = None
            if self._held:
                self._write_held()
        counted = self._counted
        if counted:
            self._counted = []
            for label in counted:
                self._complete(label)
        # keep watching: rescan soon while things move, back off when idle
        if self._new_data or self.active_labels:
            self._interval = self.FIRST_SCAN_DELAY
        else:
            self._interval = min(self._interval * self.IDLE_BACKOFF, self.MAX_INTERVAL)
        self.host.ctx.set_timer(self._interval, self.SCAN_TAG)


# ---------------------------------------------------------------------------
# Message-passing transports
# ---------------------------------------------------------------------------


class BroadcastRoundTransport(RoundTransport):
    """The message-passing transports' shared wire: a round message or a post
    is one ``(ROUND_MSG, label, payload)`` broadcast to all, self included.
    The network may duplicate it, so the dedup lives here: it is delivered
    once per ``(src, label, payload)`` on arrival. Subclasses decide when a
    round ends (:meth:`_heard`, timers, boundaries)."""

    def __init__(self) -> None:
        super().__init__()
        self._delivered: set[tuple[ProcessId, Label, Any]] = set()

    def _send(self, label: Label, payload: Any) -> None:
        assert self.host is not None
        self.host.ctx.broadcast((ROUND_MSG, label, payload), include_self=True)

    def post(self, payload: Any) -> None:
        # the plain broadcast: a post starts no round, so no subclass's
        # round bookkeeping (the timed transport's end timer) applies
        BroadcastRoundTransport._send(self, POST, payload)

    def handle_message(self, src: ProcessId, msg: Any) -> bool:
        if not (isinstance(msg, tuple) and len(msg) == 3 and msg[0] == ROUND_MSG):
            return False
        _, label, payload = msg
        try:
            hash(label)
        except TypeError:
            return True  # malformed label from a Byzantine sender: drop
        size = len(self._delivered)
        try:  # one hash: a copy already seen leaves the size as it was
            self._delivered.add((src, label, payload))
        except TypeError:  # unhashable Byzantine payload: deliver, host validates
            size = -1
        if len(self._delivered) != size:
            self._deliver(label, src, payload)
        if label != POST:
            self._heard(label, src)
        return True

    def _heard(self, label: Label, src: ProcessId) -> None:
        """A round message for ``label`` arrived from ``src``."""


class MessagePassingRoundTransport(BroadcastRoundTransport):
    """Asynchronous rounds: wait for same-label messages from ``n - f`` senders.

    This is the best a classic asynchronous system can do, and it is
    **zero-directional**: the ``n - f`` heard senders need not include any
    particular correct process (the draft's "Asynchronous communication"
    paragraph). Messages for other labels are delivered on arrival.
    """

    def __init__(self, f: int) -> None:
        super().__init__()
        if f < 0:
            raise ConfigurationError(f"f must be non-negative, got {f}")
        self.f = f
        self._senders: dict[Label, set[ProcessId]] = {}

    def _heard(self, label: Label, src: ProcessId) -> None:
        heard = self._senders.setdefault(label, set())
        heard.add(src)
        assert self.host is not None
        if label in self.active_labels and len(heard) >= self.host.ctx.n - self.f:
            self._complete(label)


class LockStepRoundTransport(BroadcastRoundTransport):
    """Globally synchronized rounds: boundary ``k`` opens round label ``k``.

    Under a :class:`~repro.sim.adversary.LockStepSynchronous` adversary with
    ``delta <= period``, every message sent at a round boundary arrives
    before the round's closing boundary — **bidirectional** rounds (classic
    lock-step synchrony). A boundary opens at most one round: payloads
    begun mid-round wait in the transport's own boundary queue and are
    sent at the next free boundary; custom labels are rejected because
    lock-step round identity *is* the global boundary index.
    """

    BOUNDARY_TAG = "__lockstep_boundary__"

    def __init__(self, period: float = 2.0) -> None:
        super().__init__()
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        self.period = period
        self._boundary = 0
        self._pending: deque[Any] = deque()

    def start(self) -> None:
        assert self.host is not None
        self.host.ctx.set_timer(self.period, self.BOUNDARY_TAG)

    def _begin(self, payload: Any, label: Label | None) -> Label:
        # the host's request: the round itself opens at a boundary
        if label is not None:
            raise ConfigurationError(
                "lock-step rounds are labeled by the global boundary index; "
                "custom labels are not supported"
            )
        self._pending.append(payload)
        return self._boundary + 1  # the earliest boundary that could carry it

    def handle_timer(self, tag: Any) -> bool:
        if tag != self.BOUNDARY_TAG:
            return False
        assert self.host is not None
        # close the finishing round…
        for label in tuple(self.active_labels):
            self._complete(label)
        self._boundary += 1
        # …and open the next one if a payload is waiting
        if self._pending:
            super()._begin(self._pending.popleft(), self._boundary)
        self.host.ctx.set_timer(self.period, self.BOUNDARY_TAG)
        return True


class TimedRoundTransport(BroadcastRoundTransport):
    """Timeout rounds for the Δ-synchronous model (draft section).

    A round is: send to all, then wait ``wait`` time, then end. Under
    Δ-bounded message delays, ``wait >= 2Δ`` yields **unidirectional**
    rounds even when processes start a given label at arbitrary offsets:
    if p misses q's label-L message (q started later than p's end minus Δ),
    then p's message, sent at p's start, arrived at q at most Δ later —
    before q's round began — and is buffered, so q has it before q's round
    ends. Waits below 2Δ lose the guarantee (benchmarked in Q2).
    """

    WAIT_TAG = "__timed_round_end__"

    def __init__(self, wait: float) -> None:
        super().__init__()
        if wait <= 0:
            raise ConfigurationError(f"wait must be positive, got {wait}")
        self.wait = wait

    def _send(self, label: Label, payload: Any) -> None:
        super()._send(label, payload)
        self.host.ctx.set_timer(self.wait, (self.WAIT_TAG, label))

    def handle_timer(self, tag: Any) -> bool:
        if isinstance(tag, tuple) and len(tag) == 2 and tag[0] == self.WAIT_TAG:
            self._complete(tag[1])
            return True
        return False
