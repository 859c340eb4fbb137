"""Process model for message-passing simulations.

A process is an event-driven state machine: the simulation calls
``on_start`` once, then ``on_message`` / ``on_timer`` / ``on_op_result`` as
events arrive. All interaction with the outside world goes through the
:class:`Context` capability the simulation injects — processes never touch
the scheduler or network directly, which is what lets the simulation
interpose crashes, Byzantine wrappers, and trace recording uniformly.
"""

from __future__ import annotations

import random
from typing import Any, Optional, TYPE_CHECKING

from ..errors import SimulationError
from ..types import ProcessId, Time
from .trace import DECIDE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .runner import Simulation


class Context:
    """Per-process capability for acting on the simulated world.

    Each live process owns exactly one context. Crashing a process disables
    its context, after which all actions become silent no-ops — mirroring a
    crashed machine whose queued instructions have no external effect.
    """

    __slots__ = ("_sim", "_pid", "_alive", "rng", "_incarnation")

    def __init__(
        self,
        sim: "Simulation",
        pid: ProcessId,
        rng: random.Random,
        incarnation: int = 0,
    ) -> None:
        self._sim = sim
        self._pid = pid
        self._alive = True
        self.rng = rng
        self._incarnation = incarnation

    # -- identity ----------------------------------------------------------

    @property
    def pid(self) -> ProcessId:
        return self._pid

    @property
    def incarnation(self) -> int:
        """0 for the original boot, k after the k-th crash-recovery restart.

        Protocols normally ignore this; recovery-aware code (and tests) can
        use it to tell reboots apart in traces.
        """
        return self._incarnation

    @property
    def n(self) -> int:
        return self._sim.n

    @property
    def seed(self) -> int:
        """The run seed — for deriving auxiliary deterministic RNG streams.

        Prefer ``ctx.rng`` for protocol randomness; use the seed only to
        derive *independent* streams (e.g. retransmit jitter) whose draws
        must not perturb, or be perturbed by, protocol-level RNG use.
        """
        return self._sim.seed

    @property
    def now(self) -> Time:
        return self._sim.scheduler.now

    @property
    def alive(self) -> bool:
        return self._alive

    # -- messaging -----------------------------------------------------------

    def send(self, dst: ProcessId, msg: Any) -> None:
        """Send ``msg`` to ``dst`` over the adversarial network."""
        if not self._alive:
            return
        self._sim.network.submit(self._pid, dst, msg)

    def broadcast(self, msg: Any, include_self: bool = True) -> None:
        """Send ``msg`` to every process (the paper's "send to all").

        ``include_self`` defaults to True: "all" in the paper's pseudocode
        includes the sender, and self-delivery goes through the network like
        any other message (the adversary may delay it).
        """
        if not self._alive:
            return
        for dst in range(self._sim.n):
            if dst == self._pid and not include_self:
                continue
            self._sim.network.submit(self._pid, dst, msg)

    # -- timers ---------------------------------------------------------------

    def set_timer(self, delay: float, tag: Any) -> Optional[int]:
        """Schedule ``on_timer(tag)`` after ``delay``; returns a cancellable id."""
        if not self._alive:
            return None
        return self._sim.set_timer(self._pid, delay, tag)

    def cancel_timer(self, timer_id: int) -> None:
        if not self._alive:
            return
        self._sim.cancel_timer(timer_id)

    # -- shared memory ---------------------------------------------------------

    def invoke(self, object_name: str, op: str, *args: Any) -> Optional[int]:
        """Asynchronously invoke a shared-memory operation.

        The operation linearizes and responds at adversary-chosen later
        times; the result arrives via ``on_op_result``. Returns an
        invocation handle for correlating the response.
        """
        if not self._alive:
            return None
        return self._sim.memory.invoke(self._pid, object_name, op, args)

    # -- protocol-level trace records --------------------------------------------

    def decide(self, value: Any) -> None:
        """Record that this process commits/decides ``value``."""
        if not self._alive:
            return
        sim = self._sim
        sim.trace.record(sim.scheduler.now, DECIDE, self._pid, value=value)

    def record(self, kind: str, **fields: Any) -> None:
        """Record a protocol-defined trace event attributed to this process."""
        if not self._alive:
            return
        sim = self._sim
        sim.trace.record(sim.scheduler.now, kind, self._pid, **fields)

    # -- lifecycle (simulation-internal) -------------------------------------------

    def _kill(self) -> None:
        self._alive = False


class RelayContext:
    """The :class:`Context` surface, forwarded to ``real``: what an
    :class:`Interposer` hands its inner process. A subclass overrides
    ``send`` / ``broadcast`` to put its layer (an attack filter, a reliable
    channel) between the inner process and ``real``."""

    __slots__ = ("_real",)

    def __init__(self, real: Context) -> None:
        self._real = real

    @property
    def pid(self) -> ProcessId:
        return self._real.pid

    @property
    def n(self) -> int:
        return self._real.n

    @property
    def now(self) -> Time:
        return self._real.now

    @property
    def alive(self) -> bool:
        return self._real.alive

    @property
    def incarnation(self) -> int:
        return self._real.incarnation

    @property
    def seed(self) -> int:
        return self._real.seed

    @property
    def rng(self) -> random.Random:
        return self._real.rng

    def send(self, dst: ProcessId, msg: Any) -> None:
        self._real.send(dst, msg)

    def broadcast(self, msg: Any, include_self: bool = True) -> None:
        self._real.broadcast(msg, include_self)

    def set_timer(self, delay: float, tag: Any) -> Optional[int]:
        return self._real.set_timer(delay, tag)

    def cancel_timer(self, timer_id: int) -> None:
        self._real.cancel_timer(timer_id)

    def invoke(self, object_name: str, op: str, *args: Any) -> Optional[int]:
        return self._real.invoke(object_name, op, *args)

    def decide(self, value: Any) -> None:
        self._real.decide(value)

    def record(self, kind: str, **fields: Any) -> None:
        self._real.record(kind, **fields)


class Process:
    """Base class for event-driven processes.

    Subclasses override the ``on_*`` hooks. ``self.ctx`` and ``self.pid``
    are injected by the simulation before ``on_start``; accessing them
    earlier raises.
    """

    def __init__(self) -> None:
        self._ctx: Optional[Context] = None

    # -- wiring -------------------------------------------------------------

    @property
    def ctx(self) -> Context:
        if self._ctx is None:
            raise SimulationError(
                f"{type(self).__name__} used before being attached to a simulation"
            )
        return self._ctx

    @property
    def pid(self) -> ProcessId:
        return self.ctx.pid

    def _attach(self, ctx: Context) -> None:
        if self._ctx is not None:
            raise SimulationError(
                f"{type(self).__name__} attached to two simulations"
            )
        self._ctx = ctx

    # -- event hooks ------------------------------------------------------------

    def on_start(self) -> None:
        """Called once when the simulation starts."""

    def on_message(self, src: ProcessId, msg: Any) -> None:
        """Called when a network message from ``src`` is delivered."""

    def on_timer(self, tag: Any) -> None:
        """Called when a timer set via ``ctx.set_timer`` fires."""

    def on_op_result(self, object_name: str, op: str, handle: int, result: Any) -> None:
        """Called when a shared-memory invocation completes."""


class Interposer(Process):
    """Host ``inner``, an unmodified process, behind a layer of its own.

    Attaching attaches ``inner`` to ``self._relay(ctx)``, and the ``on_*``
    hooks forward to ``inner``; a subclass overrides ``_relay`` and the
    hooks whose events it consumes. Interposers nest through this attach
    chain: each layer relays the context of the layer around it.
    """

    def __init__(self, inner: Process) -> None:
        super().__init__()
        self.inner = inner

    def _relay(self, ctx: Context) -> RelayContext:
        return RelayContext(ctx)

    def _attach(self, ctx: Context) -> None:
        super()._attach(ctx)
        self.inner._attach(self._relay(ctx))  # type: ignore[arg-type]

    def on_start(self) -> None:
        self.inner.on_start()

    def on_message(self, src: ProcessId, msg: Any) -> None:
        self.inner.on_message(src, msg)

    def on_timer(self, tag: Any) -> None:
        self.inner.on_timer(tag)

    def on_op_result(self, object_name: str, op: str, handle: int, result: Any) -> None:
        self.inner.on_op_result(object_name, op, handle, result)


def bare(proc: Process) -> Process:
    """The process hosted inside every :class:`Interposer` around ``proc``."""
    while isinstance(proc, Interposer):
        proc = proc.inner
    return proc
