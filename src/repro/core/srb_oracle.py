"""An idealized SRB primitive ("oracle") for constructions that assume SRB.

Theorem 1 and the separation scenarios take sequenced reliable broadcast as
*given* and build on top of it. Running those constructions over the full
Algorithm-1 stack would entangle two results; the oracle instead provides
SRB's four properties by construction, with adversary-controllable delivery
delays — exactly the "system with SRB" the proofs quantify over.

Guarantees enforced:

- per (sender, receiver), deliveries happen in sequence order (property 3);
- every broadcast is eventually delivered to every live process — unless
  the run's :class:`DeliveryPolicy` deliberately withholds it, which models
  the proofs' "arbitrarily delayed" links (the ledger records this, like
  the network's);
- only the holder of a sender's :class:`SRBSenderHandle` can broadcast on
  that sender's stream (integrity): a Byzantine process can misuse *its
  own* stream (that is exactly what TrInc-from-SRB must survive) but never
  forge another's.

The oracle schedules deliveries directly on the simulation scheduler,
independent of the message network — SRB here is a primitive, not a
protocol running over links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import ConfigurationError
from ..sim.events import Callback
from ..sim.runner import Simulation
from ..types import ProcessId, SeqNum, Time

DeliveryPolicy = Callable[[ProcessId, ProcessId, SeqNum, Time], Optional[float]]
"""``(sender, receiver, seq, now) -> delay`` or ``None`` to withhold for the run."""


@dataclass(frozen=True, slots=True)
class WithheldDelivery:
    sender: ProcessId
    receiver: ProcessId
    seq: SeqNum
    value: Any


class SRBOracle:
    """Simulation-level sequenced-reliable-broadcast service.

    Construct first, hand to the processes/transports that use it, then
    attach it to the simulation with :meth:`bind` (or pass ``sim=``
    directly when construction order allows).
    """

    def __init__(
        self,
        sim: Simulation | None = None,
        policy: DeliveryPolicy | None = None,
        min_delay: float = 0.05,
        max_delay: float = 1.0,
        seed: int = 0,
        record_trace: bool = True,
    ) -> None:
        self._sim: Simulation | None = None
        self.record_trace = record_trace
        """When the oracle serves as a *transport* underneath another
        broadcast protocol, set False so its bcast/bcast_deliver events do
        not mix with the higher layer's in the trace checkers."""
        self._rng = random.Random(seed * 1_000_003 + 17)
        self._min = min_delay
        self._max = max_delay
        self._policy = policy
        self._next_seq: dict[ProcessId, SeqNum] = {}
        # enforce in-order delivery per (sender, receiver)
        self._last_delivery_time: dict[tuple[ProcessId, ProcessId], Time] = {}
        # program-order chaining for controlled-schedule mode, where
        # timestamps do not constrain dispatch order (sequencing, property 3)
        self._last_delivery_event: dict[tuple[ProcessId, ProcessId], Any] = {}
        self._subscribers: dict[ProcessId, Callable[[ProcessId, SeqNum, Any], None]] = {}
        self._handles: set[ProcessId] = set()
        self.withheld: list[WithheldDelivery] = []
        self.broadcasts = 0
        if sim is not None:
            self.bind(sim)

    # -- wiring ------------------------------------------------------------------

    def bind(self, sim: Simulation) -> "SRBOracle":
        """Attach to the simulation (required before any broadcast).

        Closing the simulation unbinds the oracle: the simulation, the
        subscribers and the delivery chain all lead back here. The ledger
        and the counters stay readable."""
        if self._sim is not None and self._sim is not sim:
            raise ConfigurationError("SRB oracle already bound to a simulation")
        self._sim = sim
        sim.on_close(self._unbind)
        return self

    def _unbind(self) -> None:
        self._sim = None
        self._subscribers.clear()
        self._last_delivery_event.clear()

    @property
    def sim(self) -> Simulation:
        if self._sim is None:
            raise ConfigurationError("SRB oracle used before bind(sim)")
        return self._sim

    def subscribe(self, pid: ProcessId,
                  on_deliver: Callable[[ProcessId, SeqNum, Any], None]) -> None:
        """Register ``pid``'s delivery callback (one per process)."""
        if pid in self._subscribers:
            raise ConfigurationError(f"process {pid} already subscribed to SRB oracle")
        self._subscribers[pid] = on_deliver

    def sender_handle(self, pid: ProcessId) -> "SRBSenderHandle":
        """Capability to broadcast on ``pid``'s stream; issued once."""
        if pid in self._handles:
            raise ConfigurationError(f"sender handle for {pid} already issued")
        self._handles.add(pid)
        return SRBSenderHandle(self, pid)

    # -- core ----------------------------------------------------------------------

    def _broadcast(self, sender: ProcessId, value: Any) -> SeqNum:
        sim = self.sim
        seq = self._next_seq.get(sender, 0) + 1
        self._next_seq[sender] = seq
        self.broadcasts += 1
        now = sim.now
        if self.record_trace:
            sim.trace.record(now, "bcast", sender, seq=seq, value=value)
        controlled = sim.scheduler.controlled
        for receiver in range(sim.n):
            if controlled and receiver in sim.crashed_pids:
                # no restarts in controlled mode: the delivery would be a
                # no-op choice point, pure state-space blowup
                self.withheld.append(WithheldDelivery(sender, receiver, seq, value))
                continue
            if self._policy is not None:
                delay = self._policy(sender, receiver, seq, now)
            else:
                delay = self._rng.uniform(self._min, self._max)
            if delay is None:
                self.withheld.append(WithheldDelivery(sender, receiver, seq, value))
                continue
            at = now + max(delay, 0.0)
            key = (sender, receiver)
            # in-order per stream: never deliver seq k before seq k-1
            at = max(at, self._last_delivery_time.get(key, 0.0))
            self._last_delivery_time[key] = at
            ev = sim.scheduler.schedule_at(
                at,
                Callback(
                    fn=lambda s=sender, r=receiver, k=seq, v=value: self._deliver(s, r, k, v),
                    label=f"srb-deliver-{sender}->{receiver}#{seq}",
                    pid=receiver,
                    choice=True,
                ),
                # controlled mode ignores timestamps, so sequencing is kept
                # by chaining each stream's delivery behind its predecessor
                after=self._last_delivery_event.get(key),
            )
            self._last_delivery_event[key] = ev
        return seq

    def _deliver(self, sender: ProcessId, receiver: ProcessId,
                 seq: SeqNum, value: Any) -> None:
        sim = self.sim
        if receiver in sim.crashed_pids:
            return
        if self.record_trace:
            sim.trace.record(
                sim.now, "bcast_deliver", receiver, sender=sender, seq=seq,
                value=value,
            )
        cb = self._subscribers.get(receiver)
        if cb is not None:
            cb(sender, seq, value)


class SRBSenderHandle:
    """Capability to broadcast on one sender stream of an :class:`SRBOracle`."""

    __slots__ = ("_oracle", "_pid")

    def __init__(self, oracle: SRBOracle, pid: ProcessId) -> None:
        self._oracle = oracle
        self._pid = pid

    @property
    def pid(self) -> ProcessId:
        return self._pid

    def broadcast(self, value: Any) -> SeqNum:
        """Broadcast ``value`` on this stream; returns its sequence number."""
        return self._oracle._broadcast(self._pid, value)
