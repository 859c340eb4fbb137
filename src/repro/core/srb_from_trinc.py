"""SRB from trusted logs: TrInc- and A2M-based sequenced reliable broadcast.

The other direction of the paper's §3.1 equivalence ("trusted logs are
weaker than SRB" is Theorem 1; this module shows they are also *at least*
SRB): over plain asynchronous message passing, a sender equipped with a
trusted log gives everyone sequenced reliable broadcast — with **no quorum
at all** (any ``n >= f+1``), because non-equivocation is enforced by the
hardware rather than by intersecting quorums.

Construction (the classic A2M/TrInc pattern, cf. Chun et al., Levin et al.):

- the sender binds its k-th message to counter value ``k`` of its trinket
  (or entry ``k`` of its A2M log) and sends the attestation to all;
- an attestation for ``(k, m)`` is *valid* only if its counter step is
  consecutive (``prev = k-1``) — since a counter value can be bound at most
  once, at most one message can ever be valid per ``k``;
- every process echoes the first valid attestation it obtains for each
  ``k`` (attestations are transferable), giving the relay property;
- deliver in counter order, buffering out-of-order arrivals.

A Byzantine sender can skip counter values or go silent, which only makes
its *own* stream stop delivering (allowed — SRB property 1 binds only
correct senders); it can never get two messages accepted for one ``k``.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ConfigurationError
from ..hardware.a2m import A2MAuthority, A2MDevice, A2MStatement, LOOKUP
from ..hardware.trinc import Attestation, Trinket, TrincAuthority
from ..sim.process import Process
from ..types import ProcessId, SeqNum

TL_MSG = "SRB-TL"


class _TrustedLogSRBBase(Process):
    """Shared echo/ordering machinery; subclasses plug in attest/verify."""

    def __init__(self, sender: ProcessId, n: int) -> None:
        super().__init__()
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        self.sender = sender
        self.n = n
        self.my_seq: SeqNum = 0
        self.next_seq: SeqNum = 1
        self._pending: dict[SeqNum, tuple[Any, Any]] = {}  # seq -> (m, evidence)

    # -- subclass hooks -----------------------------------------------------------

    def _attest_next(self, k: SeqNum, message: Any) -> Any:
        """Produce transferable evidence binding ``message`` to position ``k``."""
        raise NotImplementedError

    def _verify(self, evidence: Any) -> Optional[tuple[SeqNum, Any]]:
        """Return ``(k, m)`` if ``evidence`` validly binds m to position k."""
        raise NotImplementedError

    # -- sender API --------------------------------------------------------------

    def broadcast(self, message: Any) -> SeqNum:
        if self.pid != self.sender:
            raise ConfigurationError(
                f"process {self.pid} is not the sender ({self.sender})"
            )
        self.my_seq += 1
        k = self.my_seq
        evidence = self._attest_next(k, message)
        self.ctx.record("bcast", seq=k, value=message)
        self.ctx.broadcast((TL_MSG, evidence), include_self=True)
        return k

    def on_deliver(self, sender: ProcessId, seq: SeqNum, message: Any) -> None:
        """Application hook."""

    # -- receive path ---------------------------------------------------------------

    def on_message(self, src: ProcessId, msg: Any) -> None:
        if not (isinstance(msg, tuple) and len(msg) == 2 and msg[0] == TL_MSG):
            return
        checked = self._verify(msg[1])
        if checked is None:
            return
        k, m = checked
        if k < self.next_seq or k in self._pending:
            return
        self._pending[k] = (m, msg[1])
        self.ctx.broadcast((TL_MSG, msg[1]), include_self=False)  # first sight: echo
        self._drain()

    def _drain(self) -> None:
        while self.next_seq in self._pending:
            k = self.next_seq
            m, _evidence = self._pending.pop(k)
            self.ctx.record("bcast_deliver", sender=self.sender, seq=k, value=m)
            self.on_deliver(self.sender, k, m)
            self.next_seq = k + 1


class SRBFromTrInc(_TrustedLogSRBBase):
    """SRB where positions are consecutive TrInc counter steps.

    All processes need the :class:`~repro.hardware.trinc.TrincAuthority`;
    only the sender holds a trinket (pass ``trinket=None`` elsewhere).
    """

    def __init__(
        self,
        sender: ProcessId,
        n: int,
        authority: TrincAuthority,
        trinket: Trinket | None = None,
        counter_id: int = 0,
    ) -> None:
        super().__init__(sender, n)
        self.authority = authority
        self.trinket = trinket
        self.counter_id = counter_id

    def _attest_next(self, k: SeqNum, message: Any) -> Attestation:
        if self.trinket is None:
            raise ConfigurationError(f"process {self.pid} holds no trinket")
        att = self.trinket.attest(k, message, counter_id=self.counter_id)
        if att is None:
            raise ConfigurationError(
                f"trinket counter already past {k}; broadcast stream corrupted"
            )
        return att

    def _verify(self, evidence: Any) -> Optional[tuple[SeqNum, Any]]:
        a = evidence
        if not isinstance(a, Attestation):
            return None
        if a.counter_id != self.counter_id:
            return None
        if a.prev != a.seq - 1:  # consecutive steps only: position = seq
            return None
        if not self.authority.check(a, self.sender):
            return None
        return (a.seq, a.message)


class SRBFromA2M(_TrustedLogSRBBase):
    """SRB where positions are entries of one A2M log.

    The sender appends each message and circulates the attested LOOKUP
    statement for its entry; receivers verify with the authority.
    """

    def __init__(
        self,
        sender: ProcessId,
        n: int,
        authority: A2MAuthority,
        device: A2MDevice | None = None,
    ) -> None:
        super().__init__(sender, n)
        self.authority = authority
        self.device = device
        self._log_id: Optional[int] = None

    def _attest_next(self, k: SeqNum, message: Any) -> A2MStatement:
        if self.device is None:
            raise ConfigurationError(f"process {self.pid} holds no A2M device")
        if self._log_id is None:
            self._log_id = self.device.create_log()
        idx = self.device.append(self._log_id, message)
        if idx != k:
            raise ConfigurationError(
                f"A2M log out of step: appended at {idx}, expected {k}"
            )
        stmt = self.device.lookup(self._log_id, k)
        assert stmt is not None  # we just appended entry k
        return stmt

    def _verify(self, evidence: Any) -> Optional[tuple[SeqNum, Any]]:
        s = evidence
        if not isinstance(s, A2MStatement):
            return None
        if s.kind != LOOKUP:
            return None
        if s.log_id != 1:  # the broadcast stream is the sender's first log
            return None
        if not self.authority.check(s, self.sender):
            return None
        return (s.index, s.value)
