"""TrInc — the trusted incrementer (Levin et al.), per the paper's Figure 2.

Each process owns a *Trinket* ``T_p``. ``Attest(c, m)`` returns an
attestation binding ``(prev, c, m)`` — where ``prev`` is the previously
attested sequence number — iff ``c`` is strictly greater than every
sequence number this trinket attested before; otherwise it returns ``None``.
``CheckAttestation(a, q)`` verifies that ``a`` was output by ``T_q``.

Non-equivocation follows because a counter value can be bound to at most
one message: a Byzantine host holding its trinket can skip counter values
or stop attesting, but can never obtain two attestations with the same
``c``.

Following real TrInc, a trinket hosts **multiple independent counters**
(``counter_id``); the paper's simplified interface is counter 0, which the
:meth:`Trinket.attest` default provides.

Trust model: the :class:`TrincAuthority` holds the device keys (a
:class:`~repro.crypto.signatures.Keyring`); processes get a
:class:`Trinket` capability. Byzantine hosts may drive their own trinket
arbitrarily but cannot mint attestations for another;
:meth:`TrincAuthority.check` is the public verifier of relayed ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..crypto.serialize import content_hash
from ..crypto.signatures import Keyring
from ..errors import AttestationError, ConfigurationError
from ..types import ProcessId, SeqNum


@dataclass(frozen=True, slots=True)
class StatusAttestation:
    """A non-advancing attestation of a counter's *current* value.

    Real TrInc permits ``Attest`` with ``c' = c`` (no increment), which
    attests the current counter state without consuming a sequence number.
    The paper's simplified Figure 2 omits this, so it is a separate method
    here; the A2M-from-TrInc reduction uses it for fresh ``End`` statements.
    ``nonce`` is the verifier's freshness challenge.
    """

    trinket_id: ProcessId
    counter_id: int
    value: SeqNum
    nonce: Any
    tag: bytes


@dataclass(frozen=True, slots=True)
class Attestation:
    """An unforgeable statement: trinket ``trinket_id``, counter ``counter_id``,
    advanced from ``prev`` to ``seq`` while binding ``message``."""

    trinket_id: ProcessId
    counter_id: int
    prev: SeqNum
    seq: SeqNum
    message: Any
    tag: bytes

    def __repr__(self) -> str:
        return (
            f"Attestation(T{self.trinket_id}.c{self.counter_id}: "
            f"{self.prev}->{self.seq}, m={self.message!r})"
        )


class TrincAuthority:
    """Manufacturer of trinkets for one simulation; the root of trust.

    Deterministic per ``(n, seed)`` like the signature scheme.
    """

    def __init__(self, n: int, seed: int = 0) -> None:
        if n <= 0:
            raise ConfigurationError(f"need at least one trinket, got n={n}")
        self._keyring = Keyring("trinc", n, seed)
        self._issued: set[ProcessId] = set()

    @property
    def n(self) -> int:
        return self._keyring.n

    def trinket(self, pid: ProcessId) -> "Trinket":
        """Issue the (single) trinket for process ``pid``.

        A trinket is issued once and is expected to *outlive its host*:
        crash-recovery restarts must re-wire the same instance, which is
        what carries the counter state across reboots (the property the
        paper's classification rests on). A second issue is refused.
        """
        if pid not in self._keyring:
            raise ConfigurationError(f"no trinket for pid {pid} (n={self.n})")
        if pid in self._issued:
            raise ConfigurationError(f"trinket for pid {pid} already issued")
        self._issued.add(pid)
        return Trinket(self, pid)

    def reissue_volatile(self, pid: ProcessId) -> "Trinket":
        """DELIBERATELY BROKEN: reissue ``pid``'s trinket with counters reset.

        Models a deployment whose "trusted" counter is *not* durable — the
        device state was lost with the host. The fresh trinket will happily
        re-attest counter values the old one already bound, so two valid
        attestations for the same ``(trinket, counter)`` with different
        messages can exist: exactly the post-restart equivocation the
        hardware is supposed to make impossible. For fault-injection
        experiments and negative tests only; correct recovery paths re-wire
        the original :meth:`trinket` instance instead.
        """
        if pid not in self._keyring:
            raise ConfigurationError(f"no trinket for pid {pid} (n={self.n})")
        if pid not in self._issued:
            raise ConfigurationError(
                f"trinket for pid {pid} was never issued; nothing to lose"
            )
        return Trinket(self, pid)

    def _tag(self, pid: ProcessId, counter_id: int, prev: SeqNum, seq: SeqNum,
             message: Any) -> bytes:
        return self._keyring.mac(
            pid, _attested(pid, counter_id, prev, seq, message))

    def _status_tag(self, pid: ProcessId, counter_id: int, value: SeqNum,
                    nonce: Any) -> bytes:
        return self._keyring.mac(pid, _status(pid, counter_id, value, nonce))

    def check_status(self, statement: Any, q: ProcessId) -> bool:
        """Verify a :class:`StatusAttestation` claimed to come from ``T_q``."""
        s = statement
        if not isinstance(s, StatusAttestation):
            return False
        if s.trinket_id != q or q not in self._keyring:
            return False
        if not isinstance(s.value, int) or s.value < 0:
            return False
        return self._keyring.check(
            q, lambda: _status(q, s.counter_id, s.value, s.nonce), s.tag)

    def check(self, attestation: Any, q: ProcessId) -> bool:
        """The paper's ``CheckAttestation(a, q)``.

        True iff ``attestation`` is a valid attestation previously output by
        trinket ``T_q``. Never raises on malformed input — Byzantine
        processes send garbage.
        """
        a = attestation
        if not isinstance(a, Attestation):
            return False
        if a.trinket_id != q or q not in self._keyring:
            return False
        # counters start at 0 and strictly increase, so 0 <= prev < seq
        if not isinstance(a.prev, int) or not isinstance(a.seq, int):
            return False
        if a.prev < 0 or a.seq <= a.prev:
            return False
        return self._keyring.check(
            q, lambda: _attested(q, a.counter_id, a.prev, a.seq, a.message),
            a.tag)


def _attested(pid: ProcessId, counter_id: int, prev: SeqNum, seq: SeqNum,
              message: Any) -> tuple:
    """What an :class:`Attestation`'s tag binds."""
    return ("attest", pid, counter_id, prev, seq, content_hash(message))


def _status(pid: ProcessId, counter_id: int, value: SeqNum,
            nonce: Any) -> tuple:
    """What a :class:`StatusAttestation`'s tag binds."""
    return ("status", pid, counter_id, value, content_hash(nonce))


class Trinket:
    """One process's trusted incrementer. Obtainable only from the authority."""

    __slots__ = ("_authority", "_pid", "_last", "attest_calls", "attest_refusals")

    def __init__(self, authority: TrincAuthority, pid: ProcessId) -> None:
        self._authority = authority
        self._pid = pid
        self._last: dict[int, SeqNum] = {}
        self.attest_calls = 0
        self.attest_refusals = 0

    @property
    def pid(self) -> ProcessId:
        return self._pid

    def last_seq(self, counter_id: int = 0) -> SeqNum:
        """Highest sequence number attested on ``counter_id`` so far (0 = none)."""
        return self._last.get(counter_id, 0)

    def attest(self, c: SeqNum, m: Any, counter_id: int = 0) -> Optional[Attestation]:
        """The paper's ``Attest(seq-num c, message m)``.

        Returns an attestation to ``(prev, c, m)`` if ``c`` is higher than
        any sequence number used on this counter so far; ``None`` otherwise.
        """
        self.attest_calls += 1
        if not isinstance(c, int):
            raise AttestationError(f"sequence number must be an int, got {c!r}")
        if c <= 0:
            raise AttestationError(f"sequence numbers start at 1, got {c}")
        if counter_id < 0:
            raise AttestationError(f"counter_id must be non-negative, got {counter_id}")
        prev = self._last.get(counter_id, 0)
        if c <= prev:
            self.attest_refusals += 1
            return None
        tag = self._authority._tag(self._pid, counter_id, prev, c, m)
        self._last[counter_id] = c
        return Attestation(
            trinket_id=self._pid, counter_id=counter_id, prev=prev, seq=c,
            message=m, tag=tag,
        )

    def status(self, counter_id: int = 0, nonce: Any = None) -> StatusAttestation:
        """Attest the current value of ``counter_id`` without advancing it.

        Models real TrInc's non-advancing attest (``c' = c``); see
        :class:`StatusAttestation`.
        """
        if counter_id < 0:
            raise AttestationError(f"counter_id must be non-negative, got {counter_id}")
        value = self._last.get(counter_id, 0)
        tag = self._authority._status_tag(self._pid, counter_id, value, nonce)
        return StatusAttestation(
            trinket_id=self._pid, counter_id=counter_id, value=value,
            nonce=nonce, tag=tag,
        )
