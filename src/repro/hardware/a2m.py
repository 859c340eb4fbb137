"""A2M — Attested Append-Only Memory (Chun et al.).

A trusted device holding a set of *logs*. Any holder of the device may
``create_log`` (getting a fresh log id), ``append`` values to a log, and
request attested statements about log contents:

- ``lookup(log_id, s, z)`` — attested ⟨LOOKUP, log_id, s, value_at_s, z⟩;
- ``end(log_id, z)`` — attested ⟨END, log_id, len, last_value, z⟩.

``z`` is a caller-chosen nonce bound into the attestation, giving
freshness: a verifier that picked ``z`` knows the statement postdates its
challenge. Past entries can never be modified, so two attestations for the
same ``(log_id, s)`` always carry the same value — the non-equivocation
guarantee.

As with TrInc, :class:`A2MAuthority` holds the device keys (a
:class:`~repro.crypto.signatures.Keyring`) and verifies relayed statements;
processes hold an :class:`A2MDevice` capability, which a Byzantine host can
drive arbitrarily but cannot make forge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..crypto.serialize import content_hash
from ..crypto.signatures import Keyring
from ..errors import AttestationError, ConfigurationError
from ..types import ProcessId, SeqNum

LOOKUP = "lookup"
END = "end"


@dataclass(frozen=True, slots=True)
class A2MStatement:
    """An attested statement about one log of one device.

    ``kind`` is :data:`LOOKUP` or :data:`END`; for END, ``index`` is the log
    length at attestation time. ``value`` is the log entry at ``index``
    (``None`` for an END over an empty log).
    """

    device_id: ProcessId
    kind: str
    log_id: int
    index: SeqNum
    value: Any
    nonce: Any
    tag: bytes

    def __repr__(self) -> str:
        return (
            f"A2MStatement(D{self.device_id}.{self.kind} log={self.log_id} "
            f"[{self.index}]={self.value!r})"
        )


class A2MAuthority:
    """Manufacturer and public verifier of A2M devices."""

    def __init__(self, n: int, seed: int = 0) -> None:
        if n <= 0:
            raise ConfigurationError(f"need at least one device, got n={n}")
        self._keyring = Keyring("a2m", n, seed)
        self._issued: set[ProcessId] = set()

    @property
    def n(self) -> int:
        return self._keyring.n

    def device(self, pid: ProcessId) -> "A2MDevice":
        if pid not in self._keyring:
            raise ConfigurationError(f"no device for pid {pid} (n={self.n})")
        if pid in self._issued:
            raise ConfigurationError(f"device for pid {pid} already issued")
        self._issued.add(pid)
        return A2MDevice(self, pid)

    def _tag(self, pid: ProcessId, kind: str, log_id: int, index: SeqNum,
             value: Any, nonce: Any) -> bytes:
        return self._keyring.mac(
            pid, _stated(pid, kind, log_id, index, value, nonce))

    def check(self, statement: Any, q: ProcessId) -> bool:
        """True iff ``statement`` was genuinely produced by device ``q``."""
        s = statement
        if not isinstance(s, A2MStatement):
            return False
        if s.device_id != q or q not in self._keyring:
            return False
        if s.kind not in (LOOKUP, END):
            return False
        return self._keyring.check(q, lambda: _stated(
            q, s.kind, s.log_id, s.index, s.value, s.nonce), s.tag)


def _stated(pid: ProcessId, kind: str, log_id: int, index: SeqNum,
            value: Any, nonce: Any) -> tuple:
    """What an :class:`A2MStatement`'s tag binds."""
    return ("a2m", pid, kind, log_id, index, content_hash(value),
            content_hash(nonce))


class A2MDevice:
    """One process's attested append-only memory (trusted part).

    The interface mirrors the commented-out Algorithm in the paper's source
    (CreateLog / Append / Lookup / End), with attestations as dataclasses
    instead of signed byte strings.
    """

    __slots__ = ("_authority", "_pid", "_logs", "_log_counter", "append_count")

    def __init__(self, authority: A2MAuthority, pid: ProcessId) -> None:
        self._authority = authority
        self._pid = pid
        self._logs: dict[int, list[Any]] = {}
        self._log_counter = 0
        self.append_count = 0

    @property
    def pid(self) -> ProcessId:
        return self._pid

    def create_log(self) -> int:
        """Allocate a fresh empty log; returns its id (1-based)."""
        self._log_counter += 1
        self._logs[self._log_counter] = []
        return self._log_counter

    def log_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._logs))

    def append(self, log_id: int, value: Any) -> SeqNum:
        """Append ``value`` to ``log_id``; returns its 1-based index.

        Appending to an unknown log raises — the paper's pseudocode guards
        with ``if id <= C``, i.e. silently ignores bad ids, but an exception
        surfaces host bugs without changing the trust argument (a Byzantine
        host learns nothing it does not already know).
        """
        if log_id not in self._logs:
            raise AttestationError(f"device {self._pid}: no log {log_id}")
        self._logs[log_id].append(value)
        self.append_count += 1
        return len(self._logs[log_id])

    def lookup(self, log_id: int, s: SeqNum, nonce: Any = None) -> Optional[A2MStatement]:
        """Attested content of entry ``s`` (1-based), or None when out of range."""
        log = self._logs.get(log_id)
        if log is None or not (1 <= s <= len(log)):
            return None
        value = log[s - 1]
        tag = self._authority._tag(self._pid, LOOKUP, log_id, s, value, nonce)
        return A2MStatement(self._pid, LOOKUP, log_id, s, value, nonce, tag)

    def end(self, log_id: int, nonce: Any = None) -> Optional[A2MStatement]:
        """Attested (length, last value) of ``log_id``; length 0 for empty logs."""
        log = self._logs.get(log_id)
        if log is None:
            return None
        index = len(log)
        value = log[-1] if log else None
        tag = self._authority._tag(self._pid, END, log_id, index, value, nonce)
        return A2MStatement(self._pid, END, log_id, index, value, nonce, tag)
