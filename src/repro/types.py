"""Shared primitive types used across the ``repro`` library.

These are deliberately thin: plain ``int`` aliases for identifiers keep the
simulator fast and hashable, while the dataclasses here give structure to
values that travel between subsystems (messages, deliveries, decisions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

ProcessId = int
"""Identifier of a process in a simulation, ``0..n-1``."""

RoundId = int
"""Logical round number of a round-based protocol, starting at 1."""

SeqNum = int
"""Sequence number attached to broadcast messages / attestations, from 1."""

Time = float
"""Virtual simulation time."""


@dataclass(frozen=True, slots=True)
class Message:
    """An application-level message traveling on the simulated network.

    ``kind`` is a short protocol-specific tag (e.g. ``"ECHO"``); ``body`` is
    an arbitrary *immutable* payload — protocols in this library use tuples,
    frozen dataclasses, strings, ints, and ``None`` so that messages can be
    canonically serialized and hashed.
    """

    kind: str
    body: Any = None

    def __repr__(self) -> str:  # keep traces compact
        return f"Message({self.kind!r}, {self.body!r})"


@dataclass(frozen=True, slots=True)
class Decision:
    """A commit/decide event by a process in an agreement protocol.

    ``value`` may be ``repro.agreement.definitions.BOT`` for protocols that
    allow committing the distinguished "no value" symbol.
    """

    pid: ProcessId
    value: Any
    time: Time


@dataclass(frozen=True, slots=True)
class Delivery:
    """A broadcast delivery event: ``receiver`` delivered ``(seq, value)`` from ``sender``."""

    receiver: ProcessId
    sender: ProcessId
    seq: SeqNum
    value: Any
    time: Time


@dataclass(slots=True)
class ProcessSet:
    """A named, ordered set of process ids, used by scenario scripts.

    Scenario constructions in the paper partition processes into sets such
    as ``Q``, ``C1``, ``C2`` (Section 4.1) or ``P``, ``Q``, ``R``, ``S``
    (draft Claim on weak validity agreement); this helper keeps those
    partitions explicit and checkable.
    """

    name: str
    members: tuple[ProcessId, ...]

    def __post_init__(self) -> None:
        self.members = tuple(self.members)

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def validate_partition(n: int, sets: Iterable[ProcessSet]) -> None:
    """Check that ``sets`` exactly partition ``range(n)``.

    Raises ``repro.errors.ConfigurationError`` when ids are missing,
    duplicated, or out of range — scenario scripts call this before running.
    """

    from .errors import ConfigurationError

    seen: set[ProcessId] = set()
    for ps in sets:
        for pid in ps.members:
            if pid < 0 or pid >= n:
                raise ConfigurationError(
                    f"set {ps.name!r} contains out-of-range pid {pid} (n={n})"
                )
            if pid in seen:
                raise ConfigurationError(
                    f"pid {pid} appears in more than one set (second: {ps.name!r})"
                )
            seen.add(pid)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise ConfigurationError(f"partition does not cover pids {missing}")
