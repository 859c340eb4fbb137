"""Unidirectional rounds from *every* ACL-guarded shared-memory primitive.

The paper's Claim (§3.2) is deliberately broad: *any* shared-memory system
where each process ``p_i`` has some object ``o_i`` that only ``p_i`` can
modify and everyone can read yields unidirectional communication — this
covers SWMR registers, sticky bits, PEATS, and "all objects considered in
[Malkhi et al.]". The default
:class:`~repro.core.rounds.SharedMemoryRoundTransport` uses per-process
append-only logs; this module instantiates the same write-then-scan recipe
over the other hardware:

- :class:`SWMRRoundTransport` — plain single-writer multi-reader registers;
  the owner rewrites its register with its full entry history (the classic
  encoding of a log in a register), as a :class:`History` value that names
  a prefix of the writer's one list, so a write copies nothing;
- :class:`PEATSRoundTransport` — one policy-enforced tuple space; the
  policy only lets process *i* insert tuples tagged with *i* and forbids
  removal, which is exactly the "modify own / read all" shape;
- :class:`StickyChainRoundTransport` — per-process chains of write-once
  sticky registers; publish ``k`` of process ``i`` lives in sticky register
  ``(i, k)``, and a scan follows each chain until the first unset cell.

All three inherit the scan/round-accounting skeleton and its one own
publish in flight (see :class:`~repro.core.rounds.SharedMemoryRoundTransport`),
so the unidirectionality argument (publish linearizes before the counted
scan's reads) is common; each subclass only redefines how one batch of
entries is published and read back, and where a restarted process's next
publish goes after what its first scan read of its own object.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ConfigurationError
from ..hardware.peats import PEATS, WILDCARD, single_inserter_per_slot
from ..hardware.registers import SWMRRegister
from ..hardware.sticky import StickyRegister
from ..sim.shared_memory import SharedObject
from ..types import ProcessId
from .rounds import _RESUMING, SharedMemoryRoundTransport


class History:
    """The first ``n`` entries of a writer's append-only list, as one value.

    The writer only ever appends, so the prefix a ``History`` names never
    changes: it reads like ``tuple(entries[:n])`` (and compares equal to
    it), but taking one is O(1) and every snapshot shares the one list.
    """

    __slots__ = ("_entries", "_n")

    def __init__(self, entries: list, n: int) -> None:
        self._entries = entries
        self._n = n

    def __len__(self) -> int:
        return self._n

    def since(self, start: int) -> list:
        return self._entries[start:self._n]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, History):
            other = tuple(other.since(0))
        return isinstance(other, tuple) and tuple(self.since(0)) == other

    def __hash__(self) -> int:
        return hash(tuple(self.since(0)))

    def __repr__(self) -> str:
        return f"History({tuple(self.since(0))!r})"


class SWMRRoundTransport(SharedMemoryRoundTransport):
    """Write-then-scan rounds over plain SWMR registers.

    The register of process ``i`` always holds *all* entries ``i`` has
    published (a register is overwritten, so the history must be carried —
    this is the standard register encoding of an append-only log and keeps
    reads atomic snapshots). The value is a :class:`History` of ``i``'s one
    entry list, so a write stores the whole history without copying it.
    """

    LOG_PREFIX = "swmr"

    def __init__(self) -> None:
        super().__init__()
        self._my_history: list[tuple] = []

    @classmethod
    def build_objects(cls, n: int) -> list[SWMRRegister]:
        return [
            SWMRRegister(f"{cls.LOG_PREFIX}{i}", owner=i, initial=())
            for i in range(n)
        ]

    def _publish(self, batch: tuple) -> Optional[int]:
        assert self.host is not None
        self._my_history.extend(batch)
        history = History(self._my_history, len(self._my_history))
        return self.host.ctx.invoke(self._log_name(self.host.pid), "write", history)

    def _scan_one(self, p: ProcessId) -> Optional[int]:
        assert self.host is not None
        return self.host.ctx.invoke(self._log_name(p), "read")

    def _ingest(self, src: ProcessId, result: Any) -> None:
        # a correct owner writes a History; a Byzantine one may write a
        # tuple (read like one) or anything else (ignored)
        start = self._seen_lengths[src]
        if type(result) is History:
            fresh = result.since(start)
        elif isinstance(result, tuple):
            fresh = result[start:]
        else:
            return
        if fresh:
            self._new_data = True
            self._seen_lengths[src] = start + len(fresh)
            if self._write == _RESUMING and src == self.host.pid:
                self._my_history.extend(fresh)
            self._deliver_batch(src, fresh)


class PEATSRoundTransport(SharedMemoryRoundTransport):
    """Write-then-scan rounds over one policy-enforced tuple space.

    Entries are ``(owner, seq, batch)``; the policy admits an ``out`` only
    when the entry's owner slot matches the inserting process, and rejects
    every ``inp`` — the space behaves as a union of per-process append-only
    logs. One ``rdall`` over the whole space is a scan of "all objects".
    A correct owner's ``out``s land in ``seq`` order, so a scan delivers
    only the tuples above the highest ``seq`` it had seen of their owner.
    """

    LOG_PREFIX = "roundspace"
    """The one space's whole name."""

    def __init__(self) -> None:
        super().__init__()
        self._my_count = 0

    @classmethod
    def build_objects(cls, n: int) -> list[PEATS]:
        return [PEATS(cls.LOG_PREFIX, policy=single_inserter_per_slot(0), arity=3)]

    def _resume(self) -> None:
        assert self.host is not None
        self._my_count = self._seen_lengths[self.host.pid]

    def _publish(self, batch: tuple) -> Optional[int]:
        assert self.host is not None
        self._my_count += 1
        return self.host.ctx.invoke(
            self.LOG_PREFIX, "out", (self.host.pid, self._my_count, batch)
        )

    # one rdall is the whole scan: issue it for "process 0" and skip the rest
    def _scan_one(self, p: ProcessId) -> Optional[int]:
        assert self.host is not None
        if p != 0:
            return None
        return self.host.ctx.invoke(
            self.LOG_PREFIX, "rdall", (WILDCARD, WILDCARD, WILDCARD)
        )

    def _ingest(self, src: ProcessId, result: Any) -> None:
        # ``src`` is the placeholder 0; true sources are inside the entries.
        # Compare with what was seen before this scan, so the order rdall
        # lists the tuples in does not matter.
        if not isinstance(result, tuple):
            return
        top: dict[ProcessId, int] = {}
        for entry in result:
            if not (isinstance(entry, tuple) and len(entry) == 3):
                continue
            owner, seq, batch = entry
            if not (isinstance(owner, int) and isinstance(seq, int)):
                continue
            if seq > self._seen_lengths.get(owner, 0):
                top[owner] = max(seq, top.get(owner, 0))
                self._deliver_batch(owner, batch)
        if top:
            self._new_data = True
            self._seen_lengths.update(top)


class StickyChainRoundTransport(SharedMemoryRoundTransport):
    """Write-then-scan rounds over chains of write-once sticky registers.

    Process ``i``'s k-th batch is written (once, ever) into sticky register
    ``sticky_{i}_{k}``; scanning a process means following its chain from
    the first cell not yet read until the first unset one. ``capacity``
    bounds each chain (sticky registers must be pre-allocated).
    """

    LOG_PREFIX = "sticky"

    def __init__(self, capacity: int = 64) -> None:
        super().__init__()
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._my_count = 0

    @classmethod
    def build_objects(cls, n: int, capacity: int = 64) -> list[StickyRegister]:
        return [
            StickyRegister(f"{cls.LOG_PREFIX}_{i}_{k}", owner=i)
            for i in range(n)
            for k in range(capacity)
        ]

    def _cell(self, p: ProcessId, k: int) -> str:
        return f"{self.LOG_PREFIX}_{p}_{k}"

    def _resume(self) -> None:
        assert self.host is not None
        self._my_count = self._seen_lengths[self.host.pid]

    def _publish(self, batch: tuple) -> Optional[int]:
        assert self.host is not None
        if self._my_count >= self.capacity:
            raise ConfigurationError(
                f"sticky chain capacity {self.capacity} exhausted at "
                f"process {self.host.pid}"
            )
        handle = self.host.ctx.invoke(
            self._cell(self.host.pid, self._my_count), "write", batch
        )
        self._my_count += 1
        return handle

    def _scan_one(self, p: ProcessId) -> Optional[int]:
        assert self.host is not None
        k = self._seen_lengths[p]
        if k >= self.capacity:
            return None
        return self.host.ctx.invoke(self._cell(p, k), "read")

    def _ingest(self, src: ProcessId, result: Any) -> None:
        # a set cell: deliver its batch and read the next cell within the
        # same scan; an unset cell (or junk) ends the chain for this scan
        if not isinstance(result, tuple):
            return
        self._seen_lengths[src] += 1
        self._new_data = True
        self._deliver_batch(src, result)
        handle = self._scan_one(src)
        if handle is not None:
            self._scan_handles[handle] = src


ALL_SM_TRANSPORTS = {
    "append-log": SharedMemoryRoundTransport,
    "swmr": SWMRRoundTransport,
    "peats": PEATSRoundTransport,
    "sticky": StickyChainRoundTransport,
}
"""Name → transport class, for parameterized tests and the FIG1 bench."""


def build_objects_for(name: str, n: int) -> list[SharedObject]:
    """Build the shared objects the named transport needs for ``n`` processes."""
    if name not in ALL_SM_TRANSPORTS:
        raise ConfigurationError(f"unknown shared-memory transport {name!r}")
    return list(ALL_SM_TRANSPORTS[name].build_objects(n))
