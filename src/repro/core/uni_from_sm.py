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
  sticky registers; entry ``k`` of process ``i`` lives in sticky register
  ``(i, k)``, and a scan follows each chain until the first unset cell.

All three inherit the scan/round-accounting skeleton, so the
unidirectionality argument (publish linearizes before the counted scan's
reads) is common; each subclass only redefines how to publish and read.

Rounds run concurrently (see :mod:`repro.core.rounds`), so a process may
have several publishes in flight, and the adversary may linearize them out
of order. An append-only log and a tuple space keep every entry whatever
the order; a register and a sticky chain do not, so those two transports
count a round only once its entry *stays* readable: the SWMR transport
keeps one write in flight, and the sticky transport waits until every
earlier cell of its chain is written.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ConfigurationError
from ..hardware.peats import PEATS, WILDCARD, single_inserter_per_slot
from ..hardware.registers import SWMRRegister
from ..hardware.sticky import StickyRegister, UNSET
from ..sim.shared_memory import SharedObject
from ..types import ProcessId
from .rounds import POST, Label, SharedMemoryRoundTransport


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
    entry list, so the k-th write stores k entries without copying them.

    A write that linearized after a longer one would hide entries a round
    already counted, so the owner keeps one write in flight: entries
    published meanwhile are held and ride on the next write, and a round
    counts once a write carrying its entry has landed.
    """

    LOG_PREFIX = "swmr"

    def __init__(self) -> None:
        super().__init__()
        self._my_history: list[tuple] = []
        self._write: Optional[int] = None  # the one own write in flight
        self._carried: list[tuple] = []  # the entries it adds
        self._held: list[tuple] = []  # entries waiting for it to land

    @classmethod
    def build_objects(cls, n: int) -> list[SWMRRegister]:
        return [
            SWMRRegister(f"{cls.LOG_PREFIX}{i}", owner=i, initial=())
            for i in range(n)
        ]

    def _publish(self, entry: tuple) -> Optional[int]:
        assert self.host is not None
        self._my_history.append(entry)
        history = History(self._my_history, len(self._my_history))
        return self.host.ctx.invoke(self._log_name(self.host.pid), "write", history)

    def _send(self, label: Label, payload: Any) -> None:
        self._held.append((label, payload))
        if self._write is None:
            self._write_held()

    def _write_held(self) -> None:
        self._carried, self._held = self._held, []
        self._my_history.extend(self._carried[:-1])
        self._write = self._publish(self._carried[-1])  # writes the whole history

    def _publish_landed(self, handle: int) -> bool:
        if handle != self._write:
            return False
        landed = self._carried
        self._write = None
        if self._held:
            self._write_held()
        for label, _payload in landed:
            if label != POST:
                self._appended_round(label)
        return True

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
            for entry in fresh:
                if isinstance(entry, tuple) and len(entry) == 2:
                    self._deliver(entry[0], src, entry[1])


class PEATSRoundTransport(SharedMemoryRoundTransport):
    """Write-then-scan rounds over one policy-enforced tuple space.

    Entries are ``(owner, seq, label, payload)``; the policy admits an
    ``out`` only when the entry's owner slot matches the inserting process,
    and rejects every ``inp`` — the space behaves as a union of
    per-process append-only logs. One ``rdall`` over the whole space is a
    scan of "all objects".
    """

    LOG_PREFIX = "roundspace"
    """The one space's whole name."""

    def __init__(self) -> None:
        super().__init__()
        self._my_count = 0

    @classmethod
    def build_objects(cls, n: int) -> list[PEATS]:
        return [PEATS(cls.LOG_PREFIX, policy=single_inserter_per_slot(0), arity=4)]

    def _publish(self, entry: tuple) -> Optional[int]:
        assert self.host is not None
        self._my_count += 1
        label, payload = entry
        return self.host.ctx.invoke(
            self.LOG_PREFIX, "out", (self.host.pid, self._my_count, label, payload)
        )

    # one rdall is the whole scan: issue it for "process 0" and skip the rest
    def _scan_one(self, p: ProcessId) -> Optional[int]:
        assert self.host is not None
        if p != 0:
            return None
        return self.host.ctx.invoke(
            self.LOG_PREFIX, "rdall", (WILDCARD, WILDCARD, WILDCARD, WILDCARD)
        )

    def _ingest(self, src: ProcessId, result: Any) -> None:
        # ``src`` is the placeholder 0; true sources are inside the entries.
        if not isinstance(result, tuple):
            return
        for entry in result:
            if not (isinstance(entry, tuple) and len(entry) == 4):
                continue
            owner, seq, label, payload = entry
            if not isinstance(owner, int):
                continue
            key = owner
            if isinstance(seq, int) and seq > self._seen_lengths.get(key, 0):
                self._seen_lengths[key] = seq
                self._new_data = True
            self._deliver(label, owner, payload)


class StickyChainRoundTransport(SharedMemoryRoundTransport):
    """Write-then-scan rounds over chains of write-once sticky registers.

    Process ``i``'s k-th entry is written (once, ever) into sticky register
    ``sticky_{i}_{k}``; scanning a process means following its chain from
    the last known set cell until the first unset one. ``capacity`` bounds
    each chain (sticky registers must be pre-allocated).

    A scan stops at the first unset cell, so an entry is readable only once
    every earlier cell of its chain is written too: a round counts when its
    cell and all before it have landed.
    """

    LOG_PREFIX = "sticky"

    def __init__(self, capacity: int = 64) -> None:
        super().__init__()
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._my_count = 0
        self._cell_labels: list[Label] = []  # the label in each own cell
        self._writes: dict[int, int] = {}  # own write in flight: handle -> cell
        self._cells_landed: set[int] = set()
        self._chain_landed = 0  # own cells 0 .. _chain_landed-1 are all written
        self._chain_ptr: dict[ProcessId, int] = {}
        self._chain_done: set[ProcessId] = set()

    @classmethod
    def build_objects(cls, n: int, capacity: int = 64) -> list[StickyRegister]:
        return [
            StickyRegister(f"{cls.LOG_PREFIX}_{i}_{k}", owner=i)
            for i in range(n)
            for k in range(capacity)
        ]

    def _cell(self, p: ProcessId, k: int) -> str:
        return f"{self.LOG_PREFIX}_{p}_{k}"

    def _publish(self, entry: tuple) -> Optional[int]:
        assert self.host is not None
        if self._my_count >= self.capacity:
            raise ConfigurationError(
                f"sticky chain capacity {self.capacity} exhausted at "
                f"process {self.host.pid}"
            )
        handle = self.host.ctx.invoke(
            self._cell(self.host.pid, self._my_count), "write", entry
        )
        self._my_count += 1
        return handle

    def _send(self, label: Label, payload: Any) -> None:
        handle = self._publish((label, payload))
        self._writes[handle] = len(self._cell_labels)
        self._cell_labels.append(label)

    def _begin_scan(self) -> None:  # fresh chain-progress bookkeeping per scan
        self._chain_done = set()
        super()._begin_scan()

    def _scan_one(self, p: ProcessId) -> Optional[int]:
        assert self.host is not None
        ptr = self._chain_ptr.setdefault(p, 0)
        if ptr >= self.capacity:
            self._chain_done.add(p)
            return None
        return self.host.ctx.invoke(self._cell(p, ptr), "read")

    def handle_op_result(self, object_name, op, handle, result) -> bool:
        # chain-following: a set cell triggers a read of the next cell within
        # the same scan; an unset cell ends that process's chain for the scan.
        if handle in self._scan_handles:
            src = self._scan_handles.pop(handle)
            if result is not UNSET and isinstance(result, tuple) and len(result) == 2:
                self._new_data = True
                self._chain_ptr[src] = self._chain_ptr.get(src, 0) + 1
                self._deliver(result[0], src, result[1])
                nxt = self._scan_one(src)
                if nxt is not None:
                    self._scan_handles[nxt] = src
            if not self._scan_handles:
                self._finish_scan()
            return True
        return self._publish_landed(handle)

    def _publish_landed(self, handle: int) -> bool:
        cell = self._writes.pop(handle, None)
        if cell is None:
            return False
        self._cells_landed.add(cell)
        while self._chain_landed in self._cells_landed:
            self._cells_landed.remove(self._chain_landed)
            label = self._cell_labels[self._chain_landed]
            self._chain_landed += 1
            if label != POST:
                self._appended_round(label)
        return True

    def _ingest(self, src: ProcessId, result: Any) -> None:  # pragma: no cover
        raise AssertionError("sticky transport ingests inline in handle_op_result")


ALL_SM_TRANSPORTS = {
    "append-log": SharedMemoryRoundTransport,
    "swmr": SWMRRoundTransport,
    "peats": PEATSRoundTransport,
    "sticky": StickyChainRoundTransport,
}
"""Name → transport class, for parameterized tests and the FIG1 bench."""


def build_objects_for(name: str, n: int) -> list[SharedObject]:
    """Build the shared objects the named transport needs for ``n`` processes."""
    if name == "append-log":
        return list(SharedMemoryRoundTransport.build_logs(n))
    if name == "swmr":
        return list(SWMRRoundTransport.build_objects(n))
    if name == "peats":
        return list(PEATSRoundTransport.build_objects(n))
    if name == "sticky":
        return list(StickyChainRoundTransport.build_objects(n))
    raise ConfigurationError(f"unknown shared-memory transport {name!r}")
