"""Structured execution traces: columnar store, observer bus, JSONL replay.

A :class:`TraceStore` is an append-only log of everything observable that
happened in a run. Property checkers (`repro.core.directionality`,
`repro.core.srb`, `repro.agreement.definitions`, `repro.consensus.safety`)
consume traces rather than protocol internals, so the same checker
validates any implementation of a primitive.

Three capabilities beyond a plain list:

- **Columnar rows, one read path.** :meth:`TraceStore.record` is the hot
  path of every simulated event and appends to five parallel columns, nothing
  else. Every read (iteration, ``events(kind=..., pid=...)``,
  ``decisions()``, ``local_view()``, :meth:`~TraceStore.replay_into`, JSONL
  export) is one walk over the retained rows, O(retained trace).
- **Observer bus.** :class:`TraceObserver` subscribers receive the events of
  the kinds they declare (:attr:`TraceObserver.kinds`; every kind by default)
  as they are recorded, enabling *online* checkers that maintain incremental
  state and fail at the violating event instead of rescanning the finished
  trace. A record no subscriber wants builds no event object.
- **Bounded memory + JSONL.** A ``retention`` limit turns the columns into
  a ring that overwrites its oldest row in place (evicted events stay
  counted in :attr:`~TraceStore.evicted`), and :meth:`to_jsonl` /
  :meth:`from_jsonl` round-trip a trace through a line-oriented text
  format for offline analysis and deterministic replay.

Indistinguishability arguments (the separation scenarios) compare the
*local view* of a process between two executions: the ordered sequence of
events that process can observe (its own sends, its deliveries, timers, op
responses, and its protocol-level records). :meth:`TraceStore.local_view`
extracts exactly that.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, TextIO

from ..errors import ConfigurationError, PropertyViolation
from ..types import Delivery, Decision, ProcessId, Time

# Event kind constants — string tags keep the trace easy to filter and dump.
SEND = "send"
DELIVER = "deliver"
TIMER_SET = "timer_set"
TIMER_FIRE = "timer_fire"
OP_INVOKE = "op_invoke"
OP_LINEARIZE = "op_linearize"
OP_RESPOND = "op_respond"
DECIDE = "decide"
BCAST = "bcast"
BCAST_DELIVER = "bcast_deliver"
ROUND_BEGIN = "round_begin"
ROUND_SENT = "round_sent"
ROUND_RECV = "round_recv"
ROUND_END = "round_end"
CUSTOM = "custom"

# Kinds that are part of a process's *local view* — what it can observe.
# Sends/invocations are included (a process knows what it did); linearization
# points are not (they happen inside the shared memory, invisible until the
# response arrives).
_LOCAL_VIEW_KINDS = frozenset(
    {
        SEND,
        DELIVER,
        TIMER_SET,
        TIMER_FIRE,
        OP_INVOKE,
        OP_RESPOND,
        DECIDE,
        BCAST,
        BCAST_DELIVER,
        ROUND_BEGIN,
        ROUND_SENT,
        ROUND_RECV,
        ROUND_END,
        CUSTOM,
    }
)


class TraceEvent(NamedTuple):
    """One record in a trace.

    ``pid`` is the process the event belongs to (for :data:`DELIVER` that is
    the receiver; the sender appears in ``fields['src']``). ``fields`` is a
    flat mapping of event-kind-specific data. Immutable; a named tuple
    because one is built per observed record and a frozen dataclass costs
    twice as much to construct.
    """

    index: int
    time: Time
    kind: str
    pid: ProcessId
    fields: dict[str, Any]

    def field(self, name: str, default: Any = None) -> Any:
        return self.fields.get(name, default)

    def view_key(self) -> tuple:
        """Content of this event as seen by ``pid`` (time excluded).

        Virtual timestamps differ between executions that are supposed to be
        indistinguishable, so views compare event *content and order* only.
        """
        return (self.kind, tuple(sorted(self.fields.items(), key=lambda kv: kv[0])))


# the named tuple's own ``__new__`` is a Python-level wrapper around this
_new_event = tuple.__new__


class TraceObserver:
    """Streaming consumer of trace events.

    Subscribe with :meth:`TraceStore.subscribe`; :meth:`on_event` then runs
    synchronously inside the ``record`` call of every event whose kind is in
    :attr:`kinds`, in subscription order. An observer that raises aborts the
    recording call (and hence the simulation step that produced the event) —
    this is how fail-fast online checkers stop a run at the exact violating
    event.
    """

    #: event kinds this observer is called for; ``None`` means every kind.
    #: Declare the kinds ``on_event`` acts on and the store never calls it
    #: (nor builds an event on its behalf) for the rest.
    kinds: Optional[frozenset[str]] = None

    def on_event(self, ev: TraceEvent) -> None:
        """Called once per recorded event of a subscribed kind, in trace order."""


class StreamChecker(TraceObserver):
    """The one contract of every property checker: fed live or offline.

    Live, a checker is a subscribed observer; offline, :meth:`consume`
    replays a finished (or imported) trace through the very same
    ``on_event``, in trace order — so batch and streaming verdicts are
    identical by construction, not by a second feeding loop per class.

    A finding no later event can undo goes through :meth:`_flag`: it is
    recorded in :attr:`online_violations` as ``(event index, finding)``
    and, with ``fail_fast=True``, raised right there as a
    :class:`~repro.errors.PropertyViolation` named :attr:`prop`, aborting
    the simulation step that recorded the event.
    """

    #: the :attr:`~repro.errors.PropertyViolation.prop` a fail-fast finding
    #: is raised under; each checker names its own
    prop: str

    def __init__(self, fail_fast: bool = False) -> None:
        self.fail_fast = fail_fast
        self.online_violations: list[tuple[int, Any]] = []

    def _flag(self, ev: TraceEvent, finding: Any) -> None:
        self.online_violations.append((ev.index, finding))
        if self.fail_fast:
            raise PropertyViolation(
                self.prop, f"event #{ev.index} (t={ev.time:g}): {finding}"
            )

    def consume(self, trace: "TraceStore") -> "StreamChecker":
        """Feed a finished trace's retained events, as live; returns self."""
        trace.replay_into(self)
        return self


def _route(observers: Iterable[TraceObserver], kind: str) -> tuple:
    """The ``on_event`` of every observer subscribed to ``kind``, in order.

    The one delivery rule, live (:meth:`TraceStore.record`, which is also
    the JSONL import path) and offline (:meth:`TraceStore.replay_into`).
    """
    return tuple(
        obs.on_event for obs in observers
        if obs.kinds is None or kind in obs.kinds
    )


# ---------------------------------------------------------------------------
# JSONL value codec
# ---------------------------------------------------------------------------
#
# Trace fields carry the closed domain of protocol values (see
# repro.crypto.serialize): primitives, tuples/lists, bytes, frozensets,
# dicts. JSON cannot represent all of those natively, so non-native values
# are wrapped in single-key tag objects ("%t" tuple, "%b" bytes hex,
# "%s" frozenset, "%m" mapping, "%o" opaque repr). Plain dicts are always
# encoded as "%m" so a field value can never collide with a tag.


@dataclass(frozen=True, slots=True)
class OpaqueValue:
    """Placeholder for a value JSONL could not encode losslessly.

    Carries the original ``repr``; round-tripping an :class:`OpaqueValue`
    is stable (it re-encodes to the same line), but the original object is
    not reconstructed.
    """

    text: str

    def __repr__(self) -> str:  # keep dumps readable
        return f"<opaque {self.text}>"


def _encode_value(v: Any) -> Any:
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if isinstance(v, (bytes, bytearray)):
        return {"%b": bytes(v).hex()}
    if isinstance(v, tuple):
        return {"%t": [_encode_value(x) for x in v]}
    if isinstance(v, list):
        return [_encode_value(x) for x in v]
    if isinstance(v, (frozenset, set)):
        items = [_encode_value(x) for x in v]
        items.sort(key=lambda e: json.dumps(e, sort_keys=True))
        return {"%s": items}
    if isinstance(v, dict):
        pairs = [[_encode_value(k), _encode_value(val)] for k, val in v.items()]
        pairs.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"%m": pairs}
    if isinstance(v, OpaqueValue):
        return {"%o": v.text}
    if isinstance(v, DataclassValue):
        # decoded stand-in: re-encode to the original tag, not as a
        # dataclass named "DataclassValue" — keeps round-trips stable
        return {"%d": v.qualname, "f": [_encode_value(x) for x in v.values]}
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return {
            "%d": type(v).__qualname__,
            "f": [_encode_value(getattr(v, f.name)) for f in dataclasses.fields(v)],
        }
    return {"%o": repr(v)}


@dataclass(frozen=True, slots=True)
class DataclassValue:
    """Decoded stand-in for a dataclass field value from a JSONL trace.

    Offline analysis does not need the live class, just the name and field
    values; re-encoding a :class:`DataclassValue` is stable.
    """

    qualname: str
    values: tuple


def _decode_value(v: Any) -> Any:
    if isinstance(v, list):
        return [_decode_value(x) for x in v]
    if isinstance(v, dict):
        if "%b" in v:
            return bytes.fromhex(v["%b"])
        if "%t" in v:
            return tuple(_decode_value(x) for x in v["%t"])
        if "%s" in v:
            return frozenset(_decode_value(x) for x in v["%s"])
        if "%m" in v:
            return {_decode_value(k): _decode_value(val) for k, val in v["%m"]}
        if "%o" in v:
            return OpaqueValue(v["%o"])
        if "%d" in v:
            return DataclassValue(
                qualname=v["%d"], values=tuple(_decode_value(x) for x in v["f"])
            )
        raise ConfigurationError(f"unrecognized JSONL value tag in {v!r}")
    return v


def _encode_event(ev: TraceEvent) -> str:
    obj = {
        "i": ev.index,
        "t": ev.time,
        "k": ev.kind,
        "p": ev.pid,
        "f": {name: _encode_value(val) for name, val in ev.fields.items()},
    }
    return json.dumps(obj, separators=(",", ":"))


def _decode_event(line: str) -> TraceEvent:
    obj = json.loads(line)
    return TraceEvent(
        index=obj["i"],
        time=obj["t"],
        kind=obj["k"],
        pid=obj["p"],
        fields={name: _decode_value(val) for name, val in obj["f"].items()},
    )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class TraceStore:
    """Append-only columnar event log with a kind-routed observer bus.

    ``retention`` bounds the number of events kept in memory: ``None``
    (default) keeps everything; ``N`` keeps the most recent ``N`` events,
    never more (:attr:`total_recorded` and :attr:`evicted` still count the
    evicted prefix). Observers always see every event of their kinds
    regardless of retention — streaming checkers are the intended consumer
    for runs too long to hold in full.

    Cost contract: :meth:`record` writes one row — five column appends, or
    on a full ring five stores over the oldest row — and does one routed
    dispatch; it pays only for what is observed. Storage is *columnar*
    (five parallel lists: index, time, kind, pid, fields), so a row adds
    no container of its own for the cycle collector to track, and a
    :class:`TraceEvent` is built only for a record some subscriber's
    :attr:`~TraceObserver.kinds` cover or for a reader that asks for one.
    Every query is one walk over the retained rows, oldest first from the
    ring's head, filtering on the columns before it builds an event.
    """

    def __init__(self, retention: int | None = None) -> None:
        if retention is not None and retention < 1:
            raise ConfigurationError(f"retention must be >= 1, got {retention}")
        self.retention = retention
        # parallel columns; row i describes one recorded event
        self._c_index: list[int] = []
        self._c_time: list[Time] = []
        self._c_kind: list[str] = []
        self._c_pid: list[ProcessId] = []
        self._c_fields: list[dict[str, Any]] = []
        self._head = 0  # row of the oldest event once a bounded ring is full
        self._skipped = 0  # indexes a gapped JSONL import left unused
        self._observers: list[TraceObserver] = []
        self._routes: dict[str, tuple] = {}  # kind -> _route(observers, kind)
        self._next_index = 0

    # -- columnar plumbing -------------------------------------------------

    def _materialize(self, phys: int) -> TraceEvent:
        """Build the TraceEvent for physical row ``phys``."""
        return _new_event(TraceEvent, (
            self._c_index[phys], self._c_time[phys], self._c_kind[phys],
            self._c_pid[phys], self._c_fields[phys],
        ))

    def _live_rows(self) -> Iterable[int]:
        """Physical row numbers of the retained events, in trace order."""
        head = self._head
        return chain(range(head, len(self._c_time)), range(head))

    # -- recording -------------------------------------------------------

    def record(self, time: Time, kind: str, pid: ProcessId, **fields: Any) -> None:
        index = self._next_index
        self._next_index = index + 1
        times = self._c_time
        if len(times) != self.retention:  # unbounded, or a ring still filling
            self._c_index.append(index)
            times.append(time)
            self._c_kind.append(kind)
            self._c_pid.append(pid)
            self._c_fields.append(fields)
        else:  # a full ring: the new row overwrites the oldest
            head = self._head
            self._c_index[head] = index
            times[head] = time
            self._c_kind[head] = kind
            self._c_pid[head] = pid
            self._c_fields[head] = fields
            head += 1
            self._head = head if head != len(times) else 0
        route = self._routes.get(kind)
        if route is None:
            route = self._routes[kind] = _route(self._observers, kind)
        if route:  # a snapshot: (un)subscribing inside on_event is safe
            ev = _new_event(TraceEvent, (index, time, kind, pid, fields))
            for on_event in route:
                on_event(ev)

    # -- observer bus -----------------------------------------------------

    def subscribe(self, observer: TraceObserver) -> TraceObserver:
        """Attach a streaming observer; returns it for chaining."""
        self._observers.append(observer)
        self._routes = {}
        return observer

    def unsubscribe(self, observer: TraceObserver) -> None:
        self._observers.remove(observer)
        self._routes = {}

    @property
    def observers(self) -> tuple[TraceObserver, ...]:
        return tuple(self._observers)

    def replay_into(self, *observers: TraceObserver) -> None:
        """Feed the retained events to ``observers`` in trace order.

        Offline streaming: run an online checker over a finished or
        imported trace without re-executing the simulation. Each observer
        gets the events of its :attr:`~TraceObserver.kinds`, as it would
        have live.
        """
        routes = {k: _route(observers, k) for k in set(self._c_kind)}
        for phys in self._live_rows():
            route = routes[self._c_kind[phys]]
            if route:
                ev = self._materialize(phys)
                for on_event in route:
                    on_event(ev)

    # -- iteration / filtering -------------------------------------------

    def __len__(self) -> int:
        """Number of *retained* events (equals total recorded unless bounded)."""
        return len(self._c_time)

    def __iter__(self) -> Iterator[TraceEvent]:
        for phys in self._live_rows():
            yield self._materialize(phys)

    @property
    def total_recorded(self) -> int:
        """Events ever recorded, including any evicted by retention."""
        return self._next_index

    @property
    def evicted(self) -> int:
        """Rows recorded minus rows retained."""
        return self._next_index - self._skipped - len(self._c_time)

    def events(
        self,
        kind: str | None = None,
        pid: ProcessId | None = None,
        predicate: Callable[[TraceEvent], bool] | None = None,
    ) -> list[TraceEvent]:
        """All retained events matching the given filters, in trace order.

        One walk over the retained rows: the ``kind`` and ``pid`` filters
        each read one column, and only a row that passes both becomes a
        :class:`TraceEvent` (and is offered to ``predicate``).
        """
        kind_col, pid_col = self._c_kind, self._c_pid
        rows = (
            phys for phys in self._live_rows()
            if (kind is None or kind_col[phys] == kind)
            and (pid is None or pid_col[phys] == pid)
        )
        mat = self._materialize
        if predicate is None:
            return [mat(phys) for phys in rows]
        return [ev for ev in map(mat, rows) if predicate(ev)]

    # -- protocol-level conveniences --------------------------------------

    def decisions(self) -> list[Decision]:
        """All :data:`DECIDE` events as :class:`~repro.types.Decision` values."""
        return [
            Decision(pid=ev.pid, value=ev.field("value"), time=ev.time)
            for ev in self.events(DECIDE)
        ]

    def decision_of(self, pid: ProcessId) -> Optional[Decision]:
        """The first decision of ``pid``, or ``None``."""
        for ev in self.events(DECIDE, pid=pid):
            return Decision(pid=ev.pid, value=ev.field("value"), time=ev.time)
        return None

    def broadcast_deliveries(self) -> list[Delivery]:
        """All :data:`BCAST_DELIVER` events as :class:`~repro.types.Delivery` values."""
        return [
            Delivery(
                receiver=ev.pid,
                sender=ev.field("sender"),
                seq=ev.field("seq"),
                value=ev.field("value"),
                time=ev.time,
            )
            for ev in self.events(BCAST_DELIVER)
        ]

    def message_deliveries(self, dst: ProcessId | None = None) -> list[TraceEvent]:
        return self.events(DELIVER, pid=dst)

    # -- indistinguishability ----------------------------------------------

    def local_view(self, pid: ProcessId) -> tuple[tuple, ...]:
        """Ordered content of everything ``pid`` observed in this run.

        One walk over the retained rows. On a bounded store the view covers
        the retained window only (evicted events are gone);
        indistinguishability comparisons should use unbounded stores.
        """
        kind_col, pid_col, fields_col = self._c_kind, self._c_pid, self._c_fields
        # view_key without materializing: (kind, sorted field items)
        return tuple(
            (
                kind_col[phys],
                tuple(sorted(fields_col[phys].items(), key=lambda kv: kv[0])),
            )
            for phys in self._live_rows()
            if pid_col[phys] == pid and kind_col[phys] in _LOCAL_VIEW_KINDS
        )

    def views_equal(self, other: "TraceStore", pids: Iterable[ProcessId]) -> bool:
        """Whether every process in ``pids`` has the same local view in both traces."""
        return all(self.local_view(p) == other.local_view(p) for p in pids)

    def differing_views(
        self, other: "TraceStore", pids: Iterable[ProcessId]
    ) -> list[ProcessId]:
        """Processes whose local views differ between the two traces."""
        return [p for p in pids if self.local_view(p) != other.local_view(p)]

    # -- JSONL export / import ---------------------------------------------

    def to_jsonl(self) -> str:
        """Serialize the retained events, one JSON object per line."""
        return "\n".join(_encode_event(ev) for ev in self)

    def export_jsonl(self, path_or_file: str | TextIO) -> int:
        """Write the retained events as JSONL; returns the event count."""
        text = self.to_jsonl()
        if hasattr(path_or_file, "write"):
            path_or_file.write(text)
            if len(self):
                path_or_file.write("\n")
        else:
            with open(path_or_file, "w", encoding="utf-8") as fh:
                fh.write(text)
                if len(self):
                    fh.write("\n")
        return len(self)

    @classmethod
    def from_jsonl(
        cls, text: str, observers: Iterable[TraceObserver] = ()
    ) -> "TraceStore":
        """Rebuild a store from :meth:`to_jsonl` output.

        Events keep their original indexes and times. Fields that JSONL
        encodes losslessly (primitives, bytes, tuples, sets, mappings)
        decode to equal values; rich objects come back as stable
        :class:`DataclassValue`/:class:`OpaqueValue` stand-ins — so view
        comparisons are exact between *imported* traces, and checkers that
        read codec-native fields (all the shipped ones) report identically
        to the live run. ``observers`` are subscribed first and every line
        goes through :meth:`record`, so they replay the stream exactly as
        they would have seen it live — deterministic offline re-checking of
        an exported run.
        """
        store = cls()
        for obs in observers:
            store.subscribe(obs)
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            ev = _decode_event(line)
            if ev.index < store._next_index:
                raise ConfigurationError(
                    f"JSONL trace indexes not increasing at event {ev.index}"
                )
            store._skipped += ev.index - store._next_index
            store._next_index = ev.index  # need not be contiguous
            store.record(ev.time, ev.kind, ev.pid, **ev.fields)
        return store

    @classmethod
    def load_jsonl(
        cls, path: str, observers: Iterable[TraceObserver] = ()
    ) -> "TraceStore":
        """Read a JSONL trace file exported by :meth:`export_jsonl`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_jsonl(fh.read(), observers=observers)

    # -- debugging ---------------------------------------------------------

    def dump(self, limit: int | None = None) -> str:
        """Human-readable rendering of the trace (for failing-test output)."""
        lines = []
        shown = 0
        for ev in self:
            if limit is not None and shown >= limit:
                break
            fields = " ".join(f"{k}={v!r}" for k, v in ev.fields.items())
            lines.append(f"[{ev.time:10.4f}] p{ev.pid:<3} {ev.kind:<14} {fields}")
            shown += 1
        if limit is not None and len(self) > limit:
            lines.append(f"… {len(self) - limit} more events")
        return "\n".join(lines)
