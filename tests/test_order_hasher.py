"""``OrderHasher`` buffers its input; its digest is the per-event one.

The reference below is the hasher as it was: one f-string, one ``encode``
and one ``sha256.update`` per event. The buffered hasher must give the same
digest for any stream, fed live through ``TraceStore.record`` or offline
through ``TraceStore.from_jsonl``, with ``hexdigest()`` taken at any point
and recording going on afterwards.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import TraceObserver, TraceStore
from repro.workloads import OrderHasher


class PerEventHasher(TraceObserver):
    """The reference: one update per event."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def on_event(self, ev) -> None:
        self._h.update(
            f"({ev.index!r}, {ev.time!r}, {ev.kind!r}, {ev.pid!r})".encode()
        )

    def hexdigest(self) -> str:
        return self._h.hexdigest()


# times whose equality and identity disagree: 0.0 == -0.0, nan != nan
_SPECIAL = ("0.0", "-0.0", "inf", "-inf", "nan", "1.5")

_records = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_SPECIAL), st.floats().map(repr)),
        st.booleans(),  # reuse the previous record's float object
        st.sampled_from(["deliver", "send", "timer_fire", "custom"]),
        st.one_of(st.none(), st.integers(0, 6)),
        st.integers(0, 3),  # index gap (offline stream only)
    ),
    max_size=40,
)


def _times(records):
    """A float object per record: a fresh one (equal values stay distinct
    objects) or the previous record's own object."""
    out, prev = [], None
    for text, reuse, *_ in records:
        prev = prev if reuse and prev is not None else float(text)
        out.append(prev)
    return out


@settings(max_examples=80, deadline=None)
@given(records=_records, flush=st.integers(1, 5), cut=st.integers(0, 40))
def test_live_stream_digest_matches_per_event_updates(records, flush, cut):
    hasher, ref = OrderHasher(), PerEventHasher()
    hasher.FLUSH = flush  # small buffers cross many flush boundaries
    store = TraceStore()
    store.subscribe(hasher)
    store.subscribe(ref)
    for i, (time, (_, _, kind, pid, _)) in enumerate(
        zip(_times(records), records)
    ):
        if i == cut:  # a digest taken mid-stream, recording goes on
            assert hasher.hexdigest() == ref.hexdigest()
        store.record(time, kind, pid)
    assert hasher.hexdigest() == ref.hexdigest()


@settings(max_examples=80, deadline=None)
@given(records=_records, flush=st.integers(1, 5))
def test_offline_stream_digest_matches_per_event_updates(records, flush):
    lines, index = [], 0
    for time, (_, _, kind, pid, gap) in zip(_times(records), records):
        index += gap  # indexes need not be contiguous
        lines.append(json.dumps({"i": index, "t": time, "k": kind, "p": pid,
                                 "f": {}}))
        index += 1
    hasher, ref = OrderHasher(), PerEventHasher()
    hasher.FLUSH = flush
    TraceStore.from_jsonl("\n".join(lines), observers=(hasher, ref))
    assert hasher.hexdigest() == ref.hexdigest()


def test_equal_but_distinct_times_keep_their_own_repr():
    zero, minus_zero = 0.0, -0.0
    assert zero == minus_zero and repr(zero) != repr(minus_zero)
    hasher, ref = OrderHasher(), PerEventHasher()
    store = TraceStore()
    store.subscribe(hasher)
    store.subscribe(ref)
    for time in (zero, minus_zero, zero, float("nan"), float("nan")):
        store.record(time, "custom", None)
    assert hasher.hexdigest() == ref.hexdigest()
