"""Summaries of exported JSONL traces.

A run exported with :meth:`~repro.sim.trace.TraceStore.export_jsonl` is a
complete, deterministic artifact: :meth:`~repro.sim.trace.TraceStore.load_jsonl`
loads it back, every property checker re-audits it with its ``consume``
(the same class that ran online, fed in trace order), and this module
renders summaries — without re-executing the simulation. Typical
post-mortem::

    from repro.analysis import format_trace_summary
    from repro.core.srb import SRBStreamChecker
    from repro.sim.trace import TraceStore

    trace = TraceStore.load_jsonl("failing-run.jsonl")
    print(format_trace_summary(trace))
    checker = SRBStreamChecker(0, correct=[1, 2, 3]).consume(trace)
    print(checker.finish().all_violations())
"""

from __future__ import annotations

from typing import Any

from ..sim.trace import TraceStore
from .report import format_kv, format_table


def trace_summary(trace: TraceStore) -> dict[str, Any]:
    """Structured overview of one trace: span, volume, per-kind/pid counts."""
    events = trace.events()
    return {
        "retained": len(events),
        "total_recorded": trace.total_recorded,
        "evicted": trace.evicted,
        "t_first": events[0].time if events else None,
        "t_last": events[-1].time if events else None,
        "kinds": trace.kind_counts(),
        "pids": trace.pid_counts(),
        "decisions": len(trace.decisions()),
    }


def format_trace_summary(trace: TraceStore, title: str = "trace") -> str:
    """Render :func:`trace_summary` as the benches' fixed-width tables."""
    s = trace_summary(trace)
    head = format_kv(
        title,
        [
            ("events retained", s["retained"]),
            ("total recorded", s["total_recorded"]),
            ("evicted", s["evicted"]),
            ("virtual time span", f"{s['t_first']} .. {s['t_last']}"),
            ("decide events", s["decisions"]),
        ],
    )
    kinds = format_table(
        ["kind", "count"],
        [(k, n) for k, n in sorted(s["kinds"].items())],
        title="events by kind",
    )
    pids = format_table(
        ["pid", "count"],
        [(p, n) for p, n in sorted(s["pids"].items())],
        title="events by pid",
    )
    return "\n\n".join([head, kinds, pids])
