"""Measurement aggregation and table rendering for the bench harnesses.

An exported trace needs nothing from here to be audited offline:
:meth:`~repro.sim.trace.TraceStore.load_jsonl` loads it back and a
checker's ``consume`` replays it through the class that ran online.
"""

from .report import format_kv, format_table
from .stats import Summary, percentile, summarize

__all__ = [
    "Summary",
    "format_kv",
    "format_table",
    "percentile",
    "summarize",
]
