"""Measurement aggregation and table rendering for the bench harnesses."""

from .report import format_kv, format_table
from .stats import Summary, percentile, summarize
from .tracefile import format_trace_summary, trace_summary

__all__ = [
    "Summary",
    "format_kv",
    "format_table",
    "format_trace_summary",
    "percentile",
    "summarize",
    "trace_summary",
]
