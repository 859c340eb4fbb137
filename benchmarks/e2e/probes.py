"""Benchmark-side trace observers: simulated latency and goodput, measured
at the trace bus like any other streaming checker.

All times here are on the *simulated* clock, so every number is a pure
function of the seed.
"""

from __future__ import annotations

import math

from repro.sim.trace import (
    BCAST,
    BCAST_DELIVER,
    CUSTOM,
    ROUND_BEGIN,
    ROUND_END,
    TraceObserver,
)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in (0, 1])."""
    return sorted_values[max(math.ceil(q * len(sorted_values)), 1) - 1]


class _LatencyProbe(TraceObserver):
    """Collects one simulated latency per completed op plus the op span."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.first_start: float | None = None
        self.last_end: float | None = None

    def _start(self, t: float) -> None:
        if self.first_start is None or t < self.first_start:
            self.first_start = t

    def _done(self, t: float, latency: float) -> None:
        self.latencies.append(latency)
        self.last_end = t

    def summary(self) -> dict:
        """``sim_lat_*`` and ``sim_goodput_ops_per_s`` over the ops seen."""
        lats = sorted(self.latencies)
        if not lats:
            return {"sim_lat_p50_s": 0.0, "sim_lat_p99_s": 0.0,
                    "sim_lat_n": 0, "sim_goodput_ops_per_s": 0.0}
        span = max(self.last_end - self.first_start, 1e-9)
        return {
            "sim_lat_p50_s": percentile(lats, 0.50),
            "sim_lat_p99_s": percentile(lats, 0.99),
            "sim_lat_n": len(lats),
            "sim_goodput_ops_per_s": len(lats) / span,
        }


class LoadProbe(_LatencyProbe):
    """Open-loop request latency measured from the *due* time.

    ``BFTClient.latencies`` starts its clock at launch, so a request that
    waited in the client backlog behind a stall looks fast (coordinated
    omission). This probe times each request from its scheduled arrival
    ``per_client[c][req_id - 1][0]`` to its ``request_done`` event, and
    keeps the two numbers that make the omission visible: how late the
    generator released each request (launch - due) and the from-send
    latency the harness itself reports.
    """

    def __init__(self, per_client, first_client_pid: int) -> None:
        super().__init__()
        self._due = [[t for t, _op in arrivals] for arrivals in per_client]
        self._first = first_client_pid
        self.release_lags: list[float] = []
        self.from_send: list[float] = []
        self.typed_failures = 0

    def on_event(self, ev) -> None:
        if ev.kind != CUSTOM:
            return
        tag = ev.fields.get("event")
        if tag == "request_done":
            due = self._due[ev.pid - self._first][ev.fields["req_id"] - 1]
            self._done(ev.time, ev.time - due)
            self.from_send.append(ev.fields["latency"])
        elif tag == "request_sent":
            due = self._due[ev.pid - self._first][ev.fields["req_id"] - 1]
            self._start(due)
            self.release_lags.append(ev.time - due)
        elif tag == "request_failed":
            self.typed_failures += 1


class BroadcastProbe(_LatencyProbe):
    """``broadcast()`` at the sender to each ``bcast_deliver`` of that seq."""

    def __init__(self, sender: int) -> None:
        super().__init__()
        self._sender = sender
        self._sent_at: dict[int, float] = {}

    def on_event(self, ev) -> None:
        if ev.kind == BCAST_DELIVER:
            self._done(ev.time, ev.time - self._sent_at[ev.fields["seq"]])
        elif ev.kind == BCAST and ev.pid == self._sender:
            self._sent_at[ev.fields["seq"]] = ev.time
            self._start(ev.time)


class RoundProbe(_LatencyProbe):
    """``begin_round`` to ``round_end`` of the same label at one process."""

    def __init__(self) -> None:
        super().__init__()
        self._begun: dict[tuple, float] = {}

    def on_event(self, ev) -> None:
        if ev.kind == ROUND_END:
            begun = self._begun.pop((ev.pid, ev.fields["round"]))
            self._done(ev.time, ev.time - begun)
        elif ev.kind == ROUND_BEGIN:
            self._begun[(ev.pid, ev.fields["round"])] = ev.time
            self._start(ev.time)
