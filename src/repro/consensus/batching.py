"""Batch-sizing policies for the pipelined proposal engine.

The engine itself — bounded in-flight window, size/deadline batch flush,
re-queue at the window edge — lives in
:class:`~repro.consensus.replica.ReplicaCore`, shared by
:class:`~repro.consensus.minbft.MinBFTReplica` and
:class:`~repro.consensus.pbft.PBFTReplica`; this module holds the policies
it consults.

A batch flushes on *size* (pending reaches the policy's cap) or on
*deadline* (a timer armed when the first request of a batch arrives),
whichever comes first. :class:`FixedBatchPolicy` reproduces the legacy
fixed-delay timer bit-exactly (no cap, flush only on the timer, the whole
queue into one slot). :class:`AdaptiveBatchPolicy` sizes the cap from EWMA
estimates of the observed arrival rate and commit latency — ``cap ≈
arrival_rate × max(commit_latency, target_delay)``, the classic "one
commit round-trip's worth of arrivals" pipeline-matching rule — so light
load flushes immediately (cap collapses to 1, the size trigger fires on
arrival, no timer latency is ever paid) and heavy load amortizes the
per-slot USIG/signature cost over large batches.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import ConfigurationError


class FixedBatchPolicy:
    """Legacy batching: flush everything pending, ``delay`` after the first
    arrival. No size cap — the size trigger never fires."""

    __slots__ = ("delay",)

    def __init__(self, delay: float = 0.2) -> None:
        if delay <= 0:
            raise ConfigurationError(f"batch delay must be > 0, got {delay}")
        self.delay = delay

    def cap(self) -> Optional[int]:
        return None

    def deadline(self) -> float:
        return self.delay

    def note_arrival(self, now: float) -> None:
        pass

    def note_commit(self, latency: float, batch_size: int) -> None:
        pass


class AdaptiveBatchPolicy:
    """EWMA-adapted batch cap: match the batch to the pipeline.

    ``cap = clamp(arrival_rate × max(commit_latency, target_delay))`` —
    the number of requests expected to arrive while one slot commits.
    Under light load the rate estimate collapses the cap to
    ``min_cap`` (=1 by default), so a lone request is proposed the moment
    it arrives; under heavy load the cap grows toward ``max_cap`` and the
    per-slot crypto cost is amortized over the whole batch. The deadline
    bounds the latency a request can spend waiting for companions when
    arrivals pause mid-batch.

    All state is per-replica and updated only from locally observed,
    deterministic quantities (arrival times, arrival-to-execution
    latencies), so a seeded run adapts identically on every replay.
    """

    __slots__ = (
        "target_delay", "min_cap", "max_cap", "alpha",
        "_last_arrival", "_interarrival", "_latency",
    )

    def __init__(
        self,
        target_delay: float = 0.1,
        min_cap: int = 1,
        max_cap: int = 256,
        alpha: float = 0.2,
    ) -> None:
        if target_delay <= 0:
            raise ConfigurationError(
                f"target_delay must be > 0, got {target_delay}"
            )
        if not 1 <= min_cap <= max_cap:
            raise ConfigurationError(
                f"need 1 <= min_cap <= max_cap, got {min_cap}, {max_cap}"
            )
        if not 0 < alpha <= 1:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.target_delay = target_delay
        self.min_cap = min_cap
        self.max_cap = max_cap
        self.alpha = alpha
        self._last_arrival: Optional[float] = None
        self._interarrival: Optional[float] = None
        self._latency: Optional[float] = None

    def cap(self) -> Optional[int]:
        if self._interarrival is None or self._interarrival <= 0:
            return self.min_cap
        rate = 1.0 / self._interarrival
        horizon = max(self._latency or 0.0, self.target_delay)
        return max(self.min_cap, min(self.max_cap, int(rate * horizon)))

    def deadline(self) -> float:
        return self.target_delay

    def note_arrival(self, now: float) -> None:
        if self._last_arrival is not None:
            dt = now - self._last_arrival
            if dt >= 0:
                if self._interarrival is None:
                    self._interarrival = dt
                else:
                    self._interarrival += self.alpha * (dt - self._interarrival)
        self._last_arrival = now

    def note_commit(self, latency: float, batch_size: int) -> None:
        if latency < 0:
            return
        if self._latency is None:
            self._latency = latency
        else:
            self._latency += self.alpha * (latency - self._latency)


def make_batch_policy(spec: Any, batch_delay: float = 0.2) -> Any:
    """Resolve a batch-policy spec: None/"fixed" → legacy fixed delay,
    "adaptive" → :class:`AdaptiveBatchPolicy`, a zero-arg factory → its
    product, a policy instance → itself."""
    if spec is None or spec == "fixed":
        return FixedBatchPolicy(batch_delay)
    if spec == "adaptive":
        return AdaptiveBatchPolicy()
    if callable(spec) and not hasattr(spec, "cap"):
        spec = spec()
    if not hasattr(spec, "cap") or not hasattr(spec, "deadline"):
        raise ConfigurationError(
            f"batch policy must define cap()/deadline(), got {spec!r}"
        )
    return spec

