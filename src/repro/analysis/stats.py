"""Order statistics (latency summaries) for benches and load cells."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class Summary:
    """Order statistics over a sample."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def row(self) -> str:
        return (
            f"n={self.count:5d} mean={self.mean:8.3f} p50={self.p50:8.3f} "
            f"p95={self.p95:8.3f} p99={self.p99:8.3f} "
            f"min={self.minimum:8.3f} max={self.maximum:8.3f}"
        )


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of a pre-sorted sample; q in [0, 1]."""
    if not sorted_values:
        raise ConfigurationError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"q must be in [0, 1], got {q}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return float(sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac)


def summarize(values: Iterable[float]) -> Summary:
    """Full order-statistics summary of a sample."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ConfigurationError("cannot summarize an empty sample")
    return Summary(
        count=len(vals),
        mean=sum(vals) / len(vals),
        p50=percentile(vals, 0.50),
        p95=percentile(vals, 0.95),
        p99=percentile(vals, 0.99),
        minimum=vals[0],
        maximum=vals[-1],
    )

