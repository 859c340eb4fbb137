"""Accrual failure detection over heartbeat arrival times.

:class:`AccrualFailureDetector` is the phi-accrual detector of
Hayashibara et al.: instead of a boolean timeout it tracks each peer's
heartbeat inter-arrival distribution (EWMA mean + deviation, the same
estimator family as :mod:`repro.faults.timeouts`) and exposes a
continuous suspicion level ``phi(peer, now)`` — roughly, "how many
orders of magnitude of confidence that the silence is a crash rather
than jitter". Thresholding phi trades detection speed against false
positives; under a GST adversary the pre-GST chaos widens the learned
distribution, which is exactly what keeps the detector quiet through
the chaotic era. The serving layer's brownout ladder
(:mod:`repro.service.degrade`) feeds it one "heartbeat" per completed
request.

Crash-recovery itself is scripted, not detected: the chaos schedules
call :meth:`~repro.sim.runner.Simulation.restart_at`.
"""

from __future__ import annotations

import math
from typing import Optional

from ..errors import ConfigurationError
from ..types import ProcessId, Time

__all__ = ["AccrualFailureDetector"]


class _ArrivalStats:
    """EWMA mean/deviation of one peer's heartbeat inter-arrival times."""

    __slots__ = ("last", "mean", "dev", "samples")

    def __init__(self) -> None:
        self.last: Optional[Time] = None
        self.mean = 0.0
        self.dev = 0.0
        self.samples = 0


class AccrualFailureDetector:
    """Phi-accrual suspicion levels over heartbeat arrival history.

    ``phi = -log10(P(silence this long | peer alive))`` under a normal
    model of inter-arrival times, so ``phi = 1`` means ~90% confidence
    the peer is down, ``phi = 3`` means ~99.9%. ``threshold`` is the
    suspicion level :meth:`is_suspect` uses.
    """

    def __init__(
        self,
        threshold: float = 3.0,
        alpha: float = 0.2,
        min_dev: float = 0.05,
        min_samples: int = 3,
    ) -> None:
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0, got {threshold}")
        if not 0 < alpha <= 1:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        if min_dev <= 0:
            raise ConfigurationError(f"min_dev must be > 0, got {min_dev}")
        self.threshold = threshold
        self.alpha = alpha
        self.min_dev = min_dev
        self.min_samples = min_samples
        self._peers: dict[ProcessId, _ArrivalStats] = {}

    def heartbeat(self, peer: ProcessId, now: Time) -> None:
        """Record a heartbeat arrival from ``peer`` at ``now``."""
        st = self._peers.setdefault(peer, _ArrivalStats())
        if st.last is not None:
            interval = now - st.last
            if interval >= 0:
                if st.samples == 0:
                    st.mean = interval
                    st.dev = interval / 2
                else:
                    err = interval - st.mean
                    st.mean += self.alpha * err
                    st.dev += self.alpha * (abs(err) - st.dev)
                st.samples += 1
        st.last = now

    def phi(self, peer: ProcessId, now: Time) -> float:
        """Current suspicion level for ``peer`` (0.0 while still learning)."""
        st = self._peers.get(peer)
        if st is None or st.last is None or st.samples < self.min_samples:
            return 0.0
        elapsed = now - st.last
        dev = max(st.dev, self.min_dev)
        z = (elapsed - st.mean) / (dev * math.sqrt(2.0))
        # P(X > elapsed) for X ~ N(mean, dev); erfc keeps the tail accurate
        p_later = 0.5 * math.erfc(z)
        if p_later <= 0.0:
            return float("inf")
        return -math.log10(p_later)

    def is_suspect(self, peer: ProcessId, now: Time) -> bool:
        return self.phi(peer, now) >= self.threshold

    def forget(self, peer: ProcessId) -> None:
        """Drop ``peer``'s history (e.g. after a known restart)."""
        self._peers.pop(peer, None)
