"""Heartbeat-based accrual failure detection and supervised recovery.

Crash-recovery runs need two services the protocols themselves do not
provide: *noticing* that a process stopped (a failure detector) and
*bringing it back* (a supervisor). Both live here.

:class:`AccrualFailureDetector` is the phi-accrual detector of
Hayashibara et al.: instead of a boolean timeout it tracks each peer's
heartbeat inter-arrival distribution (EWMA mean + deviation, the same
estimator family as :mod:`repro.faults.timeouts`) and exposes a
continuous suspicion level ``phi(peer, now)`` — roughly, "how many
orders of magnitude of confidence that the silence is a crash rather
than jitter". Thresholding phi trades detection speed against false
positives; under a GST adversary the pre-GST chaos widens the learned
distribution, which is exactly what keeps the detector quiet through
the chaotic era.

:class:`HeartbeatProcess` turns the detector into a runnable process:
it gossips heartbeats on a timer, scores its peers, and records
``suspect`` / ``restore`` custom trace events for the analysis layer.

:class:`RecoverySupervisor` closes the loop: attached to the trace
observer bus it reacts to ``crash`` events by scheduling a
:meth:`~repro.sim.runner.Simulation.restart` after a fixed repair
delay, with two staleness guards at fire time (the pid must still be
crashed, and must not have been restarted — possibly crashed again —
by anyone else in between).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Optional

from ..errors import ConfigurationError
from ..sim.process import Process
from ..sim.runner import Simulation
from ..sim.trace import CUSTOM, TraceEvent, TraceObserver
from ..types import ProcessId, Time

__all__ = ["AccrualFailureDetector", "HeartbeatProcess", "RecoverySupervisor"]


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


class HeartbeatProcess(Process):
    """Gossips heartbeats and records ``suspect`` / ``restore`` verdicts.

    Each instance broadcasts ``(HB, pid, count)`` every ``interval`` and
    scores every other member of ``group`` with an
    :class:`AccrualFailureDetector` on a ``check_interval`` timer.
    Transitions are recorded as custom trace events::

        event="suspect", peer=<pid>, phi=<level>
        event="restore", peer=<pid>, down_for=<silence duration>

    so batch analysis (and the chaos harness) can measure detection and
    recovery latency straight off the trace.
    """

    HB = "__hb__"
    SEND_TAG = "hb-send"
    CHECK_TAG = "hb-check"

    def __init__(
        self,
        group: Iterable[ProcessId],
        interval: float = 5.0,
        check_interval: Optional[float] = None,
        threshold: float = 3.0,
        alpha: float = 0.2,
        min_dev: float = 0.05,
    ) -> None:
        super().__init__()
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval}")
        self.group = tuple(sorted(set(group)))
        self.interval = interval
        self.check_interval = (
            check_interval if check_interval is not None else interval / 2
        )
        if self.check_interval <= 0:
            raise ConfigurationError(
                f"check_interval must be > 0, got {self.check_interval}"
            )
        self.detector = AccrualFailureDetector(
            threshold=threshold, alpha=alpha, min_dev=min_dev
        )
        self._suspected: dict[ProcessId, Time] = {}  # peer -> time suspected
        self._last_seen: dict[ProcessId, Time] = {}
        self.beats_sent = 0
        self.suspect_events = 0
        self.restore_events = 0

    @property
    def suspected(self) -> frozenset[ProcessId]:
        return frozenset(self._suspected)

    def on_start(self) -> None:
        self.ctx.set_timer(self.interval, self.SEND_TAG)
        self.ctx.set_timer(self.check_interval, self.CHECK_TAG)

    def on_timer(self, tag: Any) -> None:
        if tag == self.SEND_TAG:
            self.beats_sent += 1
            for peer in self.group:
                if peer != self.pid:
                    self.ctx.send(peer, (self.HB, self.pid, self.beats_sent))
            self.ctx.set_timer(self.interval, self.SEND_TAG)
        elif tag == self.CHECK_TAG:
            now = self.ctx.now
            for peer in self.group:
                if peer == self.pid or peer in self._suspected:
                    continue
                if self.detector.is_suspect(peer, now):
                    self._suspected[peer] = now
                    self.suspect_events += 1
                    self.ctx.record(
                        "custom",
                        event="suspect",
                        peer=peer,
                        phi=self.detector.phi(peer, now),
                    )
            self.ctx.set_timer(self.check_interval, self.CHECK_TAG)

    def on_message(self, src: ProcessId, msg: Any) -> None:
        if not (isinstance(msg, tuple) and len(msg) == 3 and msg[0] == self.HB):
            return
        now = self.ctx.now
        self.detector.heartbeat(src, now)
        self._last_seen[src] = now
        since = self._suspected.pop(src, None)
        if since is not None:
            self.restore_events += 1
            self.ctx.record(
                "custom", event="restore", peer=src, down_for=now - since
            )


class RecoverySupervisor(TraceObserver):
    """Restarts crashed processes after a repair delay, with stale guards.

    Attach to a :class:`~repro.sim.runner.Simulation`'s observer bus
    (``sim.attach_observer(sup)``). On every ``crash`` custom event for a
    supervised pid it schedules ``sim.restart(pid, factory)`` at
    ``crash_time + restart_delay``. At fire time the restart is skipped
    unless the pid is *still* crashed **and** its incarnation number is
    unchanged since scheduling — if the chaos schedule (or a previous
    supervisor entry) already revived it, or revived-and-recrashed it,
    this entry is stale and acting on it would double-boot the process.

    ``factory`` maps ``pid`` to a fresh process instance. ``max_restarts``
    caps supervised restarts per pid (``None`` = unlimited).
    """

    def __init__(
        self,
        sim: Simulation,
        factory: Callable[[ProcessId], Process],
        restart_delay: float = 10.0,
        pids: Optional[Iterable[ProcessId]] = None,
        max_restarts: Optional[int] = None,
    ) -> None:
        if restart_delay < 0:
            raise ConfigurationError(
                f"restart_delay must be >= 0, got {restart_delay}"
            )
        self.sim = sim
        self.restart_delay = restart_delay
        self.pids = set(pids) if pids is not None else None
        self.factory = factory
        self.max_restarts = max_restarts
        self.scheduled = 0
        self.performed = 0
        self.suppressed_stale = 0
        self._per_pid: dict[ProcessId, int] = {}

    kinds = frozenset({CUSTOM})

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind != CUSTOM or ev.field("event") != "crash":
            return
        pid = ev.pid
        if self.pids is not None and pid not in self.pids:
            return
        count = self._per_pid.get(pid, 0)
        if self.max_restarts is not None and count >= self.max_restarts:
            return
        self._per_pid[pid] = count + 1
        expected_inc = self.sim.incarnation_of(pid)
        self.scheduled += 1
        self.sim.at(
            ev.time + self.restart_delay,
            lambda: self._fire(pid, expected_inc),
            label=f"supervised-restart-{pid}",
        )

    def _fire(self, pid: ProcessId, expected_inc: int) -> None:
        if (
            pid not in self.sim.crashed_pids
            or self.sim.incarnation_of(pid) != expected_inc
        ):
            self.suppressed_stale += 1
            return
        self.sim.restart(pid, lambda: self.factory(pid))
        self.performed += 1
