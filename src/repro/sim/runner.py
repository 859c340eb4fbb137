"""The :class:`Simulation` façade: wiring, dispatch, lifecycle.

Typical usage::

    sim = Simulation(processes=[P0(), P1(), P2()], adversary=ReliableAsynchronous(), seed=7)
    sim.declare_byzantine(2)
    sim.crash_at(1, time=5.0)
    sim.restart_at(1, time=25.0, factory=lambda: P1())  # crash-recovery
    sim.run(until=100.0)
    checker.check(sim.trace, correct=sim.fault_free_pids)

Determinism contract: a simulation is fully determined by (process code,
adversary, seed). Per-process RNG streams and the adversary stream are
derived from the seed with a cryptographic hash so adding a process does
not shift every other stream.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Iterable, Optional, Sequence

from ..errors import ConfigurationError, SimulationError
from ..types import ProcessId, Time
from .adversary import Adversary, ReliableAsynchronous
from .events import (
    Callback,
    Event,
    MessageDeliver,
    OpLinearize,
    OpRespond,
    TimerFire,
    choice_target,
)
from .network import Network
from .process import Context, Process, bare
from .scheduler import RunStats, Scheduler
from .shared_memory import SharedMemorySystem
from .trace import (
    CUSTOM,
    DELIVER,
    OP_RESPOND,
    TIMER_FIRE,
    TIMER_SET,
    TraceObserver,
    TraceStore,
)


def _derive_rng(seed: int, *labels: Any) -> random.Random:
    material = "|".join(str(x) for x in (seed, *labels)).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class Simulation:
    """One deterministic execution of ``n`` processes under an adversary."""

    DEFAULT_MAX_EVENTS = 5_000_000

    def __init__(
        self,
        processes: Sequence[Process],
        adversary: Adversary | None = None,
        seed: int = 0,
        horizon: Time = float("inf"),
        trace_retention: int | None = None,
        observers: Iterable[TraceObserver] = (),
    ) -> None:
        if not processes:
            raise ConfigurationError("a simulation needs at least one process")
        self.n = len(processes)
        self.seed = seed
        self.horizon = horizon
        self.scheduler = Scheduler()
        self.scheduler.dispatch = self._dispatch
        self.trace = TraceStore(retention=trace_retention)
        self._record = self.trace.record
        self._handlers: dict[type, Callable[[Any], None]] = {
            MessageDeliver: self._on_deliver,
            TimerFire: self._on_timer_fire,
            OpLinearize: self._on_op_linearize,
            OpRespond: self._on_op_respond,
            Callback: self._on_callback,
        }
        for obs in observers:
            self.trace.subscribe(obs)
        adversary = adversary if adversary is not None else ReliableAsynchronous()
        adversary.bind(_derive_rng(seed, "adversary"))
        self.network = Network(self, adversary)
        self.memory = SharedMemorySystem(self)
        self._processes: list[Process] = list(processes)
        self._contexts: list[Context] = []
        self._retired: list[Context] = []  # contexts restarts replaced
        self._byzantine: set[ProcessId] = set()
        self._crashed: set[ProcessId] = set()
        self._ever_crashed: set[ProcessId] = set()
        self._incarnations: dict[ProcessId, int] = {}
        self._timers: dict[int, Event] = {}
        self._timers_by_pid: dict[ProcessId, set[int]] = {}
        self._next_timer_id = 0
        self._started = False
        self._closed = False
        self._on_close: list[Callable[[], None]] = []
        for pid, proc in enumerate(self._processes):
            ctx = Context(self, pid, _derive_rng(seed, "proc", pid))
            proc._attach(ctx)
            self._contexts.append(ctx)

    # -- basic accessors -----------------------------------------------------

    @property
    def now(self) -> Time:
        return self.scheduler.now

    def process(self, pid: ProcessId) -> Process:
        return self._processes[pid]

    @property
    def processes(self) -> Sequence[Process]:
        return tuple(self._processes)

    # -- observer bus ---------------------------------------------------------

    def attach_observer(self, observer: TraceObserver) -> TraceObserver:
        """Subscribe a streaming :class:`TraceObserver` to this run's trace.

        Online checkers attached here see every event as it is recorded and
        may raise (e.g. :class:`~repro.errors.PropertyViolation`) to abort
        the run at the exact violating event.
        """
        return self.trace.subscribe(observer)

    # -- fault management -----------------------------------------------------

    def declare_byzantine(self, *pids: ProcessId) -> "Simulation":
        """Mark processes as Byzantine for checkers; their code runs unchanged."""
        for pid in pids:
            self._check_pid(pid)
            self._byzantine.add(pid)
        return self

    @property
    def crashed_pids(self) -> frozenset[ProcessId]:
        return frozenset(self._crashed)

    @property
    def correct_pids(self) -> tuple[ProcessId, ...]:
        """Processes that are neither Byzantine nor crashed (at current time)."""
        return tuple(
            p for p in range(self.n) if p not in self._byzantine and p not in self._crashed
        )

    @property
    def fault_free_pids(self) -> tuple[ProcessId, ...]:
        """Processes that were never Byzantine and never crashed, whole run.

        The right "correct" set for whole-trace safety/liveness checkers in
        crash-recovery executions: a restarted process is live again but its
        pre-crash trace prefix belongs to a lost incarnation, so per-process
        stream checks (sequencing, executed-log contiguity) only apply to
        processes that stayed up throughout.
        """
        return tuple(
            p
            for p in range(self.n)
            if p not in self._byzantine and p not in self._ever_crashed
        )

    @property
    def restarted_pids(self) -> frozenset[ProcessId]:
        """Processes that crashed and were restarted at least once."""
        return frozenset(self._incarnations)

    def incarnation_of(self, pid: ProcessId) -> int:
        """How many times ``pid`` was restarted (0 = original boot)."""
        return self._incarnations.get(pid, 0)

    def crash(self, pid: ProcessId) -> None:
        """Crash ``pid`` now: no further events reach it, its sends stop.

        The crashed process's pending timers are purged — volatile state
        (and that includes armed timers) does not survive a crash, and long
        chaos runs must not accumulate dead timer entries.
        """
        self._check_pid(pid)
        if pid in self._crashed:
            return
        self._crashed.add(pid)
        self._ever_crashed.add(pid)
        self._contexts[pid]._kill()
        self._purge_timers(pid)
        if self.scheduler.controlled:
            # Controlled mode does not support restarts, so a pending
            # delivery to a crashed process is a no-op forever — cancel it
            # rather than let the model checker enumerate interleavings of
            # transitions that cannot change any state.
            for ev in self.scheduler.choice_events():
                if choice_target(ev.payload) == pid:
                    self.scheduler.cancel(ev)
        self.trace.record(self.now, CUSTOM, pid, event="crash")

    def crash_at(self, pid: ProcessId, time: Time) -> None:
        """Schedule a crash of ``pid`` at virtual ``time``.

        The callback is a *choice* transition targeting ``pid``: in
        controlled-schedule mode the model checker reorders the crash
        against deliveries and timers at the same process (crash-before vs
        crash-after races), exactly like the deliver/timer/crash
        independence relation in :mod:`repro.mc.vclock`.
        """
        self._check_pid(pid)
        self.scheduler.schedule_at(
            time,
            Callback(
                fn=lambda: self.crash(pid),
                label=f"crash-{pid}",
                pid=pid,
                choice=True,
            ),
        )

    def restart(self, pid: ProcessId, factory: Callable[[], Process]) -> Process:
        """Reboot a crashed process with fresh volatile state.

        ``factory`` builds the replacement instance (for a hosted process,
        its whole stack of interposers). The replacement loses everything
        the old incarnation held in memory — protocol state, timers, unacked
        channel buffers — but *durable* state survives by construction:
        trusted-hardware objects (TrInc trinkets, A2M logs, USIGs) and
        registered shared-memory objects live outside the process, so a
        factory that re-wires the same hardware models exactly the paper's
        setting where the trusted component's state is what outlasts the
        host. Messages still in flight when the reboot completes are
        delivered to the new incarnation; messages that arrived during the
        outage were dropped.

        Returns the new process instance (also reachable via
        :meth:`process`).
        """
        self._check_pid(pid)
        if pid not in self._crashed:
            raise ConfigurationError(
                f"pid {pid} is not crashed; restart must follow a crash"
            )
        fresh = factory()
        if fresh is self._processes[pid]:
            raise ConfigurationError(
                f"restart of pid {pid} must build a new instance; the old "
                "incarnation's volatile state is gone"
            )
        incarnation = self._incarnations.get(pid, 0) + 1
        self._incarnations[pid] = incarnation
        ctx = Context(
            self,
            pid,
            _derive_rng(self.seed, "proc", pid, "incarnation", incarnation),
            incarnation=incarnation,
        )
        fresh._attach(ctx)
        self._processes[pid] = fresh
        self._retired.append(self._contexts[pid])
        self._contexts[pid] = ctx
        self._crashed.discard(pid)
        self.trace.record(
            self.now, CUSTOM, pid, event="restart", incarnation=incarnation
        )
        if self._started:
            fresh.on_start()
        return fresh

    def restart_at(
        self,
        pid: ProcessId,
        time: Time,
        factory: Callable[[], Process],
    ) -> None:
        """Schedule a restart of ``pid`` at virtual ``time``."""
        self._check_pid(pid)
        self.scheduler.schedule_at(
            time,
            Callback(fn=lambda: self.restart(pid, factory), label=f"restart-{pid}"),
        )

    def _purge_timers(self, pid: ProcessId) -> None:
        # Indexed by pid: a crash purges exactly the crashed process's armed
        # timers without scanning every pending timer in the simulation.
        # Sorted: set iteration order is an implementation detail of the
        # interpreter, and while cancellation order cannot change the event
        # schedule, replayed controlled schedules compare internal counters
        # (compactions) across processes — keep every iteration canonical.
        for timer_id in sorted(self._timers_by_pid.pop(pid, ())):
            self.scheduler.cancel(self._timers.pop(timer_id))

    def _check_pid(self, pid: ProcessId) -> None:
        if not (0 <= pid < self.n):
            raise ConfigurationError(f"pid {pid} out of range (n={self.n})")

    # -- timers ------------------------------------------------------------------

    def set_timer(self, pid: ProcessId, delay: float, tag: Any) -> int:
        timer_id = self._next_timer_id
        self._next_timer_id += 1
        scheduler = self.scheduler
        ev = scheduler.schedule(delay, TimerFire(pid, tag, timer_id))
        self._timers[timer_id] = ev
        self._timers_by_pid.setdefault(pid, set()).add(timer_id)
        self._record(scheduler.now, TIMER_SET, pid, tag=tag, timer_id=timer_id)
        return timer_id

    def cancel_timer(self, timer_id: int) -> None:
        ev = self._timers.pop(timer_id, None)
        if ev is not None:
            self._timers_by_pid.get(ev.payload.pid, set()).discard(timer_id)
            self.scheduler.cancel(ev)

    # -- scenario scripting ----------------------------------------------------------

    def at(self, time: Time, fn: Callable[[], None], label: str = "") -> None:
        """Run ``fn`` at virtual ``time`` (partition healing, fault injection…)."""
        self.scheduler.schedule_at(time, Callback(fn, label))

    # -- controlled-schedule mode (bounded model checking) ---------------------------

    def enable_controlled(self) -> "Simulation":
        """Switch to controlled-schedule mode: the caller picks each event.

        Instead of :meth:`run` popping ``(time, seq)`` heap order, the
        owner (normally :class:`repro.mc.explorer.Explorer`) alternates
        :meth:`drain_forced` — deterministic glue events — with
        :meth:`choice_events` / :meth:`step_event` — the branching
        transitions of the schedule tree. Must be called before
        :meth:`start`; restarts (:meth:`restart_at`) are not supported in
        this mode (a restart script would have to race its own crash).
        """
        if self._started:
            raise ConfigurationError(
                "enable_controlled() must precede the first event"
            )
        self.scheduler.enable_controlled()
        return self

    def choice_events(self) -> list[Event]:
        """Co-enabled *choice* transitions, in canonical ``(time, seq)`` order.

        Deliveries, timer firings, and choice-marked callbacks (scripted
        crashes, SRB-oracle deliveries) that are pending and not chained
        behind an undispatched predecessor. Any of them may be stepped
        next; the set is sorted so schedule enumeration is bit-identical
        across processes and Python versions.
        """
        return self.scheduler.choice_events()

    def step_event(self, ev: Event) -> None:
        """Dispatch exactly ``ev`` (controlled mode)."""
        self.start()
        self.scheduler.step(ev)

    def drain_forced(self, limit: int = 100_000) -> int:
        """Dispatch every pending *forced* event in ``(time, seq)`` order.

        Forced events — scenario callbacks, shared-memory linearizations —
        are deterministic glue between choices, not choice points: they
        run eagerly so the choice set the explorer sees contains only
        genuine scheduling freedom. Returns the number dispatched; a
        dispatch may create new forced events, which drain too (``limit``
        guards against a forced-event livelock).
        """
        self.start()
        drained = 0
        # the top is re-read after each dispatch: new ones may sort first
        while (forced := self.scheduler.next_forced()) is not None:
            self.scheduler.step(forced)
            drained += 1
            if drained >= limit:
                raise SimulationError(
                    f"drain_forced dispatched {drained} events without "
                    "reaching a choice point; forced-event livelock?"
                )
        return drained

    # -- main loop -----------------------------------------------------------------

    def start(self) -> None:
        """Deliver ``on_start`` to every process (idempotent)."""
        if self._closed:
            raise SimulationError("the simulation is closed; it cannot run")
        if self._started:
            return
        self._started = True
        for pid, proc in enumerate(self._processes):
            if pid not in self._crashed:
                proc.on_start()

    def run(
        self,
        until: Time | None = None,
        max_events: int | None = None,
    ) -> RunStats:
        """Start (if needed) and run to quiescence, ``until``, or the horizon."""
        self.start()
        if until is None and self.horizon != float("inf"):
            until = self.horizon
        limit = max_events if max_events is not None else self.DEFAULT_MAX_EVENTS
        stats = self.scheduler.run(until=until, max_events=limit)
        if max_events is None and stats.events_processed >= limit:
            raise SimulationError(
                f"simulation exceeded the default event cap ({limit}); "
                "likely a livelock — pass max_events explicitly to override"
            )
        stats.consensus = self.collect_consensus_stats()
        stats.service = self.collect_service_stats()
        return stats

    def run_to_quiescence(self, max_events: int | None = None) -> RunStats:
        """Run until no events remain (requires protocols that go quiet)."""
        self.start()
        limit = max_events if max_events is not None else self.DEFAULT_MAX_EVENTS
        stats = self.scheduler.run(until=None, max_events=limit)
        if not stats.exhausted:
            raise SimulationError(
                f"no quiescence after {stats.events_processed} events"
            )
        stats.consensus = self.collect_consensus_stats()
        stats.service = self.collect_service_stats()
        return stats

    def close(self) -> None:
        """End the run, so that it is freed by reference count.

        Contexts (every incarnation's), network, shared memory, dispatch hook
        and pending events all lead back here: unclosed, a finished run is a
        reference cycle only the cycle collector frees. The trace, counters
        and :attr:`processes` still answer; the processes act as crashed;
        :meth:`run`, :meth:`start` and :meth:`step_event` raise
        :class:`~repro.errors.SimulationError`. Idempotent.
        """
        self._closed = True
        for ctx in (*self._contexts, *self._retired):
            ctx._kill()
            ctx._sim = None
        self.network._sim = self.memory._sim = None
        self.scheduler.close()
        self._handlers = {}
        for release in self._on_close:
            release()

    def on_close(self, release: Callable[[], None]) -> None:
        """Have :meth:`close` call ``release``: how a service bound from
        outside (an SRB oracle) lets go of the run and its processes."""
        self._on_close.append(release)

    def collect_consensus_stats(self) -> Optional[dict]:
        """Merge replication-pipeline counters over hosted processes.

        Any hosted process (:func:`~repro.sim.process.bare`, under every
        interposer) exposing ``consensus_stats() -> dict`` contributes; numeric
        values are summed key-wise and nested dicts (the batch-size
        histogram) are merged key-wise. Returns ``None`` when no hosted
        process exports pipeline counters, so non-consensus runs pay
        nothing and their :class:`RunStats` are unchanged.
        """
        return self._merge_stats("consensus_stats")

    def collect_service_stats(self) -> Optional[dict]:
        """Sum serving-layer counters over hosted processes (duck-typed).

        Same merge as :meth:`collect_consensus_stats`, over processes
        exposing ``service_stats() -> dict[str, number]``; ``None`` when no
        hosted process exports service counters.
        """
        return self._merge_stats("service_stats")

    def _merge_stats(self, exporter: str) -> Optional[dict]:
        total: Optional[dict] = None
        for proc in self._processes:
            stats_fn = getattr(bare(proc), exporter, None)
            if stats_fn is None:
                continue
            if total is None:
                total = {}
            for key, value in stats_fn().items():
                if isinstance(value, dict):
                    bucket = total.setdefault(key, {})
                    for k, v in value.items():
                        bucket[k] = bucket.get(k, 0) + v
                elif isinstance(value, (int, float)):
                    total[key] = total.get(key, 0) + value
        return total

    # -- dispatch -----------------------------------------------------------------
    #
    # One handler per payload type, selected by an exact-type table built in
    # __init__ (payload classes are named tuples — nothing subclasses them).
    # The table lookup replaces a five-way isinstance chain that ran once
    # per event; handlers take the payload directly, call the prebound
    # ``self._record`` (= ``self.trace.record`` resolved once) and read the
    # clock as the scheduler's attribute, not through the ``now`` property.

    def _dispatch(self, ev: Event) -> None:
        payload = ev.payload
        handler = self._handlers.get(type(payload))
        if handler is None:  # pragma: no cover - exhaustive over Payload union
            raise SimulationError(f"unknown event payload {payload!r}")
        handler(payload)

    def _on_deliver(self, payload: MessageDeliver) -> None:
        src, dst, msg, _send_time, duplicate = payload
        if dst in self._crashed:
            return
        self.network.note_delivered(duplicate)
        self._record(self.scheduler.now, DELIVER, dst, src=src, msg=msg)
        self._processes[dst].on_message(src, msg)

    def _on_timer_fire(self, payload: TimerFire) -> None:
        pid, tag, timer_id = payload
        if timer_id not in self._timers:
            return  # cancelled
        del self._timers[timer_id]
        # an armed timer is indexed under its pid (a purge drops both)
        self._timers_by_pid[pid].discard(timer_id)
        if pid in self._crashed:
            return
        self._record(self.scheduler.now, TIMER_FIRE, pid, tag=tag)
        self._processes[pid].on_timer(tag)

    def _on_op_linearize(self, payload: OpLinearize) -> None:
        self.memory.linearize(payload)

    def _on_op_respond(self, payload: OpRespond) -> None:
        pid, handle, object_name, op, result = payload
        self.memory.complete()
        if pid in self._crashed:
            return
        self._record(
            self.scheduler.now, OP_RESPOND, pid,
            handle=handle, object=object_name, op=op,
        )
        self._processes[pid].on_op_result(object_name, op, handle, result)

    def _on_callback(self, payload: Callback) -> None:
        payload.fn()
