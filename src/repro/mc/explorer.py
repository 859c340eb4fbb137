"""Stateless DFS schedule exploration with dynamic partial-order reduction.

The explorer drives a fresh :class:`~repro.sim.runner.Simulation` (from a
user factory) through every interleaving of its *choice* transitions —
message deliveries, timer firings, choice-marked callbacks — up to a
bound. The simulator cannot be checkpointed, so the search is *stateless*
in the Verisoft/Flanagan–Godefroid sense: to visit a node of the schedule
tree, the whole prefix is re-executed from scratch (cheap here: one
execution is a few hundred microseconds of pure-Python event dispatch).
Each execution's simulation is closed when its branch ends, after the
check and ``on_leaf``, so it is freed by reference count, not by the cycle
collector; :meth:`Explorer.replay` hands its simulation over open.

Between choices, *forced* events (scenario callbacks, shared-memory
linearizations) drain eagerly in canonical ``(time, seq)`` order — they
are deterministic glue, not scheduling freedom — so the branching factor
is exactly the number of co-enabled choice transitions.

Reduction (``dpor=True``, the default) is classic DPOR with sleep sets:

- every executed transition gets a vector clock (:mod:`repro.mc.vclock`)
  joining its event's *creation* clock — found by snapshotting the
  scheduler's seq watermark around each dispatch — its ``after``-chain
  predecessor's clock, and the last clock at its target process;
- executing ``t`` at depth ``d`` scans backwards for the deepest earlier
  transition that is dependent with ``t`` but not a cause of it (a race),
  and adds ``t`` (or, if ``t`` did not exist there, the whole enabled set)
  to that state's backtrack set;
- sleep sets prune sibling orders of independent transitions: after a
  subtree is fully explored its root transition goes to sleep, and sleeps
  through every sibling it is independent with.

Soundness caveat: with ``max_steps`` truncation a race below the horizon
can be missed — bounded DPOR is exhaustive only for systems that quiesce
within the bound. ``dpor=False`` (naive full enumeration) is the reference
oracle; ``tests/test_mc_explorer.py`` checks the two produce identical
verdicts on micro-systems.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from ..errors import ConfigurationError, PropertyViolation
from ..sim.events import Event, TimerFire, choice_target
from ..sim.runner import Simulation
from ..types import ProcessId
from .schedule import (
    Schedule,
    event_fingerprint,
    fingerprint_digest,
    parse_schedule_id,
    schedule_id,
)
from .vclock import VClock, dependent, join, leq

Factory = Callable[[], Any]
"""Builds one fresh, un-started system per execution. May return the
:class:`~repro.sim.runner.Simulation` itself, a tuple containing it, or
any object with a ``sim`` attribute — the extra structure (processes,
checkers) is handed back to ``check`` / ``on_leaf`` untouched."""


def _sim_of(state: Any) -> Simulation:
    if isinstance(state, Simulation):
        return state
    if isinstance(state, tuple):
        for item in state:
            if isinstance(item, Simulation):
                return item
    sim = getattr(state, "sim", None)
    if isinstance(sim, Simulation):
        return sim
    raise ConfigurationError(
        "factory must return a Simulation, a tuple containing one, or an "
        f"object with a .sim attribute; got {type(state).__name__}"
    )


@dataclass(frozen=True, slots=True)
class Violation:
    """One convicted schedule: its replayable id and what went wrong."""

    schedule: str
    message: str
    depth: int


@dataclass(slots=True)
class ExplorationResult:
    """What one exploration covered, and what it found.

    ``schedules`` counts maximal branches (quiescent leaves, truncated
    leaves, violation-aborted branches); comparing it between a
    ``dpor=True`` and a ``dpor=False`` run of the same system yields the
    reduction factor — the headline number of this subsystem.
    """

    dpor: bool = True
    schedules: int = 0
    transitions: int = 0
    """Choice transitions dispatched, replayed prefixes included — the
    actual work done, which is what schedules/sec benchmarks divide by."""
    max_depth: int = 0
    violations: list[Violation] = field(default_factory=list)
    sleep_pruned: int = 0
    truncated: int = 0
    complete: bool = True
    """False when ``max_schedules`` / ``stop_at_first_violation`` cut the
    search short; ``max_steps`` truncation is reported via ``truncated``."""

    @property
    def ok(self) -> bool:
        return not self.violations

    def reduction_vs(self, naive: "ExplorationResult") -> float:
        """How many times fewer schedules than ``naive`` explored."""
        return naive.schedules / max(self.schedules, 1)


def merge_results(results: Iterable[ExplorationResult]) -> ExplorationResult:
    """Combine shard results (e.g. from a parallel root split)."""
    merged = ExplorationResult()
    first = True
    for r in results:
        if first:
            merged.dpor = r.dpor
            first = False
        merged.schedules += r.schedules
        merged.transitions += r.transitions
        merged.max_depth = max(merged.max_depth, r.max_depth)
        merged.violations.extend(r.violations)
        merged.sleep_pruned += r.sleep_pruned
        merged.truncated += r.truncated
        merged.complete = merged.complete and r.complete
    return merged


@dataclass(slots=True)
class ReplayResult:
    """Outcome of re-executing one schedule id."""

    state: Any
    sim: Simulation
    violation: Optional[str]
    steps_applied: int


@dataclass(slots=True)
class _Frame:
    """One state on the current DFS path (the state *before* its choice)."""

    enabled_seqs: tuple[int, ...]
    targets: dict[int, Optional[ProcessId]]
    backtrack: set[int]
    done: set[int] = field(default_factory=set)
    sleep: set[int] = field(default_factory=set)
    pinned: bool = False
    """Shard roots: the forced choice is fixed; race-detected backtrack
    additions here belong to sibling shards and are never picked up."""
    chosen_target: Optional[ProcessId] = None
    chosen_clock: VClock = field(default_factory=dict)


_STOP = "stop"
_CONTINUE = "continue"


class Explorer:
    """Bounded exhaustive exploration of one system's schedule tree.

    ``check(state)`` runs at every *quiescent* leaf and returns a violation
    message or ``None``; :class:`~repro.errors.PropertyViolation` raised
    mid-branch by fail-fast streaming checkers convicts the branch at that
    step and prunes everything below it. ``on_leaf(state, schedule)`` runs
    at quiescent leaves after ``check`` — the hook exhaustive separation
    runners use to collect per-schedule views.

    ``choice_targets`` bounds the exploration: choices targeting other
    processes are dispatched eagerly in canonical order instead of
    branching — "quantify over the schedules at these processes, fix the
    rest" — which is how the separation scenarios stay tractable.
    ``fire_timers=False`` suppresses timer transitions entirely (they stay
    queued, never fire), the bound used for systems whose timers re-arm
    forever.
    """

    def __init__(
        self,
        factory: Factory,
        check: Optional[Callable[[Any], Optional[str]]] = None,
        on_leaf: Optional[Callable[[Any, Schedule], None]] = None,
        *,
        dpor: bool = True,
        max_steps: Optional[int] = None,
        max_schedules: Optional[int] = None,
        stop_at_first_violation: bool = False,
        fire_timers: bool = True,
        choice_targets: Optional[Iterable[ProcessId]] = None,
    ) -> None:
        self._factory = factory
        self._check = check
        self._on_leaf = on_leaf
        self._dpor = dpor
        self._max_steps = max_steps
        self._max_schedules = max_schedules
        self._stop_first = stop_at_first_violation
        self._fire_timers = fire_timers
        self._focus = None if choice_targets is None else frozenset(choice_targets)

    # -- execution machinery -------------------------------------------------

    def _fresh(self) -> tuple[Any, Simulation]:
        state = self._factory()
        sim = _sim_of(state)
        sim.enable_controlled()
        return state, sim

    def _settle(self, sim: Simulation) -> list[Event]:
        """Drain glue and out-of-bound choices; return the branching set."""
        while True:
            sim.drain_forced()
            eligible: list[Event] = []
            for ev in sim.choice_events():
                payload = ev.payload
                if not self._fire_timers and isinstance(payload, TimerFire):
                    continue  # suppressed: stays queued, never fires
                if (
                    self._focus is not None
                    and choice_target(payload) not in self._focus
                ):
                    sim.step_event(ev)  # the first out-of-bound choice
                    break
                eligible.append(ev)
            else:
                return eligible

    @staticmethod
    def _creation_clock(
        seq: int, bounds: list[int], depth_clocks: list[VClock]
    ) -> VClock:
        """Clock of the dispatch that created event ``seq`` ({} = setup)."""
        idx = bisect.bisect_right(bounds, seq)
        if idx == 0:
            return {}
        return depth_clocks[idx - 1]

    def _make_frame(self, eligible: Sequence[Event],
                    sleep: Iterable[int] = ()) -> _Frame:
        seqs = tuple(ev.seq for ev in eligible)
        targets = {ev.seq: choice_target(ev.payload) for ev in eligible}
        sleep_set = {s for s in sleep if s in targets}
        if self._dpor:
            seed = next((s for s in seqs if s not in sleep_set), None)
            backtrack = set() if seed is None else {seed}
        else:
            backtrack = set(seqs)
        return _Frame(
            enabled_seqs=seqs, targets=targets, backtrack=backtrack,
            sleep=sleep_set,
        )

    def _execute(
        self,
        state: Any,
        sim: Simulation,
        frames: list[_Frame],
        path: list[int],
        fps: list[tuple],
        res: ExplorationResult,
        root_choice: Optional[int],
        root_sleep: tuple[int, ...],
    ) -> str:
        """Re-execute the prefix in ``path`` on the fresh ``sim``, extend
        to one maximal branch.

        Persistent search state (``frames``' backtrack/done/sleep sets)
        survives across calls; simulator state and clocks are rebuilt. The
        branch ends at a quiescent leaf, a truncation, a sleep-blocked
        state, or a convicted violation. Returns ``_STOP`` to end the
        whole search (root-settle violation or stop-at-first-violation).
        """
        bounds: list[int] = []
        depth_clocks: list[VClock] = []
        executed_clock: dict[int, VClock] = {}
        last_clock: dict[Optional[ProcessId], VClock] = {}

        def record_violation(message: str, depth: int) -> None:
            sched = Schedule.from_run(tuple(path), tuple(fps))
            res.violations.append(
                Violation(schedule=schedule_id(sched), message=message,
                          depth=depth)
            )

        try:
            eligible = self._settle(sim)
        except PropertyViolation as exc:
            # the deterministic prefix before any choice already violates:
            # every schedule shares it, so the search is over
            res.schedules += 1
            record_violation(str(exc), depth=0)
            return _STOP
        bounds.append(sim.scheduler.next_seq)

        if not frames:
            root = self._make_frame(
                eligible,
                sleep=(
                    eligible[i].seq for i in root_sleep if i < len(eligible)
                ),
            )
            if root_choice is not None:
                if root_choice >= len(eligible):
                    raise ConfigurationError(
                        f"root_choice {root_choice} out of range: only "
                        f"{len(eligible)} root transitions"
                    )
                root.backtrack = {eligible[root_choice].seq}
                root.pinned = True
            frames.append(root)

        depth = 0
        while True:
            frame = frames[depth]
            by_seq = {ev.seq: ev for ev in eligible}

            if depth == len(path):
                # leaf / prune checks apply where a new choice is due
                if not frame.enabled_seqs:
                    res.schedules += 1
                    res.max_depth = max(res.max_depth, depth)
                    message = self._check(state) if self._check else None
                    if message:
                        record_violation(message, depth)
                    if self._on_leaf is not None:
                        self._on_leaf(
                            state, Schedule.from_run(tuple(path), tuple(fps))
                        )
                    return _CONTINUE
                if all(s in frame.sleep for s in frame.enabled_seqs):
                    res.sleep_pruned += 1
                    return _CONTINUE
                if self._max_steps is not None and depth >= self._max_steps:
                    res.schedules += 1
                    res.truncated += 1
                    res.max_depth = max(res.max_depth, depth)
                    # sterilize: nothing below the horizon is explored, so
                    # this frame must never look like pending work to the
                    # backtrack scan (it would re-truncate forever)
                    frame.backtrack.clear()
                    return _CONTINUE
                todo = frame.backtrack - frame.done - frame.sleep
                if not todo:
                    # every required branch here is already covered
                    return _CONTINUE
                path.append(min(todo))
                del fps[depth:]

            choice_seq = path[depth]
            ev = by_seq.get(choice_seq)
            if ev is None:
                raise ConfigurationError(
                    f"schedule does not replay: seq {choice_seq} is not "
                    f"co-enabled at depth {depth} (nondeterministic factory?)"
                )
            if len(fps) == depth:
                fps.append(event_fingerprint(ev))
            frame.done.add(choice_seq)

            target = frame.targets.get(choice_seq)
            clock = dict(self._creation_clock(ev.seq, bounds, depth_clocks))
            if ev.after is not None:
                after_clock = executed_clock.get(ev.after.seq)
                if after_clock:
                    clock = join(clock, after_clock)
            if self._dpor:
                for j in range(depth - 1, -1, -1):
                    prev = frames[j]
                    if dependent(prev.chosen_target, target) and not leq(
                        prev.chosen_clock, clock
                    ):
                        if choice_seq in prev.targets:
                            prev.backtrack.add(choice_seq)
                        else:
                            prev.backtrack.update(prev.enabled_seqs)
                        break

            exec_clock = join(clock, last_clock.get(target, {}))
            exec_clock[target] = depth + 1
            frame.chosen_target = target
            frame.chosen_clock = exec_clock
            executed_clock[choice_seq] = exec_clock
            last_clock[target] = exec_clock
            depth_clocks.append(exec_clock)

            res.transitions += 1
            try:
                sim.step_event(ev)
                eligible = self._settle(sim)
            except PropertyViolation as exc:
                del path[depth + 1:]
                del fps[depth + 1:]
                res.max_depth = max(res.max_depth, depth + 1)
                res.schedules += 1
                record_violation(str(exc), depth + 1)
                del frames[depth + 1:]
                del path[depth:]
                return _STOP if self._stop_first else _CONTINUE
            bounds.append(sim.scheduler.next_seq)

            if depth + 1 == len(frames):
                child_sleep: set[int] = set()
                if self._dpor:
                    # explored siblings sleep through independent successors
                    asleep = (frame.sleep | frame.done) - {choice_seq}
                    child_sleep = {
                        s
                        for s in asleep
                        if s in frame.targets
                        and not dependent(frame.targets[s], target)
                    }
                frames.append(self._make_frame(eligible, sleep=child_sleep))
            depth += 1
            res.max_depth = max(res.max_depth, depth)

    # -- public API ----------------------------------------------------------

    def run(
        self,
        root_choice: Optional[int] = None,
        root_sleep: tuple[int, ...] = (),
    ) -> ExplorationResult:
        """Explore the schedule tree; see class docstring for the bounds.

        ``root_choice`` / ``root_sleep`` implement sharded exploration
        (:func:`repro.faults.chaos.exhaustive_sweep`): the shard explores
        only the subtree under the ``root_choice``-th root transition,
        with earlier siblings seeded asleep — a naive split at the root
        (all root branches covered across shards, so no cross-shard
        backtrack propagation is needed) and full DPOR below it.
        """
        res = ExplorationResult(dpor=self._dpor)
        frames: list[_Frame] = []
        path: list[int] = []
        fps: list[tuple] = []
        while True:
            state, sim = self._fresh()
            try:
                outcome = self._execute(
                    state, sim, frames, path, fps, res, root_choice, root_sleep
                )
            finally:
                sim.close()
            if outcome == _STOP:
                res.complete = False
                break
            if self._stop_first and res.violations:
                res.complete = False
                break
            if (
                self._max_schedules is not None
                and res.schedules >= self._max_schedules
            ):
                res.complete = False
                break
            # deepest frame with an unexplored required branch
            d = len(frames) - 1
            while d >= 0:
                f = frames[d]
                if not f.pinned and (f.backtrack - f.done - f.sleep):
                    break
                d -= 1
            if d < 0:
                break
            del frames[d + 1:]
            del path[d:]
            del fps[d:]
        return res

    def replay(self, schedule: Schedule | str) -> ReplayResult:
        """Re-execute one schedule bit-exactly; verify its fingerprint.

        A :class:`~repro.errors.PropertyViolation` raised along the way is
        captured in the result (that is the counterexample reproducing),
        not re-raised. The digest is verified when every step applied; a
        mismatch means the schedule id belongs to a different system.
        """
        if isinstance(schedule, str):
            schedule = parse_schedule_id(schedule)
        state, sim = self._fresh()
        fingerprints: list[tuple] = []
        violation: Optional[str] = None
        applied = 0
        try:
            eligible = self._settle(sim)
            for seq in schedule.steps:
                ev = next((e for e in eligible if e.seq == seq), None)
                if ev is None:
                    raise ConfigurationError(
                        f"schedule does not replay: seq {seq} not co-enabled "
                        f"after {applied} steps"
                    )
                fingerprints.append(event_fingerprint(ev))
                sim.step_event(ev)
                applied += 1
                eligible = self._settle(sim)
        except PropertyViolation as exc:
            violation = str(exc)
        if (
            violation is None
            and applied == len(schedule.steps)
            and self._check is not None
        ):
            # quiescent-leaf checks (liveness audits) re-run here so their
            # counterexamples reproduce the same way fail-fast ones do
            violation = self._check(state)
        if applied == len(schedule.steps) and schedule.digest:
            digest = fingerprint_digest(tuple(fingerprints))
            if digest != schedule.digest:
                raise ConfigurationError(
                    f"schedule digest mismatch: id says {schedule.digest}, "
                    f"replay produced {digest} — wrong system or drifted code"
                )
        return ReplayResult(
            state=state, sim=sim, violation=violation, steps_applied=applied
        )


# -- module-level conveniences ---------------------------------------------


def explore(
    factory: Factory,
    check: Optional[Callable[[Any], Optional[str]]] = None,
    on_leaf: Optional[Callable[[Any, Schedule], None]] = None,
    **options: Any,
) -> ExplorationResult:
    """One-shot exploration; see :class:`Explorer` for the options."""
    return Explorer(factory, check=check, on_leaf=on_leaf, **options).run()


def replay_schedule(
    factory: Factory, schedule: Schedule | str, **options: Any
) -> ReplayResult:
    """Reproduce one counterexample schedule id against a fresh system."""
    return Explorer(factory, **options).replay(schedule)


def root_choice_count(factory: Factory, **options: Any) -> int:
    """Number of root transitions — the shard count for a parallel split."""
    explorer = Explorer(factory, **options)
    _, sim = explorer._fresh()
    try:
        return len(explorer._settle(sim))
    finally:
        sim.close()
