"""One engine for the paper's indistinguishability arguments.

Each impossibility proof here is a short list of concrete executions,
called *worlds*, with two kinds of proof obligation. Inside a world
something is forced: a set of processes finishes the round, a value is
committed, or directionality breaks. Across worlds, some processes cannot
tell two worlds apart, because their local views coincide. Running code
cannot *prove* the theorem, but it can run the worlds and audit both kinds
of obligation. This module does that for any argument declared as data:

- :class:`World`: a name, ``build(seed)`` returning a ready
  :class:`~repro.sim.runner.Simulation` (crashes and Byzantine pids
  declared), and ``check(sim)`` returning the world's failed obligations;
- :class:`Argument`: the worlds, the indistinguishable pairs
  ``(label, members, world_a, world_b)``, the processes whose deliveries an
  exploration branches on, and the horizon of a timed run.

:meth:`Argument.run` runs every world once in timed mode; that run is the
world's one leaf. :meth:`Argument.explore` model-checks every world with
:func:`repro.mc.explore`; every quiescent schedule is a leaf. Both modes
call the same ``check`` at every leaf and collect, per process, the *set*
of local views it had in each world. A pair is indistinguishable when its
members' view sets coincide in the two worlds. Over one sampled run that is
plain ``view == view``; over an exploration it is the proof's "for every
execution". An exploration cut short by ``max_schedules`` covers different
prefixes per world, so its view sets are not compared. Both modes return
one :class:`ArgumentOutcome`.

The declarations are :func:`repro.core.separations.srb_separation` (§4.1),
:func:`repro.agreement.worlds.vwa_rb_impossibility` (five worlds) and
:func:`repro.agreement.strong_worlds.strong_validity_impossibility` (three
worlds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from ..errors import PropertyViolation
from ..sim.runner import Simulation
from ..types import ProcessId, ProcessSet

MAX_REPORTED = 4
"""Failing leaves an exploration reports per world."""

EXPLORE_SEED = 0
"""Seed of every world an exploration builds: the schedule varies, not it."""


@dataclass(frozen=True, slots=True)
class World:
    """One execution of an argument and the obligations it must meet."""

    name: str
    build: Callable[[int], Simulation]
    check: Callable[[Simulation], list[str]]


@dataclass(slots=True)
class ArgumentOutcome:
    """What one run or exploration of an :class:`Argument` verified.

    ``worlds`` maps each world's name to its finished
    :class:`~repro.sim.runner.Simulation` (:meth:`Argument.run`) or its
    :class:`~repro.mc.explorer.ExplorationResult` (:meth:`Argument.explore`).
    ``problems`` lists every failed obligation; an exploration tags a leaf's
    problems with its replayable schedule id. ``distinguished`` holds the
    labels of the indistinguishable pairs whose view sets differed.
    """

    name: str
    sets: dict[str, ProcessSet]
    worlds: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    distinguished: set[str] = field(default_factory=set)
    complete: bool = True

    @property
    def holds(self) -> bool:
        return not self.problems

    def assert_holds(self) -> None:
        if self.problems:
            raise PropertyViolation(self.name, "; ".join(self.problems))


@dataclass(frozen=True, slots=True)
class Argument:
    """An impossibility argument: worlds plus who cannot tell which apart."""

    name: str
    worlds: tuple[World, ...]
    indistinguishable: tuple[tuple[str, Iterable[ProcessId], str, str], ...]
    sets: dict[str, ProcessSet] = field(default_factory=dict)
    choice_targets: Optional[tuple[ProcessId, ...]] = None
    horizon: float = 200.0

    def run(self, seed: int = 0) -> ArgumentOutcome:
        """Run every world once, timed, to the horizon."""

        def run_world(world: World, leaf: Callable) -> tuple[Simulation, bool]:
            sim = world.build(seed)
            sim.run(until=self.horizon)
            leaf(sim, "")
            return sim, True

        return self._collect(run_world)

    def explore(self, max_schedules: Optional[int] = None) -> ArgumentOutcome:
        """Check every world over every delivery order at the focus.

        ``choice_targets`` bounds each exploration: deliveries to other
        processes drain in canonical order instead of branching.
        ``max_schedules`` caps each world for quick runs; ``complete``
        reports whether the cap cut anything off.
        """
        from ..mc.explorer import explore
        from ..mc.schedule import schedule_id

        def explore_world(world: World, leaf: Callable) -> tuple[Any, bool]:
            result = explore(
                lambda: world.build(EXPLORE_SEED),
                on_leaf=lambda sim, schedule: leaf(
                    sim, f" in schedule {schedule_id(schedule)}"
                ),
                choice_targets=self.choice_targets,
                max_schedules=max_schedules,
            )
            return result, result.complete

        return self._collect(explore_world)

    def _collect(
        self, execute: Callable[[World, Callable], tuple[Any, bool]]
    ) -> ArgumentOutcome:
        out = ArgumentOutcome(self.name, self.sets)
        views: dict[str, dict[ProcessId, set]] = {}
        for world in self.worlds:
            seen: dict[ProcessId, set] = views.setdefault(world.name, {})
            reported = 0

            # called only while ``execute`` runs, so the loop variables
            # are still this world's
            def leaf(sim: Simulation, where: str) -> None:
                nonlocal reported
                failed = world.check(sim)
                if failed and reported < MAX_REPORTED:
                    reported += 1
                    out.problems.extend(
                        f"{world.name}: {problem}{where}" for problem in failed
                    )
                for pid in range(sim.n):
                    seen.setdefault(pid, set()).add(sim.trace.local_view(pid))

            out.worlds[world.name], complete = execute(world, leaf)
            out.complete = out.complete and complete
        if out.complete:
            for label, members, a, b in self.indistinguishable:
                if any(views[a].get(p) != views[b].get(p) for p in members):
                    out.distinguished.add(label)
                    out.problems.append(f"{label} views distinguish {a} from {b}")
        return out
