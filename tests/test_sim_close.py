"""A closed simulation is freed by reference count, and still answers.

Every per-run loop (explorer schedules, chaos / attack cells, load cells)
closes its simulation after the last read. If any cycle survives — a hub
back-reference ``close`` does not cut, or a process that reaches itself —
the run's objects wait for the cycle collector instead, whose passes are
then billed to whatever runs next. Each case below runs with the
collector off and asserts it has nothing left to free afterwards.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.faults.attacks import ATTACKS
from repro.faults.chaos import PROTOCOLS, run_attack, run_chaos
from repro.mc.explorer import Explorer, root_choice_count
from repro.mc.fixtures import SYSTEMS
from repro.sim.process import Process
from repro.sim.runner import Simulation
from repro.sim.shared_memory import SMProgram, Sleep
from repro.workloads import run_pipeline_load

# small where the default is not: the storm fixture serves 32 tenants
CHAOS_KWARGS = {"service-storm": dict(n_tenants=4, ops_per_tenant=4)}


def cyclic_garbage(run) -> int:
    """Objects the cycle collector frees after ``run()`` and nothing else."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_explored_schedule_leaves_no_cycle(name):
    s = SYSTEMS[name]
    explorer = Explorer(s.factory, check=s.check, max_schedules=1, **s.options)
    assert cyclic_garbage(explorer.run) == 0
    assert cyclic_garbage(lambda: root_choice_count(s.factory, **s.options)) == 0


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_chaos_cell_leaves_no_cycle(protocol):
    # seed 0 crashes and restarts a process in the cells checked below: the
    # replaced incarnation and its context must go too
    results = []
    run = lambda: results.append(
        run_chaos(protocol, 0, **CHAOS_KWARGS.get(protocol, {}))
    )
    assert cyclic_garbage(run) == 0
    if protocol in ("srb-uni", "minbft", "service"):
        assert results[0].stats["restarts"] >= 1


@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_attack_cell_leaves_no_cycle(attack):
    assert cyclic_garbage(lambda: run_attack(attack, 0)) == 0


@pytest.mark.parametrize("protocol", ["minbft", "pbft"])
def test_load_cell_leaves_no_cycle(protocol):
    run = lambda: run_pipeline_load(protocol, n_requests=40, rate=20.0, seed=3)
    assert cyclic_garbage(run) == 0


class Pinger(Process):
    def on_start(self) -> None:
        self.ctx.send(1 - self.pid, "ping")
        self.ctx.set_timer(50.0, "pending at close")


def closed_sim() -> Simulation:
    sim = Simulation([Pinger(), Pinger()], seed=1)
    sim.run(until=10.0)
    sim.close()
    return sim


class Sleeper(SMProgram):
    """Suspended in its generator: frame and process hold each other."""

    def program(self):
        while True:
            yield Sleep(1.0)


def test_an_incarnation_with_a_cycle_of_its_own_does_not_hold_the_run():
    sim = Simulation([Sleeper()], seed=1)
    sim.crash_at(0, 1.5)
    sim.restart_at(0, 2.0, factory=Sleeper)
    sim.run(until=5.0)
    sim.close()
    gc.disable()
    try:
        # the replaced incarnation is cyclic garbage, but its context no
        # longer reaches the simulation
        freed = weakref.ref(sim)
        del sim
        assert freed() is None
    finally:
        gc.enable()


def test_close_is_idempotent():
    sim = closed_sim()
    sim.close()
    assert cyclic_garbage(lambda: closed_sim().close()) == 0


@pytest.mark.parametrize(
    "step", [
        lambda sim: sim.run(until=10.0),
        lambda sim: sim.run_to_quiescence(),
        lambda sim: sim.start(),
        lambda sim: sim.drain_forced(),
    ],
)
def test_closed_simulation_refuses_to_run(step):
    with pytest.raises(SimulationError, match="closed"):
        step(closed_sim())


def test_closed_simulation_refuses_to_step_an_event():
    sim = Simulation([Pinger(), Pinger()], seed=1).enable_controlled()
    sim.drain_forced()
    first = sim.choice_events()[0]
    sim.close()
    with pytest.raises(SimulationError, match="closed"):
        sim.step_event(first)


def test_closed_simulation_still_answers():
    sim = closed_sim()
    assert [ev.pid for ev in sim.trace.events("deliver")] == [0, 1]
    assert len(sim.trace.events("timer_set")) == 2
    assert sim.network.messages_sent == 2
    assert sim.network.messages_delivered == 2
    assert [type(p) for p in sim.processes] == [Pinger, Pinger]
    # a closed run's processes act like crashed ones: their actions are no-ops
    sim.process(0).ctx.send(1, "late")
    assert sim.network.messages_sent == 2
