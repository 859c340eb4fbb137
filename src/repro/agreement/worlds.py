"""World-based impossibility demonstrations for the agreement zoo.

The draft proves *"reliable broadcast cannot solve very weak Byzantine
agreement with n ≤ 2f"* by a five-world partitioning argument. As with the
§4.1 separation, :func:`vwa_rb_impossibility` declares the worlds as an
:class:`~repro.core.argument.Argument` against a concrete candidate, whose
``run(seed)`` / ``explore()`` audit both the forced commits and the
indistinguishabilities.

The candidate (:class:`QuorumVWA`) is the canonical fault-tolerant design:
exchange inputs over reliable broadcast, wait for values from ``n - f``
distinct processes (more could block forever on the faulty set), commit
the value if all match, else ⊥. Over *unidirectional* rounds the same
decision rule is exactly the draft's correct protocol — here, over RB at
``n = 2f``, the worlds force it into an agreement violation:

- **World 1**: Q crashed, P has input 0 ⇒ P must terminate on P alone.
- **World 2**: all correct, all input 0, P⇄Q delayed ⇒ indistinguishable
  to P from World 1, and weak validity forces P to commit **0**.
- **Worlds 3, 4**: mirror images with input 1 for Q.
- **World 5**: P has 0, Q has 1, cross-messages delayed ⇒ P sees World 2,
  Q sees World 4 ⇒ P commits 0, Q commits 1 — **agreement violated**.

So in every world each correct process is forced to commit its own input,
and that is the one obligation each world checks. (The candidate cannot
dodge by committing ⊥ "when it hears nobody else": in Worlds 2 and 4
everyone is correct and shares an input, so weak validity forbids ⊥.)
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

from ..broadcast.definitions import BOT, collect_commits
from ..core.argument import Argument, World
from ..core.srb_oracle import SRBOracle, SRBSenderHandle
from ..errors import ConfigurationError
from ..sim.partition import split
from ..sim.process import Process
from ..sim.runner import Simulation
from ..types import ProcessId

IMMEDIATE = 0.05


class QuorumVWA(Process):
    """Very-weak-agreement candidate over reliable broadcast (n-f quorum).

    Broadcast own input; upon values from ``n - f`` distinct streams,
    commit the common value if unanimous, else ⊥.
    """

    def __init__(self, oracle: SRBOracle, f: int, my_input: Any) -> None:
        super().__init__()
        self.oracle = oracle
        self.f = f
        self.my_input = my_input
        self._values: dict[ProcessId, Any] = {}
        self._handle: Optional[SRBSenderHandle] = None
        self._committed = False

    def on_start(self) -> None:
        self.ctx.record("custom", event="input", value=self.my_input)
        self.oracle.subscribe(self.pid, self._on_deliver)
        self._handle = self.oracle.sender_handle(self.pid)
        self._handle.broadcast(("VWA", self.my_input))

    def _on_deliver(self, src: ProcessId, seq: int, value: Any) -> None:
        if self._committed:
            return
        if not (isinstance(value, tuple) and len(value) == 2 and value[0] == "VWA"):
            return
        if src not in self._values:
            self._values[src] = value[1]
        if len(self._values) >= self.ctx.n - self.f:
            self._committed = True
            vals = list(self._values.values())
            unanimous = all(v == vals[0] for v in vals)
            self.ctx.decide(vals[0] if unanimous else BOT)


def commits(sim: Simulation) -> dict[ProcessId, Any]:
    """First commit of every process that stayed correct, in decision order."""
    return collect_commits(sim.trace, sim.fault_free_pids)


def vwa_rb_impossibility(f: int = 2) -> Argument:
    """The five worlds at ``n = 2f`` (P, Q of size f each)."""
    if f < 1:
        raise ConfigurationError(f"f must be >= 1, got {f}")
    n = 2 * f
    sets = split(n, [f, f], ["P", "Q"])
    p_set, q_set = sets["P"], sets["Q"]

    def world(
        number: int,
        inputs: Mapping[ProcessId, Any],
        crashed: Iterable[ProcessId],
        cross_delayed: bool,
    ) -> World:
        def policy(s, r, seq, now):
            if cross_delayed and (s in p_set) != (r in p_set):
                return None  # "arbitrarily delayed" for the whole run
            return IMMEDIATE

        def build(seed: int) -> Simulation:
            oracle = SRBOracle(policy=policy, seed=seed)
            procs = [QuorumVWA(oracle, f, inputs[pid]) for pid in range(n)]
            sim = Simulation(procs, seed=seed)
            oracle.bind(sim)
            for pid in crashed:
                sim.declare_byzantine(pid)
                sim.crash(pid)
            return sim

        def check(sim: Simulation) -> list[str]:
            made = commits(sim)
            bad = {
                pid: made.get(pid)
                for pid in sim.fault_free_pids
                if made.get(pid) != inputs[pid]
            }
            return [f"forced commits violated ({bad})"] if bad else []

        return World(f"world{number}", build, check)

    zeros = {pid: 0 for pid in range(n)}
    ones = {pid: 1 for pid in range(n)}
    mixed = {pid: (0 if pid in p_set else 1) for pid in range(n)}
    return Argument(
        "vwa-rb-impossibility",
        worlds=(
            world(1, zeros, crashed=q_set, cross_delayed=False),
            world(2, zeros, crashed=(), cross_delayed=True),
            world(3, ones, crashed=p_set, cross_delayed=False),
            world(4, ones, crashed=(), cross_delayed=True),
            world(5, mixed, crashed=(), cross_delayed=True),
        ),
        indistinguishable=(
            ("P", p_set, "world2", "world5"),
            ("Q", q_set, "world4", "world5"),
            ("P", p_set, "world1", "world2"),
            ("Q", q_set, "world3", "world4"),
        ),
        sets=sets,
    )
