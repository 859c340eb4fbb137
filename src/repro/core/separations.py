"""Executable separation: SRB cannot implement unidirectionality (§4.1).

The paper's argument (n > 2f, f > 1; sets Q of size n-f, C1 = {p}, C2 of
size f-1) is three concrete executions:

- **Scenario 1** — p ∈ C1 crashed from the start; C2→Q messages arbitrarily
  delayed; everything else immediate. Q and C2 must finish the round
  (from their view, C1 ∪ C2 could be the ≤ f faulty set / they hear all
  correct processes). A C2 process finishes *without hearing C1*.
- **Scenario 2** — mirror image: C2 crashed, C1→Q delayed. C1 finishes
  without hearing C2.
- **Scenario 3** — nobody faulty; everything out of C1 and out of C2 to
  the other sets delayed. Indistinguishable to Q from both scenarios, to
  C1 from Scenario 2, to C2 from Scenario 1 — so C1 and C2 both finish the
  round having heard nothing from each other: **unidirectionality fails**.

:func:`srb_separation` declares them as an
:class:`~repro.core.argument.Argument` against a *candidate*
round-over-SRB protocol: each scenario's survivors must finish the round,
Scenario 3 must violate unidirectionality, and the views must line up as
above. ``srb_separation(n, f).run(seed)`` runs one timed execution per
scenario; ``.explore()`` checks every order of the deliveries *to the
corner sets* C1 ∪ C2 (deliveries to Q drain canonically), comparing the
sets of views each process can have. The default candidate waits for round
messages from ``n - f`` distinct SRB streams — the most a fault-tolerant
protocol can wait for without risking waiting on the faulty set forever;
any :class:`RoundProcess`-compatible candidate factory can be plugged in
and shown to fail too (two-phase forwarding rescues only ``f = 1``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from ..sim.partition import srb_separation_sets
from ..sim.process import Process
from ..sim.runner import Simulation
from ..types import ProcessId
from .argument import Argument, World
from .directionality import check_directionality
from .srb_oracle import SRBOracle, SRBSenderHandle

IMMEDIATE = 0.05
"""Delay used for 'received immediately' links (constant, for determinism)."""


class CandidateSRBRound(Process):
    """A round implemented over SRB: broadcast, wait for n-f streams, finish.

    Records the standard round trace events so
    :func:`~repro.core.directionality.check_directionality` audits it like
    any transport. ``on_finished`` hook marks "starts the next round".
    """

    LABEL = 1  # single common round

    def __init__(self, oracle: SRBOracle, f: int) -> None:
        super().__init__()
        self.oracle = oracle
        self.f = f
        self._heard: set[ProcessId] = set()
        self._handle: Optional[SRBSenderHandle] = None
        self.finished = False

    def on_start(self) -> None:
        self.oracle.subscribe(self.pid, self._on_deliver)
        self._handle = self.oracle.sender_handle(self.pid)
        self.ctx.record("round_begin", round=self.LABEL)
        self.ctx.record("round_sent", round=self.LABEL, payload=("hello", self.pid))
        self._handle.broadcast(("R", self.LABEL, ("hello", self.pid)))

    def _on_deliver(self, src: ProcessId, seq: int, value: Any) -> None:
        if not (isinstance(value, tuple) and len(value) == 3 and value[0] == "R"):
            return
        _, label, payload = value
        if label != self.LABEL:
            return
        self.ctx.record("round_recv", round=label, src=src, payload=payload)
        self._heard.add(src)
        if not self.finished and len(self._heard) >= self.ctx.n - self.f:
            self.finished = True
            self.ctx.record("round_end", round=label)
            self.ctx.record("custom", event="next_round_started")


CandidateFactory = Callable[[SRBOracle, int], Process]


def round_finishers(sim: Simulation) -> frozenset[ProcessId]:
    """The processes that finished the candidate's round in ``sim``."""
    return frozenset(
        ev.pid
        for ev in sim.trace.events(
            "custom", predicate=lambda e: e.field("event") == "next_round_started"
        )
    )


def srb_separation(
    n: int, f: int, factory: CandidateFactory = CandidateSRBRound
) -> Argument:
    """The three scenarios of §4.1 against a candidate protocol.

    Requires ``n > 2f`` and ``f > 1`` (the regime of the claim).
    ``assert_holds`` on the outcome raises
    :class:`~repro.errors.PropertyViolation` when the candidate *survives*
    or deadlocks.
    """
    sets = srb_separation_sets(n, f)
    q, c1, c2 = sets["Q"], sets["C1"], sets["C2"]

    def scenario(
        number: int,
        crashed: Iterable[ProcessId],
        survivors: frozenset[ProcessId],
        delayed: Callable[[ProcessId, ProcessId], bool],
    ) -> World:
        def policy(s: ProcessId, r: ProcessId, seq: int, now: float) -> Optional[float]:
            return None if delayed(s, r) else IMMEDIATE

        def build(seed: int) -> Simulation:
            oracle = SRBOracle(policy=policy, seed=seed)
            sim = Simulation([factory(oracle, f) for _ in range(n)], seed=seed)
            oracle.bind(sim)
            for pid in crashed:  # crashed at the very beginning, sends nothing
                sim.declare_byzantine(pid)
                sim.crash(pid)
            return sim

        def check(sim: Simulation) -> list[str]:
            failed = []
            missing = survivors - round_finishers(sim)
            if missing:
                failed.append(f"processes {sorted(missing)} never finished")
            if number == 3 and check_directionality(
                sim.trace, correct=range(n)
            ).is_unidirectional:
                failed.append("no unidirectionality violation")
            return failed

        return World(f"scenario{number}", build, check)

    return Argument(
        "srb-uni-separation",
        worlds=(
            # C1 crashed; C2 -> Q arbitrarily delayed
            scenario(1, c1, frozenset(q) | frozenset(c2),
                     lambda s, r: s in c2 and r in q),
            # C2 crashed; C1 -> Q arbitrarily delayed
            scenario(2, c2, frozenset(q) | frozenset(c1),
                     lambda s, r: s in c1 and r in q),
            # nobody faulty; everything out of C1 / C2 to other sets delayed
            scenario(3, (), frozenset(range(n)),
                     lambda s, r: (s in c1 and r not in c1)
                     or (s in c2 and r not in c2)),
        ),
        indistinguishable=(
            ("Q", q, "scenario3", "scenario1"),
            ("Q", q, "scenario3", "scenario2"),
            ("C1", c1, "scenario3", "scenario2"),
            ("C2", c2, "scenario3", "scenario1"),
        ),
        sets=sets,
        choice_targets=tuple(sorted(set(c1) | set(c2))),
    )
