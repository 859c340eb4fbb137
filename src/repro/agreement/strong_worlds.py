"""The upper separation: unidirectionality cannot solve strong validity
agreement at n ≤ 3f (draft Claim `clm:unidirSBA`, after Malkhi et al.).

Together with :mod:`repro.agreement.strong_sync` (synchrony solves it at
n ≥ 2f+1 via Dolev–Strong) this separates **bidirectional** from
**unidirectional** communication — the top edge of Figure 1.

Executable form, at n = 3, f = 1 against the canonical candidate
(exchange inputs in one unidirectional round, commit the majority of
values seen), declared by :func:`strong_validity_impossibility` as an
:class:`~repro.core.argument.Argument`. In every world the link p0 → p1 is
withheld, so the round obligation is met in one direction only:

- **World 1** — p1 Byzantine (input 1); correct p0, p2 both hold 0.
  Strong validity forces both to commit **0**.
- **World 2** — p0 Byzantine (input 0); correct p1, p2 both hold 1.
  Strong validity forces both to commit **1**.
- **World 3** — p1 and p0 correct with inputs 0 and 1; p2 Byzantine
  *equivocates*: shows input 0 to p0 and input 1 to p1. The schedule
  delivers p1's message to p0 (so the round is unidirectional for the
  pair) but withholds p0 → p1 within the round. Then p0's view matches a
  World-1-like run (majority 0) and p1's matches World 2 (unanimous 1):
  p0 commits 0, p1 commits 1 — **agreement violated**, while every round
  obligation of unidirectionality is honored.

The equivocation is possible because *inputs are the Byzantine process's
own claims* — no non-equivocation mechanism constrains what a process
asserts about itself, and unidirectionality only guarantees message flow,
not consistency. Under bidirectional rounds the same schedule is illegal
(p1 would have received p0's 0 and detected the conflict), which is
exactly why Dolev–Strong survives.
"""

from __future__ import annotations

from typing import Any

from ..core.argument import Argument, World
from ..core.directionality import check_directionality
from ..core.rounds import Label, RoundProcess, TimedRoundTransport, ROUND_MSG
from ..sim.adversary import LinkRule, ScriptedAdversary
from ..sim.runner import Simulation
from ..types import ProcessId
from .definitions import STRONG, check_agreement

ROUND_LABEL = "sva"


class MajorityCandidate(RoundProcess):
    """The canonical strong-agreement candidate over one unidirectional round.

    Sends its input; at round end commits the majority of values seen
    (own value breaks ties). Any deterministic one-round rule meets the
    same fate; this one makes the forced decisions explicit.
    """

    def __init__(self, transport: TimedRoundTransport, my_input: Any) -> None:
        super().__init__(transport)
        self.my_input = my_input
        self._seen: list[Any] = []
        self._committed = False

    def on_round_start(self) -> None:
        self.ctx.record("custom", event="input", value=self.my_input)
        self._seen.append(self.my_input)
        self.rounds.begin_round(self.my_input, ROUND_LABEL)

    def on_round_message(self, label: Label, src: ProcessId, payload: Any) -> None:
        if label == ROUND_LABEL and src != self.pid:
            self._seen.append(payload)

    def on_round_complete(self, label: Label) -> None:
        if label != ROUND_LABEL or self._committed:
            return
        self._committed = True
        counts: list[tuple[Any, int]] = []
        for v in self._seen:
            for i, (w, c) in enumerate(counts):
                if w == v:
                    counts[i] = (w, c + 1)
                    break
            else:
                counts.append((v, 1))
        best = max(c for _v, c in counts)
        winners = [v for v, c in counts if c == best]
        value = self.my_input if self.my_input in winners else winners[0]
        self.ctx.decide(value)


class EquivocatingInput(RoundProcess):
    """Byzantine p2: claims input 0 to p0 and input 1 to p1, echoes nothing."""

    def on_round_start(self) -> None:
        self.ctx.send(0, (ROUND_MSG, ROUND_LABEL, 0))
        self.ctx.send(1, (ROUND_MSG, ROUND_LABEL, 1))


def strong_validity_impossibility() -> Argument:
    """The three worlds at n = 3, f = 1.

    World 1 forces p0's commit to 0 (strong validity binds the correct set
    {p0, p2}, both holding 0); World 2 forces p1's to 1; World 3 is
    indistinguishable to p0 from World 1 and to p1 from World 2, satisfies
    unidirectionality, and splits them. An input of ``None`` is the
    equivocating Byzantine p2 of World 3.
    """

    def world(number: int, inputs: tuple, byzantine: ProcessId) -> World:
        correct = [p for p in range(3) if p != byzantine]
        claims = dict(enumerate(inputs))

        def build(seed: int) -> Simulation:
            # the round obligation needs only ONE direction between p0 and
            # p1: withhold p0 -> p1 in every world so the views line up
            adversary = ScriptedAdversary(base_delay=0.05).add_rule(
                LinkRule([0], [1], None)
            )
            procs = [
                EquivocatingInput(TimedRoundTransport(wait=2.0)) if v is None
                else MajorityCandidate(TimedRoundTransport(wait=2.0), v)
                for v in inputs
            ]
            sim = Simulation(procs, adversary, seed=seed)
            sim.declare_byzantine(byzantine)
            return sim

        def check(sim: Simulation) -> list[str]:
            report = check_agreement(sim.trace, STRONG, claims, correct,
                                     all_correct=False)
            if number < 3:
                return report.all_violations()
            failed = []
            if not report.agreement_violations:
                failed.append("no agreement violation")
            if not check_directionality(sim.trace, correct).is_unidirectional:
                failed.append("rounds not unidirectional")
            return failed

        return World(f"world{number}", build, check)

    return Argument(
        "strong-validity-uni-impossibility",
        worlds=(
            world(1, (0, 1, 0), byzantine=1),
            world(2, (0, 1, 1), byzantine=0),
            world(3, (0, 1, None), byzantine=2),
        ),
        indistinguishable=(
            ("p0", (0,), "world3", "world1"),
            ("p1", (1,), "world3", "world2"),
        ),
        horizon=60.0,
    )
