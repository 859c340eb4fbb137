"""Weak validity agreement with n ≥ 2f+1 from non-equivocation hardware.

The draft claims weak validity agreement is solvable with unidirectional
communication at ``n >= 2f+1`` (via Aguilera et al.'s register protocols /
Clement et al.'s non-equivocation transformation). We realize it through
the library's own chain of results: unidirectionality ⇒ SRB (Algorithm 1)
⇒ TrInc interface (Theorem 1) ⇒ MinBFT at n = 2f+1 — and bind a one-shot
agreement interface on top of the MinBFT engine:

- every process doubles as a client of the replica group it belongs to,
  submitting its *input* as a signed request;
- the value carried by the **first committed slot** is the decision;
- agreement follows from replication order safety; termination from MinBFT
  liveness under partial synchrony; weak validity because with *all*
  processes correct and a common input ``v``, every submitted request
  carries ``v``, so slot 1 does.

(As everywhere in the classification, liveness needs partial synchrony —
FLP forbids deterministic asynchronous agreement; the paper's solvability
claims inherit the same caveat.)
"""

from __future__ import annotations

from typing import Any, Optional

from ..consensus.minbft import MinBFTReplica
from ..consensus.replica import REQUEST, request_domain
from ..types import SeqNum


class WeakAgreementProcess(MinBFTReplica):
    """A MinBFT replica that proposes its own input and decides on slot 1."""

    def __init__(self, *args: Any, my_input: Any = None, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.my_input = my_input
        self.decision: Optional[Any] = None

    def on_start(self) -> None:
        self.ctx.record("custom", event="input", value=self.my_input)
        op = ("propose", self.my_input)
        sig = self.signer.sign(request_domain(self.pid, 1, op))
        self.ctx.broadcast((REQUEST, self.pid, 1, op, sig), include_self=True)

    def on_execute(self, seq: SeqNum, request: Any, result: Any) -> None:
        if seq == 1 and self.decision is None:
            op = request[3]
            value = op[1] if isinstance(op, tuple) and len(op) == 2 else op
            self.decision = value
            self.ctx.decide(value)


def build_weak_agreement_system(
    f: int,
    inputs: list[Any],
    seed: int = 0,
    adversary: Any = None,
    req_timeout: float = 30.0,
):
    """n = 2f+1 WeakAgreementProcess system, one input per process.

    Returns ``(sim, processes)``.
    """
    from ..consensus.harness import build_minbft_system
    from ..errors import ConfigurationError

    n = 2 * f + 1
    if len(inputs) != n:
        raise ConfigurationError(
            f"need exactly n = {n} inputs, got {len(inputs)}"
        )

    def factory(pid: int, **kwargs: Any) -> WeakAgreementProcess:
        return WeakAgreementProcess(my_input=inputs[pid], **kwargs)

    sim, replicas, _clients = build_minbft_system(
        f=f,
        n_clients=0,
        app="noop",
        seed=seed,
        adversary=adversary,
        req_timeout=req_timeout,
        replica_factory=factory,
    )
    return sim, replicas
