"""Non-equivocating broadcast from unidirectional rounds, n ≥ f+1.

The draft's conjecture-with-proof ("Unidirectional communication can solve
non-equivocating broadcast for n ≥ f+1"), executable::

    sender s with input v:   send (v, σ_s) to all
    process p:               upon receipt of (v, σ_s):
                                 send (v, σ_s) in the unidirectional round
                                 wait until the round ends
                                 if a different validly-signed (v', σ_s) was
                                 seen: commit ⊥, else commit v

Correctness hinges exactly on unidirectionality: if correct p commits
``v ≠ ⊥`` it saw only ``v``; for any correct q, either p got q's round
message (so q echoed ``v``) or q got p's before q's round ended — either
way q saw ``v`` and can commit only ``v`` or ⊥.

Note what this does **not** guarantee: termination when the sender is
faulty and silent toward some processes (those never start their round) —
that is why it is the *weakest* broadcast in the zoo.
"""

from __future__ import annotations

from typing import Any, Optional

from ..crypto.signatures import Signature, SignatureScheme, Signer
from ..errors import ConfigurationError
from ..types import ProcessId
from ..core.rounds import Label, POST, RoundProcess, RoundTransport
from .definitions import BOT


def _neb_domain(sender: ProcessId, value: Any) -> tuple:
    return ("NEB", sender, value)


class NonEquivocatingBroadcast(RoundProcess):
    """One process of the NEB protocol over any round transport.

    Over a unidirectional transport the agreement guarantee holds for any
    ``n >= f+1``; over a zero-directional transport it can fail — the
    benches demonstrate both.
    """

    ROUND_LABEL = "neb-echo"

    def __init__(
        self,
        transport: RoundTransport,
        sender: ProcessId,
        scheme: SignatureScheme,
        signer: Signer,
    ) -> None:
        super().__init__(transport)
        self.sender = sender
        self.scheme = scheme
        self.signer = signer
        self._adopted: Optional[tuple[Any, Signature]] = None
        self._saw_conflict = False
        self._committed = False

    # -- sender API ---------------------------------------------------------------

    def broadcast(self, value: Any) -> None:
        if self.pid != self.sender:
            raise ConfigurationError(
                f"process {self.pid} is not the sender ({self.sender})"
            )
        sig = self.signer.sign(_neb_domain(self.sender, value))
        self.ctx.record("bcast", seq=1, value=value)
        self.rounds.post(("NEB-VAL", value, sig))

    def on_commit(self, value: Any) -> None:
        """Application hook."""

    # -- protocol -------------------------------------------------------------------

    def on_round_message(self, label: Label, src: ProcessId, payload: Any) -> None:
        if not (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == "NEB-VAL"
        ):
            return
        _, value, sig = payload
        if not self.scheme.verify_from(
            self.sender, _neb_domain(self.sender, value), sig
        ):
            return
        if self._adopted is None:
            self._adopted = (value, sig)
            # echo the signed value in the unidirectional round
            self.rounds.begin_round(payload, self.ROUND_LABEL)
        elif self._adopted[0] != value:
            self._saw_conflict = True

    def on_round_complete(self, label: Label) -> None:
        if label != self.ROUND_LABEL or self._committed:
            return
        self._committed = True
        if self._saw_conflict or self._adopted is None:
            self.ctx.decide(BOT)
            self.on_commit(BOT)
        else:
            value = self._adopted[0]
            self.ctx.decide(value)
            self.on_commit(value)
