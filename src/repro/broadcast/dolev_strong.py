"""Dolev–Strong Byzantine broadcast under bidirectional (lock-step) rounds.

The classic witness that **bidirectional** communication sits strictly
above unidirectionality in the lattice: with transferable signatures and
lock-step rounds, Byzantine broadcast — unconditional termination — is
solvable for *any* ``f < n`` in ``f+1`` rounds. (Strong validity agreement
with ``n >= 2f+1`` follows by broadcasting everyone's input; the draft
notes both.)

Protocol: the sender signs its value and sends it in round 1. A process
that, by the end of round ``r``, has *extracted* a value carried by a
valid chain of ``r`` distinct signatures beginning with the sender's adds
its own signature and forwards the chain in round ``r+1``. After round
``f+1``: commit the single extracted value, or the default ⊥ when zero or
several values were extracted.

The ``r`` signatures requirement is what defeats late injection: to make a
correct process extract a value first seen at round ``r``, the adversary
must spend ``r-1`` distinct Byzantine signatures, so by round ``f+1`` a
fresh value needs ``f+1`` signatures — one of which is then from a correct
process, which would have forwarded it to everyone earlier.
"""

from __future__ import annotations

from typing import Any, Optional

from ..crypto.signatures import SignatureScheme, Signer
from ..errors import ConfigurationError
from ..types import ProcessId
from ..core.rounds import Label, LockStepRoundTransport, RoundProcess
from .definitions import BOT


def ds_domain(sender: ProcessId, value: Any, prev_signers: tuple) -> tuple:
    return ("DS", sender, value, prev_signers)


def validate_chain(
    scheme: SignatureScheme, sender: ProcessId, chain: Any
) -> Optional[tuple[Any, tuple[ProcessId, ...]]]:
    """Validate a signature chain; returns ``(value, signers)`` or None.

    A valid chain is ``(value, ((p0, s0), (p1, s1), ...))`` where ``p0`` is
    the sender, all ``p_i`` are distinct, and each ``s_i`` signs the value
    under the prefix of earlier signers.
    """
    if not (isinstance(chain, tuple) and len(chain) == 2):
        return None
    value, links = chain
    if not (isinstance(links, tuple) and links):
        return None
    signers: list[ProcessId] = []
    for link in links:
        if not (isinstance(link, tuple) and len(link) == 2):
            return None
        pid, sig = link
        if pid in signers:
            return None
        if not scheme.verify_from(
            pid, ds_domain(sender, value, tuple(signers)), sig
        ):
            return None
        signers.append(pid)
    if signers[0] != sender:
        return None
    return value, tuple(signers)


class DolevStrong(RoundProcess):
    """One process of Dolev–Strong over a lock-step round transport.

    Every process begins a (possibly empty) round at every boundary so the
    lock-step cadence is uniform; commits happen when round ``f+1`` ends.
    """

    def __init__(
        self,
        transport: LockStepRoundTransport,
        sender: ProcessId,
        f: int,
        scheme: SignatureScheme,
        signer: Signer,
        my_input: Any = None,
    ) -> None:
        super().__init__(transport)
        if f < 0:
            raise ConfigurationError(f"f must be non-negative, got {f}")
        self.sender = sender
        self.f = f
        self.scheme = scheme
        self.signer = signer
        self.my_input = my_input
        self._extracted: list[Any] = []
        self._outbox: list[tuple] = []
        self._committed = False

    # -- round driving -----------------------------------------------------------

    def on_round_start(self) -> None:
        if self.pid == self.sender:
            sig = self.signer.sign(ds_domain(self.sender, self.my_input, ()))
            self.ctx.record("bcast", seq=1, value=self.my_input)
            chain = (self.my_input, ((self.sender, sig),))
            self._note_extracted(self.my_input)
            self._outbox.append(chain)
        self.rounds.begin_round(tuple(self._outbox))
        self._outbox = []

    def on_round_complete(self, label: Label) -> None:
        if not isinstance(label, int):
            return
        if label <= self.f:  # rounds 1..f ended: keep forwarding
            self.rounds.begin_round(tuple(self._outbox))
            self._outbox = []
        elif label == self.f + 1 and not self._committed:
            self._committed = True
            if len(self._extracted) == 1:
                value = self._extracted[0]
            else:
                value = BOT
            self.ctx.decide(value)
            self.on_commit(value)

    def on_commit(self, value: Any) -> None:
        """Application hook."""

    # -- chain processing -----------------------------------------------------------

    def on_round_message(self, label: Label, src: ProcessId, payload: Any) -> None:
        if not isinstance(label, int) or not isinstance(payload, tuple):
            return
        for chain in payload:
            checked = validate_chain(self.scheme, self.sender, chain)
            if checked is None:
                continue
            value, signers = checked
            if len(signers) < label:  # late injection: not enough signatures
                continue
            if self._is_extracted(value) or self.pid in signers:
                continue
            self._note_extracted(value)
            if len(self._extracted) <= 2:  # two values already prove equivocation
                my_sig = self.signer.sign(ds_domain(self.sender, value, signers))
                self._outbox.append((value, (*chain[1], (self.pid, my_sig))))

    def _is_extracted(self, value: Any) -> bool:
        return any(v == value for v in self._extracted)

    def _note_extracted(self, value: Any) -> None:
        if not self._is_extracted(value):
            self._extracted.append(value)
