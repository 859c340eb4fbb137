"""The corner case (Appendix B): reliable broadcast ⇒ unidirectionality
when ``f = 1`` and ``n >= 3``.

The separation of §4.1 needs ``f > 1``; this module makes the complementary
positive result executable. The paper's two-phase protocol, per process
``p`` with round input ``v``:

- **Phase 1**: broadcast ``(v, σ_p)`` (``σ_p`` an unforgeable signature);
  wait for phase-1 messages with valid signatures from ``n-1`` distinct
  processes (own included — at most one process is faulty, so ``n-1``
  always eventually arrive).
- **Phase 2**: forward *all* phase-1 messages received; wait for phase-2
  bundles from ``n-1`` distinct processes, each containing at least two
  valid signatures from distinct processes.

Why unidirectionality holds for every pair of correct processes p, p'
(paper's argument): if neither hears the other directly, every process in
the remaining set Q heard at least one of them in phase 1 (Q's phase-1
waits completed, and they can be missing at most one sender). Both p and
p' receive all of Q's phase-2 bundles; a valid bundle carries ``n-1``
signed values and is unforgeable, so Q's bundles必 contain the heard
value — delivering p's value to p' (or vice versa) before the waiting
side's round ends.

The construction consumes *reliable broadcast* as a primitive; we run it
over the :class:`~repro.core.srb_oracle.SRBOracle` (SRB is a sequenced RB,
and only RB strength is used). It is packaged as a
:class:`~repro.core.rounds.RoundTransport`, so the same directionality
checker and the same Algorithm-1 SRB stack run over it unchanged.
"""

from __future__ import annotations

from typing import Any, Optional

from ..crypto.signatures import Signature, SignatureScheme, Signer
from ..errors import ConfigurationError
from ..types import ProcessId
from .rounds import Label, POST, RoundTransport
from .srb_oracle import SRBOracle, SRBSenderHandle


def _p1_domain(label: Label, payload: Any) -> tuple:
    return ("CC-P1", label, payload)


class CornerCaseRoundTransport(RoundTransport):
    """Unidirectional rounds from reliable broadcast, for ``f = 1``.

    All correct processes must eventually begin every label they expect to
    complete (rounds are collective); with ``f = 1`` at most one process
    may stay silent and the ``n-1`` waits still terminate. A phase-1 value
    is delivered once per ``(label, signer)``, a post once per RB delivery.
    """

    def __init__(self, oracle: SRBOracle, scheme: SignatureScheme,
                 signer: Signer, f: int = 1) -> None:
        super().__init__()
        if f != 1:
            raise ConfigurationError(
                f"the corner-case construction is proven only for f=1 (got f={f}); "
                "for f>1 the paper shows it is impossible (§4.1)"
            )
        self.oracle = oracle
        self.scheme = scheme
        self.signer = signer
        self._handle: Optional[SRBSenderHandle] = None
        # per-label phase-1 records: label -> {src: (payload, sig)}
        self._p1: dict[Label, dict[ProcessId, tuple[Any, Signature]]] = {}
        # per-label phase-2 senders seen
        self._p2: dict[Label, set[ProcessId]] = {}
        self._p2_sent: set[Label] = set()

    # -- wiring -------------------------------------------------------------------

    def start(self) -> None:
        assert self.host is not None
        pid = self.host.pid
        self._handle = self.oracle.sender_handle(pid)
        self.oracle.subscribe(pid, self._on_rb_deliver)

    # -- sending ---------------------------------------------------------------------

    def _send(self, label: Label, payload: Any) -> None:
        assert self._handle is not None
        sig = self.signer.sign(_p1_domain(label, payload))
        self._handle.broadcast(("P1", label, payload, sig))

    def post(self, payload: Any) -> None:
        assert self._handle is not None
        self._handle.broadcast(("POST", payload))

    # -- the protocol ----------------------------------------------------------------

    def _on_rb_deliver(self, src: ProcessId, seq: int, value: Any) -> None:
        if not (isinstance(value, tuple) and value and isinstance(value[0], str)):
            return
        kind = value[0]
        if kind == "POST" and len(value) == 2:
            self._deliver(POST, src, value[1])
        elif kind == "P1" and len(value) == 4:
            _, label, payload, sig = value
            self._ingest_p1(src, label, payload, sig, direct_src=src)
            self._check_progress(label)
        elif kind == "P2" and len(value) == 3:
            _, label, bundle = value
            if not isinstance(bundle, tuple):
                return
            # count valid distinct signers inside the bundle
            valid_signers: set[ProcessId] = set()
            for item in bundle:
                if not (isinstance(item, tuple) and len(item) == 3):
                    continue
                p1_src, payload, sig = item
                if self._valid_p1(p1_src, label, payload, sig):
                    valid_signers.add(p1_src)
                    self._ingest_p1(p1_src, label, payload, sig, direct_src=src)
            if len(valid_signers) >= 2:
                try:
                    self._p2.setdefault(label, set()).add(src)
                except TypeError:
                    return
                self._check_progress(label)

    def _valid_p1(self, src: ProcessId, label: Label, payload: Any, sig: Any) -> bool:
        return self.scheme.verify_from(src, _p1_domain(label, payload), sig)

    def _ingest_p1(self, p1_src: ProcessId, label: Label, payload: Any,
                   sig: Any, direct_src: ProcessId) -> None:
        if not self._valid_p1(p1_src, label, payload, sig):
            return
        try:
            records = self._p1.setdefault(label, {})
        except TypeError:
            return
        if p1_src not in records:
            records[p1_src] = (payload, sig)
            self._deliver(label, p1_src, payload)

    def _check_progress(self, label: Label) -> None:
        assert self.host is not None
        n = self.host.ctx.n
        records = self._p1.get(label, {})
        # Phase 1 -> Phase 2: n-1 distinct signed values collected
        if len(records) >= n - 1 and label not in self._p2_sent:
            # forward only if we ourselves are participating in this label
            if label in self._labels_used:
                self._p2_sent.add(label)
                bundle = tuple(
                    (src, payload, sig)
                    for src, (payload, sig) in sorted(records.items())
                )
                assert self._handle is not None
                self._handle.broadcast(("P2", label, bundle))
        # Phase 2 completion: n-1 distinct valid bundles
        if label in self.active_labels and len(self._p2.get(label, ())) >= n - 1:
            self._complete(label)
