"""Accountability forensics: convict equivocating hardware from the wire.

The classification's positive claim — non-equivocation hardware buys
safety at n = 2f+1 — has a converse the paper warns about: when the
hardware itself is compromised (forked counter, extracted key), safety
*falls*, silently, because every artifact the traitor emits still passes
the public verifiers. What survives is *accountability*: an uncompromised
trusted counter can never bind one counter value to two messages, so any
two verifying UIs at the same ``(replica, counter)`` with different
message digests are a self-contained, transferable **proof of
misbehavior** — no protocol state, no honest-majority assumption, just
the public verifier.

:class:`AccountabilityChecker` is a streaming observer on the simulation's
trace bus: it harvests every signed UI a delivered message carries
(top-level USIG wraps, the prepare UI embedded in every COMMIT,
view-change logs and checkpoint certificates, resync payloads),
cross-checks them by counter value, and on the first conflict emits a
:class:`ProofOfMisbehavior` and fires its conviction hook.
:func:`install_accountability` wires the hook to a recovery script:
quarantine the culprit and drive the surviving replicas through
:meth:`~repro.consensus.minbft.MinBFTReplica.convict` (evidence purge,
rollback to attested state, view change away from the culprit), restoring
a live, safe group in the same run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from ..crypto.serialize import IdentityMemo, content_hash
from ..types import ProcessId, SeqNum, Time
from ..sim.process import bare
from ..sim.trace import DELIVER, TraceEvent, TraceObserver
from .minbft import (
    COMMIT,
    NEW_VIEW,
    RESYNC_INFO,
    USIG_WRAP,
    VIEW_CHANGE,
    prepare_message,
)
from .usig import ui_like

# Reliable-channel data frame tag (``repro.faults.channel.RC_DATA``),
# spelled literally here: consensus must not import the faults layer at
# module scope, but the checker observes the wire *below* the channel and
# has to look through retransmission framing.
_RC_DATA = "__rc_data__"

__all__ = [
    "AccountabilityChecker",
    "ProofOfMisbehavior",
    "install_accountability",
    "verify_proof",
]


@dataclass(frozen=True)
class ProofOfMisbehavior:
    """Two verifying UIs from one replica binding one counter to two
    different messages. Transferable: :func:`verify_proof` needs only the
    public :class:`~repro.consensus.usig.USIGVerifier`."""

    culprit: ProcessId
    counter: SeqNum
    first: tuple  # (message, ui)
    second: tuple  # (message, ui)

    def __repr__(self) -> str:
        return f"ProofOfMisbehavior(r{self.culprit}#{self.counter})"


def verify_proof(proof: Any, verifier: Any) -> bool:
    """Independently check a proof of misbehavior.

    True iff both UIs genuinely bind their messages to ``proof.culprit``'s
    counter ``proof.counter`` and the messages differ — which an
    uncompromised trusted counter can never produce. Never raises on
    malformed input.
    """
    if not isinstance(proof, ProofOfMisbehavior):
        return False
    try:
        halves = (proof.first, proof.second)
        digests = []
        for half in halves:
            if not (isinstance(half, tuple) and len(half) == 2):
                return False
            message, ui = half
            if not ui_like(ui) or ui.replica != proof.culprit:
                return False
            if ui.counter != proof.counter:
                return False
            if not verifier.verify_ui(ui, message, proof.culprit):
                return False
            digests.append(content_hash(message))
        return digests[0] != digests[1]
    except Exception:
        return False


class AccountabilityChecker(TraceObserver):
    """Streaming cross-check of every signed UI observed on the wire.

    Attach with ``sim.attach_observer`` (or replay a stored trace through
    it). For each delivered message it harvests all ``(message, ui)``
    bindings the message carries — including UIs embedded in COMMITs,
    view-change certificates/logs, NEW-VIEW bundles, and resync payloads —
    verifies them (memoized by the shared verifier, so the marginal cost
    per duplicate is a dict hit), and indexes them by
    ``(replica, counter)``. The first conflicting binding convicts:
    ``on_conviction(proof)`` fires once per culprit.

    UIs that fail verification are skipped, not convicted: a forged UI
    proves nothing about the replica it names (anyone can fabricate it);
    only *two verifying* bindings constitute evidence.
    """

    def __init__(
        self,
        verifier: Any,
        on_conviction: Optional[Callable[[ProofOfMisbehavior], None]] = None,
    ) -> None:
        self.verifier = verifier
        self.on_conviction = on_conviction
        self._seen: dict[tuple, tuple] = {}  # (replica, counter) -> (digest, message, ui)
        self._prepares = IdentityMemo()  # the PREPAREs that COMMITs re-bind
        self.convicted: dict[ProcessId, ProofOfMisbehavior] = {}
        self.detected_at: dict[ProcessId, Time] = {}
        self.events_consumed = 0
        self.uis_checked = 0

    # -- observer interface -------------------------------------------------

    kinds = frozenset({DELIVER})

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind != DELIVER:
            return
        self.events_consumed += 1
        msg = ev.field("msg")
        if isinstance(msg, tuple) and len(msg) == 4 and msg[0] == _RC_DATA:
            msg = msg[3]  # look through the retransmission frame
        for message, ui in self._harvest(msg):
            self._note(message, ui, ev.time)

    # -- harvesting ---------------------------------------------------------

    def _harvest(self, msg: Any) -> Iterator[tuple]:
        """Yield every ``(message, ui)`` binding ``msg`` carries."""
        if not (isinstance(msg, tuple) and msg and isinstance(msg[0], str)):
            return
        kind = msg[0]
        if kind == USIG_WRAP and len(msg) == 3:
            _, message, ui = msg
            yield message, ui
            yield from self._harvest_body(message)
        elif kind == RESYNC_INFO and len(msg) == 7:
            _, _peer, _nonce, _counter, nv, stable, _sig = msg
            if isinstance(nv, tuple) and len(nv) == 2:
                yield nv[0], nv[1]
                yield from self._harvest_body(nv[0])
            if isinstance(stable, tuple) and len(stable) == 3:
                yield from self._harvest_cert(stable[1])

    def _harvest_body(self, message: Any) -> Iterator[tuple]:
        """Bindings nested inside a USIG-signed protocol message."""
        if not (isinstance(message, tuple) and message
                and isinstance(message[0], str)):
            return
        kind = message[0]
        if kind == COMMIT and len(message) == 5:
            _, view, seq, request, prepare_ui = message
            # the embedded prepare UI re-binds the primary's PREPARE
            yield prepare_message(self._prepares, view, seq, request), prepare_ui
        elif kind == VIEW_CHANGE and len(message) == 6:
            _, _nv, _base, cert, _blob, log = message
            yield from self._harvest_cert(cert)
            yield from self._harvest_log(log)
        elif kind == NEW_VIEW and len(message) == 3:
            _, new_view, bundle = message
            if isinstance(bundle, tuple):
                for item in bundle:
                    if isinstance(item, tuple) and len(item) == 6:
                        _r, base, cert, blob, log, ui = item
                        # each item re-binds its VIEW-CHANGE to that UI
                        yield (VIEW_CHANGE, new_view, base, cert, blob, log), ui
                        yield from self._harvest_cert(cert)
                        yield from self._harvest_log(log)

    def _harvest_cert(self, cert: Any) -> Iterator[tuple]:
        """Checkpoint certificates: (replica, message, ui) triples."""
        if not isinstance(cert, tuple):
            return
        for item in cert:
            if isinstance(item, tuple) and len(item) == 3:
                yield item[1], item[2]

    def _harvest_log(self, log: Any) -> Iterator[tuple]:
        """Sent-log excerpts: (message, ui) pairs, possibly nesting COMMITs."""
        if not isinstance(log, tuple):
            return
        for entry in log:
            if isinstance(entry, tuple) and len(entry) == 2:
                message, ui = entry
                yield message, ui
                yield from self._harvest_body(message)

    # -- evidence index -----------------------------------------------------

    def _note(self, message: Any, ui: Any, now: Time) -> None:
        if not ui_like(ui):
            return
        self.uis_checked += 1
        if not self.verifier.verify_ui(ui, message, ui.replica):
            return
        # a verified UI carries its message's digest; bytes() is free for
        # bytes and freezes a look-alike bytearray its sender could mutate
        digest = bytes(ui.digest)
        key = (ui.replica, ui.counter)
        prior = self._seen.get(key)
        if prior is None:
            self._seen[key] = (digest, message, ui)
            return
        if prior[0] == digest or ui.replica in self.convicted:
            return
        proof = ProofOfMisbehavior(
            culprit=ui.replica,
            counter=ui.counter,
            first=(prior[1], prior[2]),
            second=(message, ui),
        )
        self.convicted[ui.replica] = proof
        self.detected_at[ui.replica] = now
        if self.on_conviction is not None:
            self.on_conviction(proof)

    def stats(self) -> dict:
        return {
            "events_consumed": self.events_consumed,
            "uis_checked": self.uis_checked,
            "distinct_bindings": len(self._seen),
            "convicted": sorted(self.convicted),
        }


def install_accountability(
    sim: Any,
    replicas: Iterable[Any],
    verifier: Any,
    recover: bool = True,
    delay: float = 5.0,
    on_conviction: Optional[Callable[[ProofOfMisbehavior], None]] = None,
) -> AccountabilityChecker:
    """Attach an :class:`AccountabilityChecker` wired to a recovery script.

    On conviction the culprit is immediately marked Byzantine for the
    checkers; ``delay`` time units later (letting in-flight damage land —
    the soak asserts red-then-recovered in one run) it is quarantined
    (crashed, so the transport drops it) and every surviving replica that
    implements ``convict`` purges the culprit's influence, rolls back to
    its last attested state, and helps re-form the group without it.
    """
    replica_pids = [
        pid for pid, r in enumerate(replicas)
        if hasattr(bare(r), "convict")
    ]

    def _handle(proof: ProofOfMisbehavior) -> None:
        culprit = proof.culprit
        sim.declare_byzantine(culprit)
        if recover:
            def _quarantine() -> None:
                sim.crash(culprit)
                # resolve survivors from the simulation *now*: a restart may
                # have replaced the instances installed at wiring time
                for pid in replica_pids:
                    if pid == culprit:
                        continue
                    rep = bare(sim.process(pid))
                    if hasattr(rep, "convict"):
                        rep.convict(culprit)

            sim.at(sim.now + delay, _quarantine, label="forensic-quarantine")
        if on_conviction is not None:
            on_conviction(proof)

    checker = AccountabilityChecker(verifier, on_conviction=_handle)
    sim.attach_observer(checker)
    return checker
