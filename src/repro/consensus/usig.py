"""USIG — Unique Sequential Identifier Generator, on top of TrInc.

MinBFT's trusted service: ``createUI(m)`` assigns message ``m`` a *unique
identifier* ``UI = (counter, certificate)`` where the counter is unique,
monotonic, and **sequential** (no gaps) for each replica; ``verifyUI``
checks a UI against the issuing replica. The reproduction band's novelty
note ("trusted-hardware BFT rarely implemented") is this stack: USIG is a
thin shim over :class:`~repro.hardware.trinc.Trinket` — the trinket's
attest-with-consecutive-counters *is* the USIG contract, which is why the
paper groups TrInc/A2M/SGX in one class.

Receivers must additionally process each replica's messages in counter
order with no gaps; :class:`UIOrderEnforcer` provides the holdback queue
every MinBFT replica uses.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..crypto.serialize import BoundedCache, caching_enabled, content_hash
from ..errors import ConfigurationError
from ..hardware.trinc import Attestation, Trinket, TrincAuthority
from ..types import ProcessId, SeqNum


@dataclass(frozen=True, slots=True)
class UI:
    """A unique sequential identifier: replica's counter value + certificate."""

    replica: ProcessId
    counter: SeqNum
    attestation: Attestation

    @property
    def digest(self) -> Any:
        """The message commitment this UI carries (authentic once verified)."""
        return self.attestation.message

    def __repr__(self) -> str:
        return f"UI(r{self.replica}#{self.counter})"


def ui_like(x: Any) -> bool:
    """Structural check for 'some kind of UI' (TrInc- or enclave-backed).

    Protocols dispatch on this and leave authenticity to the verifier, so
    replicas with different hardware back-ends interoperate.
    """
    return (
        isinstance(getattr(x, "replica", None), int)
        and isinstance(getattr(x, "counter", None), int)
        and x.counter >= 1
    )


class USIG:
    """The replica-local trusted part (create side)."""

    def __init__(self, trinket: Trinket) -> None:
        self._trinket = trinket
        self.created = 0

    @property
    def replica(self) -> ProcessId:
        return self._trinket.pid

    @property
    def counter(self) -> SeqNum:
        return self._trinket.last_seq()

    def create_ui(self, message: Any) -> UI:
        """Bind ``message`` to this replica's next counter value."""
        c = self._trinket.last_seq() + 1
        att = self._trinket.attest(c, content_hash(message))
        if att is None:  # cannot happen: c = last+1 by construction
            raise ConfigurationError("trinket refused a consecutive counter")
        self.created += 1
        return UI(replica=self.replica, counter=c, attestation=att)


#: exact types of (replica, trinket_id, counter_id, prev, seq, digest, tag)
_MEMO_KEY_TYPES = (int, int, int, int, int, bytes, bytes)


class USIGVerifier:
    """Stateless UI verification (check side); any process can hold one.

    One verifier is shared by every replica of a simulation, so its memo
    deduplicates across the whole system: a UI broadcast to n replicas (and
    re-checked as the embedded prepare UI of every COMMIT) costs one
    attestation HMAC in total. Only that HMAC verdict is memoized, under
    the attestation's own scalars ``(replica, trinket_id, counter_id, prev,
    seq, digest, tag)`` — ``Attest(c, m)`` binds the counter to a commitment
    to ``m``, so the UI already carries its message's digest and a lookup
    never serializes. The structure checks and the comparison of the carried
    digest with ``content_hash(message)`` (identity-cached: one encoding per
    message object, which is what catches a sender lying about the digest)
    run on every call. The scalars enter the memo only when each is
    *exactly* ``int`` / ``bytes``: ``True == 1`` and ``bytearray(b) == b``
    hash alike but verify differently, so look-alikes take the unmemoized
    path rather than share an entry. Cached and uncached verdicts are
    identical.
    """

    def __init__(self, authority: TrincAuthority) -> None:
        self._authority = authority
        self._verified = BoundedCache(1 << 13)

    def verify_ui(self, ui: Any, message: Any, replica: ProcessId) -> bool:
        """Whether ``ui`` genuinely binds ``message`` to ``replica``'s counter.

        Sequentiality (``prev = counter - 1``) is part of validity: a UI
        whose attestation skipped counter values is rejected, which is what
        forces a Byzantine replica's message stream to be gap-free if it
        wants any of it accepted.
        """
        if not isinstance(ui, UI):
            return False
        a = ui.attestation
        if not isinstance(a, Attestation):
            return False
        # exact ints before any comparison: a subclass answers != and - itself
        if not (type(ui.replica) is type(ui.counter) is type(a.seq)
                is type(a.prev) is int):
            return False
        if ui.replica != replica:
            return False
        if a.seq != ui.counter or a.prev != ui.counter - 1:
            return False
        try:
            # compare_digest reads the bytes themselves: the carried digest
            # cannot answer for itself through an overridden ``__eq__``
            if not hmac.compare_digest(a.message, content_hash(message)):
                return False
        except Exception:  # unserializable message, or not a digest at all
            return False
        key = (replica, a.trinket_id, a.counter_id, a.prev, a.seq, a.message, a.tag)
        if not caching_enabled() or tuple(map(type, key)) != _MEMO_KEY_TYPES:
            return self._authority.check(a, replica)
        verdict = self._verified.get(key)
        if verdict is None:
            verdict = self._authority.check(a, replica)
            self._verified.put(key, verdict)
        return verdict


Release = Callable[[ProcessId, SeqNum, Any], None]


class UIOrderEnforcer:
    """Holdback queue: release each replica's messages in counter order.

    MinBFT requires replicas to *accept* messages from replica ``i`` only
    in UI order with no gaps; out-of-order arrivals wait until the gap
    fills. Feed every (replica, counter, item) in; the ``on_release`` the
    call passes fires, in order, for each item it releases. The callback
    is not kept: the replica owning the enforcer is usually the callee.
    """

    def __init__(self) -> None:
        self._next: dict[ProcessId, SeqNum] = {}
        self._held: dict[ProcessId, dict[SeqNum, Any]] = {}
        self.released = 0
        self.held_max = 0

    def expected(self, replica: ProcessId) -> SeqNum:
        return self._next.get(replica, 1)

    def submit(self, replica: ProcessId, counter: SeqNum, item: Any,
               on_release: Release) -> None:
        nxt = self._next.get(replica, 1)
        if counter < nxt:
            return  # duplicate / replay
        held = self._held.setdefault(replica, {})
        if counter in held:
            return
        held[counter] = item
        self.held_max = max(self.held_max, len(held))
        self._release_from(replica, nxt, on_release)

    def _release_from(self, replica: ProcessId, nxt: SeqNum,
                      on_release: Release) -> None:
        held = self._held.get(replica, {})
        while nxt in held:
            item = held.pop(nxt)
            self._next[replica] = nxt + 1
            self.released += 1
            on_release(replica, nxt, item)
            nxt += 1

    def resync(self, replica: ProcessId, counter: SeqNum,
               on_release: Release) -> None:
        """Skip ``replica``'s stream forward: accept from ``counter + 1`` on.

        Crash recovery support: a rebooted process's enforcer expects every
        peer's stream from counter 1, but frames acked by the dead
        incarnation are gone for good — the gap at the front would hold
        back the peer's entire future stream forever. Once the recovering
        process learns (authenticated, out of band) that the peer's counter
        has reached ``counter``, it abandons the unrecoverable prefix. Only
        ever moves forward; state missed in the skipped prefix is recovered
        through checkpoint transfer / view-change logs, not through the
        message stream.
        """
        nxt = self._next.get(replica, 1)
        if counter + 1 <= nxt:
            return
        self._next[replica] = counter + 1
        held = self._held.get(replica)
        if held:
            for c in [c for c in held if c <= counter]:
                del held[c]
        self._release_from(replica, counter + 1, on_release)

    def purge(self, replica: ProcessId) -> int:
        """Drop everything held from ``replica`` and stop expecting more.

        Forensic quarantine support: once a replica is *convicted* of
        equivocation (see :mod:`repro.consensus.forensics`), messages it
        already queued must not be released later — a held per-destination
        fork is exactly the payload a compromised counter smuggles in.
        Returns the number of discarded messages. The stream can still
        resume (a future ``submit`` re-opens it at the current cursor), so
        callers pair this with their own convicted-sender refusal.
        """
        held = self._held.pop(replica, None)
        return len(held) if held else 0
