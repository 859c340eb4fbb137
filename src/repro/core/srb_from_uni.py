"""Algorithm 1: Sequenced Reliable Broadcast from unidirectional rounds.

The paper's §4.2 construction (adapted from Aguilera et al.'s SWMR
algorithm by replacing writes with round-sends and reads with receives),
with ``n >= 2t+1``:

- the **sender** signs ``(k, m)`` and posts it to all;
- on receiving the sender's value for the next expected ``k``, a process
  *copies* it — signs it and sends it in the unidirectional round labeled
  ``("copy", sender, k)``;
- when that round has finished **and** it has ``t+1`` signed copies of its
  adopted value **and** it has seen no conflicting sender-signed value, it
  compiles an **L1 proof** (the t+1 copier signatures), signs it, and sends
  it in round ``("l1", sender, k)``;
- when that round has finished and it holds ``t+1`` valid L1 proofs from
  distinct builders, it compiles an **L2 proof** and posts it;
- a process delivers ``(k, m)`` upon holding a valid L2 proof for its next
  expected sequence number, forwarding the proof so everyone else
  eventually delivers too (relay).

The instances pipeline: each sequence number runs copy → L1 → L2 on its
own rounds, so instance k+1's copy round runs while k's L1 round is still
open — nothing in the argument below relates two sequence numbers. Only
delivery is sequenced: ``(k, m)`` is delivered after ``k-1``, and a process
forgets ``k`` once it delivers it (late messages: :class:`SRBFromUnidirectional`).

Why unidirectionality is exactly what's needed (paper's key argument): two
correct processes that copied *conflicting* values both send in the same
``("copy", sender, k)`` round; at least one receives the other's copy —
which embeds a valid sender signature on the other value — **before its own
round ends**, and therefore refuses to compile an L1 proof. Hence correct
processes never build contradicting L1 proofs; since an L2 proof needs
``t+1`` L1 *builder* signatures and at most ``t`` builders are Byzantine,
no two L2 proofs for different values can exist, for any sequence number.

Message shapes (round payloads)::

    ("VAL",  k, m, sig_s)                              # post by sender
    ("COPY", k, m, sig_s, sig_copier)                  # round ("copy", s, k)
    ("L1",   k, m, sig_s, copies, sig_builder)         # round ("l1", s, k)
        copies = ((j, sig_j), ...) with >= t+1 distinct j
    ("L2",   k, m, sig_s, l1items)                     # post
        l1items = ((builder, copies, sig_builder), ...) with >= t+1 builders

Signature domains are tagged and bind the sender pid and seq, so proofs
cannot be replayed across instances, sequence numbers, or values.
"""

from __future__ import annotations

from typing import Any, Optional

from ..crypto.signatures import Signature, SignatureScheme, Signer
from ..errors import ConfigurationError
from ..sim.adversary import Adversary, ReliableAsynchronous
from ..sim.runner import Simulation
from ..types import ProcessId, SeqNum
from .rounds import (
    Label,
    MessagePassingRoundTransport,
    POST,
    RoundProcess,
    RoundTransport,
    SharedMemoryRoundTransport,
)

# -- signature domains -------------------------------------------------------------


def val_domain(sender: ProcessId, k: SeqNum, m: Any) -> tuple:
    return ("SRB-VAL", sender, k, m)


def copy_domain(sender: ProcessId, k: SeqNum, m: Any) -> tuple:
    return ("SRB-COPY", sender, k, m)


def l1_domain(sender: ProcessId, k: SeqNum, m: Any) -> tuple:
    return ("SRB-L1", sender, k, m)


# -- proof validation (pure functions, reused by checkers and benches) ---------------
#
# Every relay hop and every receiver re-validates the same proof objects:
# an L2 proof for (k, m) embeds t+1 L1 proofs of t+1 copier signatures
# each, and the proof tuple travels *by reference* through the simulated
# network — an O(n * t^2) pile of redundant HMACs per broadcast without
# memoization. The validators below memoize their verdicts in the scheme's
# ``memo`` (an :class:`~repro.crypto.serialize.IdentityMemo`) under the
# proof *objects* they were handed, so a lookup never serializes: the same
# proof is validated once per scheme and then answered by a dict probe. A
# list-shaped (or otherwise look-alike, or mutable) copy of a proof is a
# different object and is validated on its own — it can neither poison the
# genuine proof's entry nor inherit it — and a structurally equal second
# copy is re-validated once, its HMACs still deduplicated by the scheme's
# signature-verdict memo (the signed domains are rebuilt from the same
# parts). Verdicts are bit-identical to the uncached path.

_MEMO_MISS = object()


def validate_copies(
    scheme: SignatureScheme,
    sender: ProcessId,
    k: SeqNum,
    m: Any,
    copies: Any,
    t: int,
) -> bool:
    """>= t+1 distinct copiers, each with a valid COPY signature on (k, m)."""
    if not isinstance(copies, tuple):
        return False
    seen: set[ProcessId] = set()
    domain = copy_domain(sender, k, m)
    for item in copies:
        if not (isinstance(item, tuple) and len(item) == 2):
            continue
        j, sig = item
        if (
            isinstance(j, int)  # attacker-chosen: must be hashable for `seen`
            and j not in seen
            and scheme.verify_from(j, domain, sig)
        ):
            seen.add(j)
    return len(seen) >= t + 1


def validate_l1_item(
    scheme: SignatureScheme,
    sender: ProcessId,
    k: SeqNum,
    m: Any,
    item: Any,
    t: int,
) -> Optional[ProcessId]:
    """Validate one L1 proof ``(builder, copies, sig_builder)``; returns builder.

    Memoized per scheme under the item's three components rather than the
    item: receivers and L2 assemblers wrap the same ``copies`` and
    signature objects in triples of their own, and re-validate each L1
    proof for free all the same. The item is unpacked once, so the key and
    the verdict are about the same three objects.
    """
    if not (isinstance(item, tuple) and len(item) == 3):
        return None
    builder, copies, sig = item
    key = ("srb-l1", sender, k, m, builder, copies, sig, t)
    verdict = scheme.memo.get(key, _MEMO_MISS)
    if verdict is _MEMO_MISS:
        verdict = (
            builder
            if scheme.verify_from(builder, l1_domain(sender, k, m), sig)
            and validate_copies(scheme, sender, k, m, copies, t)
            else None
        )
        scheme.memo.put(key, verdict)
    return verdict


def _validate_l2_uncached(
    scheme: SignatureScheme,
    sender: ProcessId,
    payload: Any,
    t: int,
) -> Optional[tuple[SeqNum, Any]]:
    if not (isinstance(payload, tuple) and len(payload) == 5 and payload[0] == "L2"):
        return None
    _, k, m, sig_s, l1items = payload
    if not isinstance(k, int) or k < 1:
        return None
    if not scheme.verify_from(sender, val_domain(sender, k, m), sig_s):
        return None
    if not isinstance(l1items, tuple):
        return None
    builders: set[ProcessId] = set()
    for item in l1items:
        b = validate_l1_item(scheme, sender, k, m, item, t)
        if b is not None:
            builders.add(b)
    if len(builders) < t + 1:
        return None
    return (k, m)


def validate_l2(
    scheme: SignatureScheme,
    sender: ProcessId,
    payload: Any,
    t: int,
) -> Optional[tuple[SeqNum, Any]]:
    """Validate an L2 payload; returns ``(k, m)`` when sound, else ``None``.

    Memoized per scheme under the payload object: the L2 proof is posted
    once and then re-checked by every receiver and forwarded by every
    relay — with the memo the full pyramid is validated once per scheme.
    """
    key = ("srb-l2", sender, payload, t)
    verdict = scheme.memo.get(key, _MEMO_MISS)
    if verdict is _MEMO_MISS:
        verdict = _validate_l2_uncached(scheme, sender, payload, t)
        scheme.memo.put(key, verdict)
    return verdict


_ARITY = {"VAL": 4, "COPY": 5, "L1": 6, "L2": 5}  # payload length by kind
# ``_Instance.step``: what this process has done for k, in the only order it can
_NOTHING, _COPY_OPEN, _COPY_DONE, _L1_OPEN, _L1_DONE, _L2_POSTED = range(6)


class _Instance:
    """One undelivered sequence number: the adopted value and sender
    signature, whether a conflicting value was seen, the copies and L1
    proofs heard for it, and ``step``."""

    __slots__ = ("m", "sig_s", "conflict", "copies", "l1s", "step")

    def __init__(self, m: Any, sig_s: Signature) -> None:
        self.m, self.sig_s = m, sig_s
        self.conflict, self.step = False, _NOTHING
        self.copies: dict[ProcessId, Signature] = {}  # copier -> its signature
        self.l1s: dict[ProcessId, tuple] = {}  # builder -> its L1 proof


class SRBFromUnidirectional(RoundProcess):
    """One process of the Algorithm-1 SRB system.

    Construct one per process with the *same* ``sender`` and ``t``; call
    :meth:`broadcast` on the sender's instance. Deliveries arrive at
    :meth:`on_deliver` and in the trace as ``bcast_deliver`` events.

    Its state is one :class:`_Instance` per undelivered sequence number it
    has heard of and the L2 proofs waiting for delivery; delivering ``k``
    deletes both. **A late message** — a round message of one of the four
    shapes whose ``k`` is an int below ``next_seq`` — is dropped before its
    signatures and proofs are validated and before any counter is touched:
    ``k``'s L2 proof is already posted, so nothing in it can change what
    this process does. The end of a round of a delivered ``k`` does nothing.
    """

    def __init__(
        self,
        transport: RoundTransport,
        sender: ProcessId,
        t: int,
        scheme: SignatureScheme,
        signer: Signer,
    ) -> None:
        super().__init__(transport)
        if t < 0:
            raise ConfigurationError(f"t must be non-negative, got {t}")
        self.sender = sender
        self.t = t
        self.scheme = scheme
        self.signer = signer
        # sender side
        self.my_seq: SeqNum = 0
        # receiver side
        self.next_seq: SeqNum = 1
        self._instances: dict[SeqNum, _Instance] = {}
        self._l2s: dict[SeqNum, tuple] = {}
        # babble hardening, counted apart for the chaos harness: malformed
        # payloads vs. well-formed ones whose proofs fail validation
        self.malformed_rejects = 0
        self.proof_rejects = 0
        self.conflicts_detected = 0

    # -- public API -------------------------------------------------------------

    def broadcast(self, message: Any) -> SeqNum:
        """(Sender only.) Broadcast ``message`` with the next sequence number."""
        if self.pid != self.sender:
            raise ConfigurationError(
                f"process {self.pid} is not the sender ({self.sender})"
            )
        self.my_seq += 1
        k = self.my_seq
        sig = self.signer.sign(val_domain(self.sender, k, message))
        self.ctx.record("bcast", seq=k, value=message)
        self.rounds.post(("VAL", k, message, sig))
        return k

    def on_deliver(self, sender: ProcessId, seq: SeqNum, message: Any) -> None:
        """Application hook; override in subclasses or observe the trace."""

    # -- message ingestion -----------------------------------------------------------

    def on_round_message(self, label: Label, src: ProcessId, payload: Any) -> None:
        if not (
            isinstance(payload, tuple) and payload and isinstance(payload[0], str)
            and _ARITY.get(payload[0]) == len(payload)
        ):  # Byzantine babble: no tuple, an unknown kind or a wrong arity
            self.malformed_rejects += 1
            return
        kind, k = payload[0], payload[1]
        if isinstance(k, int) and k < self.next_seq:
            return  # a late message (see the class docstring)
        if kind == "L2":
            if validate_l2(self.scheme, self.sender, payload, self.t) is None:
                self.proof_rejects += 1
            else:
                self._l2s.setdefault(k, payload)
                self._maybe_deliver()
            return
        m = payload[2]
        inst = self._note_val(k, m, payload[3])
        if inst is None:
            self.proof_rejects += 1
            return
        if kind == "COPY":
            sig = payload[4]
            if not (
                isinstance(sig, Signature)
                and self.scheme.verify(copy_domain(self.sender, k, m), sig)
            ):
                self.proof_rejects += 1
            elif inst.m == m:
                inst.copies[sig.signer] = sig
        elif kind == "L1":
            if inst.m != m:
                return
            copies, sig = payload[4:]
            builder = validate_l1_item(
                self.scheme, self.sender, k, m,
                (sig.signer if isinstance(sig, Signature) else -1, copies, sig),
                self.t,
            )
            if builder is None:
                self.proof_rejects += 1
            else:
                inst.l1s[builder] = (builder, copies, sig)
        self._advance(k)

    def _note_val(self, k: Any, m: Any, sig_s: Any) -> Optional[_Instance]:
        """Register a sender-signed value and detect conflicts: a second
        *distinct* validly-signed value for ``k`` poisons ``k`` (this process
        never compiles an L1 proof for it). Returns ``k``'s instance, or
        ``None`` when the signature is invalid."""
        if not isinstance(k, int) or k < 1:
            return None
        if not self.scheme.verify_from(
            self.sender, val_domain(self.sender, k, m), sig_s
        ):
            return None
        inst = self._instances.get(k)
        if inst is None:
            inst = self._instances[k] = _Instance(m, sig_s)
        elif inst.m != m and not inst.conflict:
            inst.conflict = True
            self.conflicts_detected += 1
        return inst

    # -- round completion -------------------------------------------------------------

    def on_round_complete(self, label: Label) -> None:
        phase, _sender, k = label  # this process's own ("copy" | "l1", sender, k)
        inst = self._instances.get(k)
        if inst is not None:  # else k is delivered and forgotten
            inst.step = _COPY_DONE if phase == "copy" else _L1_DONE
            self._advance(k)

    # -- one instance per sequence number ---------------------------------------------

    def _advance(self, k: SeqNum) -> None:
        """Drive instance ``k`` through copy → L1 → L2, independently of the
        others: only an event about ``k`` (its messages, its rounds) can
        move it, so an event advances the one instance it names."""
        inst = self._instances.get(k)
        if inst is None:
            return  # nothing to copy yet
        m, sig_s = inst.m, inst.sig_s
        if inst.step == _NOTHING:
            inst.step = _COPY_OPEN
            my_sig = self.signer.sign(copy_domain(self.sender, k, m))
            self.rounds.begin_round(
                ("COPY", k, m, sig_s, my_sig), ("copy", self.sender, k)
            )
        elif (inst.step == _COPY_DONE and not inst.conflict
              and len(inst.copies) >= self.t + 1):
            copies = tuple(sorted(inst.copies.items()))
            my_sig = self.signer.sign(l1_domain(self.sender, k, m))
            inst.step = _L1_OPEN
            self.rounds.begin_round(
                ("L1", k, m, sig_s, copies, my_sig), ("l1", self.sender, k)
            )
        elif inst.step == _L1_DONE and len(inst.l1s) >= self.t + 1:
            l1s = inst.l1s
            l2 = ("L2", k, m, sig_s, tuple(l1s[b] for b in sorted(l1s))[: self.t + 1])
            inst.step = _L2_POSTED
            self._l2s.setdefault(k, l2)
            self.rounds.post(l2)
            self._maybe_deliver()

    def _maybe_deliver(self) -> None:
        """The paper's ``maybeDeliver``: drain valid L2 proofs in order,
        forgetting each delivered sequence number."""
        while True:
            k = self.next_seq
            proof = self._l2s.pop(k, None)
            if proof is None:
                return
            checked = validate_l2(self.scheme, self.sender, proof, self.t)
            if checked is None:  # stored proofs were validated; belt and braces
                return
            _, m = checked
            inst = self._instances.pop(k, None)
            if inst is None or inst.step != _L2_POSTED:
                self.rounds.post(proof)  # relay
            self.ctx.record("bcast_deliver", sender=self.sender, seq=k, value=m)
            self.on_deliver(self.sender, k, m)
            self.next_seq = k + 1

    # -- counters ---------------------------------------------------------------

    def consensus_stats(self) -> dict[str, Any]:
        """Counters for chaos-harness aggregation (numeric values are
        summed key-wise across processes)."""
        return {
            "delivered": self.next_seq - 1,
            "conflicts_detected": self.conflicts_detected,
            "malformed_rejects": self.malformed_rejects,
            "proof_rejects": self.proof_rejects,
        }


# ---------------------------------------------------------------------------
# Convenience builders
# ---------------------------------------------------------------------------


def build_sm_srb_system(
    n: int,
    t: int,
    sender: ProcessId = 0,
    seed: int = 0,
    adversary: Adversary | None = None,
    process_factory=None,
) -> tuple[Simulation, list[SRBFromUnidirectional], SignatureScheme]:
    """An Algorithm-1 SRB system over shared-memory unidirectional rounds.

    Returns ``(simulation, processes, scheme)`` ready to run; the SWMR-style
    append-only logs are registered on the simulation. ``process_factory``
    (pid, transport, scheme, signer) → Process lets tests substitute
    Byzantine variants for chosen pids.
    """
    if n < 2 * t + 1:
        raise ConfigurationError(
            f"Algorithm 1 requires n >= 2t+1 (got n={n}, t={t})"
        )
    if not (0 <= sender < n):
        raise ConfigurationError(f"sender {sender} out of range (n={n})")
    scheme = SignatureScheme(n, seed=seed)
    processes: list[Any] = []
    for pid in range(n):
        transport = SharedMemoryRoundTransport()
        signer = scheme.signer(pid)
        if process_factory is not None:
            proc = process_factory(pid, transport, scheme, signer)
        else:
            proc = SRBFromUnidirectional(transport, sender, t, scheme, signer)
        processes.append(proc)
    adversary = adversary if adversary is not None else ReliableAsynchronous(0.01, 1.0)
    sim = Simulation(processes, adversary, seed=seed)
    for log in SharedMemoryRoundTransport.build_objects(n):
        sim.memory.register(log)
    return sim, processes, scheme


def build_mp_srb_system(
    n: int,
    t: int,
    sender: ProcessId = 0,
    seed: int = 0,
    adversary: Adversary | None = None,
    reliable: bool | dict = False,
    process_factory=None,
    trace_retention: int | None = None,
    observers: tuple = (),
) -> tuple[Simulation, list[SRBFromUnidirectional], SignatureScheme]:
    """An Algorithm-1 SRB system over message-passing rounds.

    Message-passing rounds are only zero-directional under full asynchrony
    (see :mod:`repro.core.rounds`), so this deployment does not carry the
    construction's Byzantine-sender guarantee — it is the crash/loss-fault
    configuration the chaos harness exercises. ``reliable`` wraps every
    process in a :class:`~repro.faults.channel.ReliableProcess` (pass a
    dict to forward ReliableChannel options) so the protocol stays live on
    lossy links; the returned process list always holds the *inner* SRB
    instances.
    """
    if n < 2 * t + 1:
        raise ConfigurationError(
            f"Algorithm 1 requires n >= 2t+1 (got n={n}, t={t})"
        )
    if not (0 <= sender < n):
        raise ConfigurationError(f"sender {sender} out of range (n={n})")
    scheme = SignatureScheme(n, seed=seed)
    processes: list[Any] = []
    for pid in range(n):
        transport = MessagePassingRoundTransport(f=t)
        signer = scheme.signer(pid)
        if process_factory is not None:
            proc = process_factory(pid, transport, scheme, signer)
        else:
            proc = SRBFromUnidirectional(transport, sender, t, scheme, signer)
        processes.append(proc)
    hosted: list[Any] = processes
    if reliable:
        from ..faults.channel import wrap_reliable  # lazy: faults builds on sim

        kwargs = reliable if isinstance(reliable, dict) else {}
        hosted = wrap_reliable(processes, **kwargs)
    adversary = adversary if adversary is not None else ReliableAsynchronous(0.01, 1.0)
    sim = Simulation(hosted, adversary, seed=seed,
                     trace_retention=trace_retention, observers=observers)
    return sim, processes, scheme
