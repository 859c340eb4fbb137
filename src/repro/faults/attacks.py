"""Protocol-aware Byzantine attacks, runnable through the chaos harness.

The omission-fault layers (:mod:`~repro.faults.adversaries`,
:mod:`~repro.faults.chaos`) drop, delay, and reorder *the network*; this
module makes the *processes* adversarial. Each :class:`Attack` is a small
stateful strategy mounted on an unmodified correct replica via
:class:`AttackerProcess` (a :class:`~repro.sim.byzantine.ByzantineWrapper`
that a restart factory rebuilds around the same attack): the attacker
follows the protocol except where the attack intervenes, so everything it
sends passes syntactic validation — the strongest realistic process-level
adversary.

Two tiers, mirroring the paper's classification:

- **Hardware-respecting attacks** (everything in :data:`ATTACKS`): the
  attacker's trinket/USIG/signer are intact, so every lie it can tell is
  one the trusted hardware permits. The paper's claim under test is that
  these are *harmless at n = 2f+1* (MinBFT/SRB; 3f+1 for PBFT): the sweep
  oracle is the streaming safety + liveness auditors, and the equivocation
  cell is additionally verified over every schedule by the ``mc/``
  explorer.
- **Hardware-compromised attacks** (:class:`TraitorReplica`, built on
  :mod:`repro.hardware.compromise`): the trinket is cloned or its key
  extracted, non-equivocation fails, and MinBFT safety at n = 2f+1
  genuinely breaks — the planted negative the classification predicts,
  detected and convicted by :mod:`repro.consensus.forensics`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from ..consensus.minbft import (
    CHECKPOINT as MB_CHECKPOINT,
    MinBFTReplica,
    PREPARE as MB_PREPARE,
    REQ_VIEW_CHANGE as MB_REQ_VIEW_CHANGE,
    USIG_WRAP,
    VIEW_CHANGE as MB_VIEW_CHANGE,
)
from ..consensus.pbft import PRE_PREPARE as PBFT_PRE_PREPARE, pp_domain
from ..consensus.replica import proposal_requests, request_key
from ..core.rounds import ROUND_MSG
from ..core.srb_from_uni import val_domain
from ..crypto.serialize import content_hash
from ..errors import ConfigurationError
from ..sim.byzantine import ByzantineWrapper
from ..sim.process import Process
from ..types import ProcessId, SeqNum

__all__ = [
    "ATTACKS",
    "Attack",
    "AttackSpec",
    "AttackerProcess",
    "PBFTEquivocation",
    "PrepareEquivocation",
    "SRBForgedL1",
    "SRBSenderEquivocation",
    "SRBTruncatedL2",
    "SelectiveDelivery",
    "StaleCheckpointLie",
    "TraitorReplica",
    "UIReorder",
    "UIReplay",
    "ViewChangeWithholding",
    "attacks_for",
    "get_attack",
]


# ---------------------------------------------------------------------------
# Mounting machinery
# ---------------------------------------------------------------------------


class Attack:
    """One adversarial strategy: a stateful outgoing-message filter.

    ``outgoing(src, dst, msg)`` follows the
    :data:`~repro.sim.byzantine.MessageFilter` contract — return ``None``
    to drop, a message to substitute, or a list of ``(dst, msg)`` pairs to
    multi-send. :meth:`bind` hands the attack its live inner replica (and
    is called again with the fresh instance after every restart), so
    attacks can mint genuinely-signed lies with the replica's own intact
    hardware. Counters survive restarts: the attack object itself is the
    unit of adversarial identity, not any one incarnation.
    """

    name = "attack"

    def __init__(self) -> None:
        self._inner_ref: Optional[weakref.ref] = None
        self.strikes = 0  # times the attack actually deviated
        self.suppressed = 0  # messages it withheld
        self.injected = 0  # extra messages it minted/sent
        self.missed = 0  # strike opportunities it had to pass up

    def bind(self, inner: Process) -> None:
        self._inner_ref = weakref.ref(inner)

    @property
    def _inner(self) -> Optional[Process]:
        """The bound incarnation, held weakly: its context's filter leads here."""
        return None if self._inner_ref is None else self._inner_ref()

    def outgoing(self, src: ProcessId, dst: ProcessId, msg: Any) -> Any:
        return msg

    def stats(self) -> dict:
        return {
            "strikes": self.strikes,
            "suppressed": self.suppressed,
            "injected": self.injected,
            "missed": self.missed,
        }


class AttackerProcess(ByzantineWrapper):
    """A correct replica driven by an :class:`Attack`.

    The replica is reached as ``inner`` (or through
    :func:`~repro.sim.process.bare` from any hosting stack). A restart
    keeps the attack when its factory wraps the fresh replica in a new
    ``AttackerProcess`` around the *same* attack object, which rebinds it.
    """

    def __init__(self, inner: Process, attack: Attack) -> None:
        super().__init__(inner, attack.outgoing)
        self.attack = attack
        attack.bind(inner)


# ---------------------------------------------------------------------------
# Wire-shape helpers
# ---------------------------------------------------------------------------


def _unwrap_usig(msg: Any) -> Optional[tuple]:
    """``(message, ui)`` when ``msg`` is a MinBFT USIG-wrapped send."""
    if isinstance(msg, tuple) and len(msg) == 3 and msg[0] == USIG_WRAP:
        return msg[1], msg[2]
    return None


def _round_payload(msg: Any) -> Optional[tuple]:
    """``(label, payload)`` when ``msg`` is a round-transport frame."""
    if isinstance(msg, tuple) and len(msg) == 3 and msg[0] == ROUND_MSG:
        return msg[1], msg[2]
    return None


def _alt_request(inner: Any, proposal: Any) -> Optional[Any]:
    """A pending client request *not* carried by ``proposal`` — the raw
    material for an equivocation (proposing two different values for one
    slot requires two distinct values to exist).

    Prefers a request not yet proposed in any other slot: equivocating
    with a *fresh* value is the strongest attack — a re-proposed request
    would be deduplicated into a noop at the victim, blunting the fork
    into a liveness hiccup instead of a divergence attempt."""
    taken = set()
    for req in proposal_requests(proposal):
        if isinstance(req, tuple) and len(req) == 5:
            taken.add(request_key(req))
    candidates = [
        (key, request)
        for key, request in sorted(inner._pending.items())
        if key not in taken
    ]
    for key, request in candidates:
        if key not in inner._proposed_keys and not inner._is_executed(key):
            return request
    return candidates[0][1] if candidates else None


# ---------------------------------------------------------------------------
# MinBFT attacks (hardware-respecting)
# ---------------------------------------------------------------------------


class PrepareEquivocation(Attack):
    """Primary proposes two different requests for one slot — the canonical
    equivocation attempt, mounted with *intact* hardware.

    The USIG forces the alternative PREPARE onto the next counter value,
    so this is really a fork of the attacker's message stream: the victim
    receives only the alt (a gap at the original's counter wedges the
    attacker's stream at the victim from then on), everyone else receives
    both (first-prepare-wins discards the alt). Safety holds because
    COMMITs embed the primary's prepare UI: the victim certifies the
    original slot from correct replicas' COMMITs alone. The MC cell
    ``minbft-equivocation`` checks this over every schedule.
    """

    name = "equivocate-prepare"

    def __init__(self, victim: Optional[ProcessId] = None) -> None:
        super().__init__()
        self._victim = victim
        self._struck_counter: Optional[SeqNum] = None
        self._alt_wrapped: Optional[tuple] = None

    def outgoing(self, src: ProcessId, dst: ProcessId, msg: Any) -> Any:
        unwrapped = _unwrap_usig(msg)
        if unwrapped is None:
            return msg
        message, ui = unwrapped
        if self._struck_counter is None:
            if not (
                isinstance(message, tuple)
                and len(message) == 4
                and message[0] == MB_PREPARE
            ):
                return msg
            alt = _alt_request(self._inner, message[3])
            if alt is None:
                self.missed += 1
                return msg
            inner = self._inner
            alt_msg = (MB_PREPARE, message[1], message[2], alt)
            alt_ui = inner.usig.create_ui(alt_msg)
            inner.sent_log.append((alt_msg, alt_ui))
            self._alt_wrapped = (USIG_WRAP, alt_msg, alt_ui)
            self._struck_counter = ui.counter
            self.strikes += 1
        if ui.counter != self._struck_counter:
            return msg
        victim = self._victim
        if victim is None:
            victim = self._inner.n - 1 if src != self._inner.n - 1 else self._inner.n - 2
        if dst == victim:
            self.suppressed += 1
            self.injected += 1
            return [(dst, self._alt_wrapped)]
        self.injected += 1
        return [(dst, msg), (dst, self._alt_wrapped)]


class UIReplay(Attack):
    """Re-send the previous USIG message after every new one (stale
    out-of-order duplicates); the receive-side order enforcer must shed
    them without double-processing."""

    name = "ui-replay"

    def __init__(self) -> None:
        super().__init__()
        self._last: dict[ProcessId, Any] = {}

    def outgoing(self, src: ProcessId, dst: ProcessId, msg: Any) -> Any:
        if _unwrap_usig(msg) is None:
            return msg
        prev = self._last.get(dst)
        self._last[dst] = msg
        if prev is None:
            return msg
        self.strikes += 1
        self.injected += 1
        return [(dst, msg), (dst, prev)]


class UIReorder(Attack):
    """Swap the first two USIG messages to each destination; the order
    enforcer's holdback queue must re-sequence the stream."""

    name = "ui-reorder"

    def __init__(self) -> None:
        super().__init__()
        self._held: dict[ProcessId, Any] = {}
        self._done: set[ProcessId] = set()

    def outgoing(self, src: ProcessId, dst: ProcessId, msg: Any) -> Any:
        if dst in self._done or _unwrap_usig(msg) is None:
            return msg
        held = self._held.pop(dst, None)
        if held is None:
            self._held[dst] = msg
            self.suppressed += 1
            return None
        self._done.add(dst)
        self.strikes += 1
        return [(dst, msg), (dst, held)]


class StaleCheckpointLie(Attack):
    """Re-attest an *old* checkpoint body at a fresh counter alongside every
    new checkpoint — a hardware-truthful lie about current state. Receivers
    must pin checkpoint votes to ``(seq, digest)`` and refuse to stabilize
    backwards. Requires ``checkpoint_interval > 0`` on the cell."""

    name = "stale-checkpoint"

    def __init__(self) -> None:
        super().__init__()
        self._first_body: Optional[tuple] = None
        self._minted_for: Optional[SeqNum] = None
        self._lie: Optional[tuple] = None

    def outgoing(self, src: ProcessId, dst: ProcessId, msg: Any) -> Any:
        unwrapped = _unwrap_usig(msg)
        if unwrapped is None:
            return msg
        message, ui = unwrapped
        if not (
            isinstance(message, tuple)
            and len(message) == 3
            and message[0] == MB_CHECKPOINT
        ):
            return msg
        if self._first_body is None:
            self._first_body = message
            return msg
        if message == self._first_body:
            return msg
        if ui.counter != self._minted_for:
            # one stale re-attestation per checkpoint broadcast, not per dst
            inner = self._inner
            lie_ui = inner.usig.create_ui(self._first_body)
            inner.sent_log.append((self._first_body, lie_ui))
            self._lie = (USIG_WRAP, self._first_body, lie_ui)
            self._minted_for = ui.counter
            self.strikes += 1
        self.injected += 1
        return [(dst, msg), (dst, self._lie)]


class ViewChangeWithholding(Attack):
    """Withhold every REQ-VIEW-CHANGE vote.

    Paired with a crash schedule that kills the primary: the attacker
    never admits the primary is gone, so the f+1 request quorum must form
    from the correct replicas alone (here: the survivor plus the restarted
    primary itself) and the view change must still complete — the
    attacker's VIEW-CHANGE message, which it *does* send once dragged into
    the view change, is what lets the new primary certify the switch.

    Withholding the VIEW-CHANGE message itself is deliberately out of
    scope: it is USIG-wrapped, so dropping it burns a counter value and
    permanently gaps the attacker's own stream at every receiver — the
    order enforcer then holds back everything it ever sends again. That is
    self-silencing, behaviourally identical to crashing, and at n = 2f+1
    it stacks a second (crash) fault on top of the scheduled primary
    outage — outside the f = 1 budget this cell deploys.
    """

    name = "vc-withhold"

    def outgoing(self, src: ProcessId, dst: ProcessId, msg: Any) -> Any:
        if isinstance(msg, tuple) and msg and msg[0] == MB_REQ_VIEW_CHANGE:
            self.suppressed += 1
            self.strikes += 1
            return None
        return msg


class SelectiveDelivery(Attack):
    """Send nothing to the victims (selective silence); works against every
    protocol since it never inspects payloads."""

    name = "selective-delivery"

    def __init__(self, *victims: ProcessId) -> None:
        super().__init__()
        self._victims = frozenset(victims)

    def outgoing(self, src: ProcessId, dst: ProcessId, msg: Any) -> Any:
        if dst in self._victims:
            self.suppressed += 1
            self.strikes += 1
            return None
        return msg


# ---------------------------------------------------------------------------
# PBFT attacks
# ---------------------------------------------------------------------------


class PBFTEquivocation(Attack):
    """PBFT primary sends the victim a conflicting pre-prepare for one slot.

    Nothing stops the signature (no trusted counter — that is the paper's
    point), but at n = 3f+1 the 2f+1 commit quorum does: the victim
    accepts the alt digest, watches the rest of the group commit the
    original, and recovers the slot via checkpoint state transfer.
    Requires ``checkpoint_interval > 0`` on the cell.
    """

    name = "pbft-equivocate"

    def __init__(self, victim: Optional[ProcessId] = None) -> None:
        super().__init__()
        self._victim = victim
        self._struck_slot: Optional[tuple] = None
        self._alt: Optional[tuple] = None

    def outgoing(self, src: ProcessId, dst: ProcessId, msg: Any) -> Any:
        if not (
            isinstance(msg, tuple) and len(msg) == 5 and msg[0] == PBFT_PRE_PREPARE
        ):
            return msg
        _, view, seq, proposal, _sig = msg
        if self._struck_slot is None:
            alt = _alt_request(self._inner, proposal)
            if alt is None:
                self.missed += 1
                return msg
            inner = self._inner
            alt_sig = inner.signer.sign(pp_domain(view, seq, content_hash(alt)))
            self._alt = (PBFT_PRE_PREPARE, view, seq, alt, alt_sig)
            self._struck_slot = (view, seq)
            self.strikes += 1
        if (view, seq) != self._struck_slot:
            return msg
        victim = self._victim if self._victim is not None else self._inner.n - 1
        if dst == victim:
            self.injected += 1
            return self._alt
        return msg


# ---------------------------------------------------------------------------
# SRB attacks (against core/srb_from_uni.py, Algorithm 1)
# ---------------------------------------------------------------------------


class SRBSenderEquivocation(Attack):
    """Byzantine sender signs two different values for one sequence number
    and sends each to half the group. The copy round cross-pollinates the
    conflicting signatures, every correct process poisons ``k``, and
    nobody delivers — agreement holds vacuously (the cell runs with
    ``expect_complete=False``)."""

    name = "srb-equivocate"

    def __init__(self) -> None:
        super().__init__()
        self._struck_k: Optional[SeqNum] = None
        self._alt_frame: Optional[tuple] = None

    def outgoing(self, src: ProcessId, dst: ProcessId, msg: Any) -> Any:
        framed = _round_payload(msg)
        if framed is None:
            return msg
        label, payload = framed
        if not (
            isinstance(payload, tuple) and len(payload) == 4 and payload[0] == "VAL"
        ):
            return msg
        _, k, value, _sig = payload
        if self._struck_k is None:
            inner = self._inner
            alt_value = ("EQUIVOCATED", value)
            alt_sig = inner.signer.sign(val_domain(inner.sender, k, alt_value))
            self._alt_frame = (ROUND_MSG, label, ("VAL", k, alt_value, alt_sig))
            self._struck_k = k
            self.strikes += 1
            # attest what was signed (as Byzantine senders here do): the
            # auditor's Byzantine-sender integrity clause must see it
            inner.ctx.record("bcast", seq=k, value=alt_value)
        if k != self._struck_k:
            return msg
        if dst % 2 == 1:
            self.injected += 1
            return self._alt_frame
        return msg


class SRBForgedL1(Attack):
    """A copier truncates the copy-quorum inside every L1 proof it builds
    (below t+1 signatures). Correct validators must reject the forgery and
    assemble L2 proofs from the honest builders' L1s."""

    name = "srb-forge-l1"

    def outgoing(self, src: ProcessId, dst: ProcessId, msg: Any) -> Any:
        framed = _round_payload(msg)
        if framed is None:
            return msg
        label, payload = framed
        if not (
            isinstance(payload, tuple) and len(payload) == 6 and payload[0] == "L1"
        ):
            return msg
        _, k, m, sig_s, copies, sig_builder = payload
        truncated = tuple(copies)[: self._inner.t] if isinstance(copies, tuple) else ()
        self.strikes += 1
        return (ROUND_MSG, label, ("L1", k, m, sig_s, truncated, sig_builder))


class SRBTruncatedL2(Attack):
    """Truncate every outgoing L2 proof below its t+1 L1 items; receivers
    must reject it and deliver from their own (or honest peers') proofs."""

    name = "srb-truncate-l2"

    def outgoing(self, src: ProcessId, dst: ProcessId, msg: Any) -> Any:
        framed = _round_payload(msg)
        if framed is None:
            return msg
        label, payload = framed
        if not (
            isinstance(payload, tuple) and len(payload) == 5 and payload[0] == "L2"
        ):
            return msg
        _, k, m, sig_s, l1items = payload
        truncated = (
            tuple(l1items)[: self._inner.t] if isinstance(l1items, tuple) else ()
        )
        self.strikes += 1
        return (ROUND_MSG, label, ("L2", k, m, sig_s, truncated))


# ---------------------------------------------------------------------------
# Hardware-compromised attacker
# ---------------------------------------------------------------------------


class TraitorReplica(MinBFTReplica):
    """A MinBFT primary whose trusted hardware is compromised.

    Its USIG key is extracted (:class:`~repro.hardware.compromise.
    KeyExtractedUSIG`), so it can bind *two different PREPAREs to the same
    counter value* — real equivocation, invisible to ``verify_ui`` and the
    order enforcer. At n = 2f+1 this splits the group: each half certifies
    its own value with f+1 votes (the traitor's UI counts in both), and
    replicated state diverges — the planted safety violation the paper's
    classification predicts when the hardware assumption fails. The
    :class:`~repro.consensus.forensics.AccountabilityChecker` convicts it
    from any two cross-observed conflicting UIs.
    """

    def __init__(self, *args: Any, victims: Sequence[ProcessId] = (2,), **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        from ..hardware.compromise import KeyExtractedUSIG

        self.usig = KeyExtractedUSIG.from_usig(self.usig)
        self._victims = tuple(victims)
        self._betrayed_seq: Optional[SeqNum] = None
        self.hw_equivocations = 0

    def _emit_slot(self, seq: SeqNum, proposal: Any) -> None:
        if self._betrayed_seq is not None:
            super()._emit_slot(seq, proposal)
            return
        alt = _alt_request(self, proposal)
        if alt is None:
            super()._emit_slot(seq, proposal)
            return
        msg_a = (MB_PREPARE, self.view, seq, proposal)
        ui_a = self.usig.create_ui(msg_a)
        msg_b = (MB_PREPARE, self.view, seq, alt)
        ui_b = self.usig.create_ui_at(msg_b, ui_a.counter)
        self.sent_log.append((msg_a, ui_a))
        # the forked value is "spent": re-proposing it in a later slot
        # would both dilute the fork (the victim dedups the second copy)
        # and advertise the betrayal in the traitor's own sent_log
        for req in proposal_requests(alt):
            self._proposed_keys.add(request_key(req))
        self._betrayed_seq = seq
        self.hw_equivocations += 1
        self.ctx.record("hw_equivocation", seq=seq, counter=ui_a.counter)
        wrapped_a = (USIG_WRAP, msg_a, ui_a)
        wrapped_b = (USIG_WRAP, msg_b, ui_b)
        for dst in range(self.n):
            self.ctx.send(dst, wrapped_b if dst in self._victims else wrapped_a)

    def consensus_stats(self) -> dict:
        stats = super().consensus_stats()
        stats["hw_equivocations"] = self.hw_equivocations
        return stats


# ---------------------------------------------------------------------------
# Registry: the protocol × attack sweep axis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackSpec:
    """One cell family of the attack matrix.

    ``make`` builds a fresh :class:`Attack` per run; ``attacker`` is the
    pid it mounts on. ``protocol_kwargs`` extend the chaos runner's
    protocol configuration (e.g. forcing checkpoints on for
    checkpoint-dependent attacks); ``runner_kwargs`` extend the runner
    call itself (e.g. a longer workload so the attack's trigger window is
    actually populated); ``crashable`` overrides the crash schedule's
    candidate set (empty = attack-only, no crashes) and ``crash_script``
    — ``(pid, at, restart_at)`` triples — replaces the sampled crashes
    outright, for attacks that only bite during a *scripted* outage.
    ``expect_complete`` is consumed by the SRB runner: sender-equivocation
    legitimately prevents delivery (conflict poisoning), so completion is
    not required — only agreement/integrity.
    """

    name: str
    protocol: str  # "minbft" | "pbft" | "srb"
    make: Callable[[], Attack]
    attacker: ProcessId
    description: str
    protocol_kwargs: Mapping[str, Any] = field(default_factory=dict)
    runner_kwargs: Mapping[str, Any] = field(default_factory=dict)
    crashable: tuple = ()
    crash_script: tuple = ()
    expect_complete: bool = True


ATTACKS: dict[str, AttackSpec] = {}


def _register(spec: AttackSpec) -> AttackSpec:
    ATTACKS[spec.name] = spec
    return spec


_register(AttackSpec(
    name="equivocate-prepare",
    protocol="minbft",
    make=PrepareEquivocation,
    attacker=0,
    description="primary proposes two requests for one slot (intact USIG)",
))
_register(AttackSpec(
    name="ui-replay",
    protocol="minbft",
    make=UIReplay,
    attacker=2,
    description="backup replays every previous USIG message out of order",
))
_register(AttackSpec(
    name="ui-reorder",
    protocol="minbft",
    make=UIReorder,
    attacker=2,
    description="backup swaps the first two USIG messages per destination",
))
_register(AttackSpec(
    name="stale-checkpoint",
    protocol="minbft",
    make=StaleCheckpointLie,
    attacker=2,
    description="backup re-attests an old checkpoint at fresh counters",
    # interval 2 over the 6-slot default workload yields checkpoints at
    # 2/4/6 — the second one is what the lie re-attests
    protocol_kwargs={"checkpoint_interval": 2},
))
_register(AttackSpec(
    name="vc-withhold",
    protocol="minbft",
    make=ViewChangeWithholding,
    attacker=2,
    description="backup withholds view-change votes while the primary crashes",
    # scripted early outage: the sampled schedule may crash after the
    # closed-loop workload drains, leaving no view change to sabotage. A
    # longer workload keeps requests pending across the crash at t=12.
    runner_kwargs={"ops_per_client": 8},
    crashable=(0,),
    crash_script=((0, 12.0, 90.0),),
))
_register(AttackSpec(
    name="selective-delivery",
    protocol="minbft",
    make=lambda: SelectiveDelivery(2),
    attacker=1,
    description="backup sends nothing to one victim replica",
))
_register(AttackSpec(
    name="pbft-equivocate",
    protocol="pbft",
    make=PBFTEquivocation,
    attacker=0,
    description="PBFT primary pre-prepares conflicting digests (no trusted counter)",
    protocol_kwargs={"checkpoint_interval": 4},
))
_register(AttackSpec(
    name="pbft-selective",
    protocol="pbft",
    make=lambda: SelectiveDelivery(3),
    attacker=1,
    description="PBFT backup sends nothing to one victim replica",
))
_register(AttackSpec(
    name="srb-equivocate",
    protocol="srb",
    make=SRBSenderEquivocation,
    attacker=0,
    description="SRB sender signs two values for one k; conflict poisoning",
    expect_complete=False,
))
_register(AttackSpec(
    name="srb-forge-l1",
    protocol="srb",
    make=SRBForgedL1,
    attacker=1,
    description="copier forges L1 proofs with truncated copy quorums",
))
_register(AttackSpec(
    name="srb-truncate-l2",
    protocol="srb",
    make=SRBTruncatedL2,
    attacker=1,
    description="relay truncates L2 proofs below t+1 L1 items",
))


def get_attack(name: str) -> AttackSpec:
    try:
        return ATTACKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown attack {name!r}; known: {', '.join(sorted(ATTACKS))}"
        ) from None


def attacks_for(protocol: str) -> list[AttackSpec]:
    return [spec for spec in ATTACKS.values() if spec.protocol == protocol]
