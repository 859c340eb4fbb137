"""Model-checkable systems, including three planted-bug fixtures.

Each entry in :data:`SYSTEMS` names a small configuration the bounded
model checker can sweep: a factory building a fresh un-started system, an
optional quiescent-leaf check, and the explorer options that define its
*configured bound* (focus set, depth cap, timer suppression). Workers of a
parallel exhaustive sweep resolve entries by name, so nothing here needs
to pickle across processes.

The planted bugs, in increasing order of how hard they are to catch:

- ``srb-eager`` — :class:`~repro.faults.chaos.EagerBrokenSRB` delivers on
  first sight of a signed value. Seeded chaos *does* catch this (that is
  its regression role); the model checker convicts it within a 3-step
  bound focused on one receiver, no luck required.
- ``minbft-stalling`` — :class:`~repro.faults.chaos.StallingPrimary`
  never proposes. A pure liveness bug: every schedule quiesces with zero
  executed requests, so the quiescent-leaf check convicts *all* leaves.
- ``srb-echo-gap`` — the detection-power fixture. A checkpoint fast-path
  (below) commits sequence ``k`` straight from another receiver's
  checkpoint without owning the prefix. Under the oracle's sampled delays
  the triggering order is *geometrically impossible* — the checkpoint for
  seq 2 cannot exist before t = 2.1, while VAL(1) always lands by t = 2.0
  — so every seeded run is clean (:func:`sampled_verdicts` demonstrates
  this over hundreds of seeds). The logical-order adversary of the model
  checker is not bound by drawn delays and convicts it in seconds: the
  Dolev–Spielrein bounded-model point, executable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..core.srb import SRBStreamChecker
from ..core.srb_oracle import SRBOracle, SRBSenderHandle
from ..errors import ConfigurationError
from ..sim.adversary import LockStepSynchronous
from ..sim.process import Process, ProcessId
from ..sim.runner import Simulation
from ..types import ProcessId

IMMEDIATE = 0.05
"""Constant link delay for model-checked runs (times only break ties)."""

CHECKPOINT_EVERY = 2
"""A :class:`CheckpointRelay` broadcasts a checkpoint every this many
commits — which is why checkpoint 2 is the first (and only) one here."""


# ---------------------------------------------------------------------------
# The echo-gap protocol (fixture 3)
# ---------------------------------------------------------------------------


class CheckpointSender(Process):
    """Sender of the echo-gap fixture: broadcasts values at t=1, 2, …"""

    def __init__(self, oracle: SRBOracle, values: tuple = ("a", "b")) -> None:
        super().__init__()
        self.oracle = oracle
        self.values = values
        self._handle: Optional[SRBSenderHandle] = None

    def on_start(self) -> None:
        self._handle = self.oracle.sender_handle(self.pid)

    def broadcast_next(self, index: int) -> None:
        value = self.values[index]
        self.ctx.record("bcast", seq=index + 1, value=value)
        self._handle.broadcast(("V", index + 1, value))


class CheckpointRelay(Process):
    """Receiver with a checkpoint fast-path — deliberately broken.

    Correct behaviour: commit VAL(k) in sequence order, and after every
    :data:`CHECKPOINT_EVERY`-th commit broadcast ``("CHK", k, v)`` so a
    lagging peer can catch up. The planted bug is the catch-up path: a
    received checkpoint for ``k > committed`` is adopted *immediately*,
    without first obtaining the missing prefix — committing seq ``k`` over
    a gap, an SRB sequencing violation. Reachable only when a checkpoint
    overtakes the sender's first value, which sampled delays cannot
    produce (see module docstring) but a logical-order schedule can.
    """

    def __init__(self, oracle: SRBOracle, sender: ProcessId = 0) -> None:
        super().__init__()
        self.oracle = oracle
        self.sender = sender
        self._vals: dict[int, Any] = {}
        self._committed = 0
        self._handle: Optional[SRBSenderHandle] = None

    def on_start(self) -> None:
        self.oracle.subscribe(self.pid, self._on_deliver)
        self._handle = self.oracle.sender_handle(self.pid)

    def _on_deliver(self, src: ProcessId, seq: int, value: Any) -> None:
        if not isinstance(value, tuple) or not value:
            return
        if value[0] == "V" and src == self.sender:
            _, k, v = value
            self._vals[k] = v
            while self._committed + 1 in self._vals:
                nxt = self._committed + 1
                self._commit(nxt, self._vals[nxt])
        elif value[0] == "CHK" and src != self.sender:
            _, k, v = value
            if k > self._committed:
                # BUG: adopt the checkpoint without syncing the prefix
                self._commit(k, v)

    def _commit(self, k: int, v: Any) -> None:
        self._committed = k
        self.ctx.record("bcast_deliver", sender=self.sender, seq=k, value=v)
        if k % CHECKPOINT_EVERY == 0:
            self._handle.broadcast(("CHK", k, v))


def _echo_gap_policy(rng: Optional[random.Random]) -> Callable:
    """Delivery policy: no self-deliveries, nothing back to the sender.

    Both withheld legs are protocol no-ops (the sender never subscribes,
    a relay ignores its own checkpoint), dropped so they do not multiply
    the explored state space. ``rng`` picks sampled delays in [0.05, 1.0]
    for the seeded panel; ``None`` means the constant model-checking delay.
    """

    def policy(s, r, seq, now):
        if r == s or r == 0:
            return None
        return IMMEDIATE if rng is None else rng.uniform(IMMEDIATE, 1.0)

    return policy


def build_echo_gap(
    seed: int = 0, rng_delays: bool = False
) -> tuple[Simulation, SRBStreamChecker]:
    """n=3 echo-gap system: pid 0 sender, pids 1–2 checkpointing relays."""
    rng = random.Random(seed * 7919 + 5) if rng_delays else None
    oracle = SRBOracle(policy=_echo_gap_policy(rng), seed=seed,
                       record_trace=False)
    sender = CheckpointSender(oracle)
    procs = [sender, CheckpointRelay(oracle), CheckpointRelay(oracle)]
    sim = Simulation(procs, seed=seed)
    oracle.bind(sim)
    sim.at(1.0, lambda: sender.broadcast_next(0), label="bcast-1")
    sim.at(2.0, lambda: sender.broadcast_next(1), label="bcast-2")
    checker = SRBStreamChecker(
        0, correct=(1, 2), expect_complete=False,
        fail_fast=not rng_delays,
    )
    sim.attach_observer(checker)
    return sim, checker


def sampled_verdicts(
    seeds=range(200), horizon: float = 10.0
) -> list[bool]:
    """The seeded-panel control: one timed run per seed, True = clean.

    Every verdict is True — the echo-gap trigger is outside the sampled
    delay geometry — which is exactly what makes the fixture a proof of
    detection power beyond sampling (``tests/test_mc_fixtures.py``).
    """
    verdicts = []
    for seed in seeds:
        sim, checker = build_echo_gap(seed=seed, rng_delays=True)
        sim.run(until=horizon)
        sim.close()
        verdicts.append(not checker.finish().all_violations())
    return verdicts


# ---------------------------------------------------------------------------
# Fixture factories (explorer-facing)
# ---------------------------------------------------------------------------


def echo_gap_factory() -> tuple[Simulation, SRBStreamChecker]:
    return build_echo_gap(seed=0, rng_delays=False)


def eager_srb_factory() -> tuple[Simulation, SRBStreamChecker]:
    """EagerBrokenSRB over the real message-passing stack, n=3, t=1."""
    from ..core.srb_from_uni import build_mp_srb_system
    from ..faults.chaos import EagerBrokenSRB

    def proc_factory(pid, transport, scheme, signer):
        return EagerBrokenSRB(transport, 0, 1, scheme, signer)

    sim, procs, _scheme = build_mp_srb_system(
        n=3, t=1, sender=0, seed=0,
        adversary=LockStepSynchronous(1.0),
        reliable=False,
        process_factory=proc_factory,
    )
    sim.at(1.0, lambda: procs[0].broadcast("mc-a"), label="bcast-1")
    sim.at(2.0, lambda: procs[0].broadcast("mc-b"), label="bcast-2")
    checker = SRBStreamChecker(
        0, correct=(0, 1, 2), expect_complete=False, fail_fast=True
    )
    sim.attach_observer(checker)
    return sim, checker


def _isolate_victim(clients: list, victim: ProcessId = 2) -> None:
    """Partition the victim replica from everyone but the primary.

    Clients stop addressing it and replica 1's sends to it are dropped
    (see the ``replica_wrapper`` at each call site), so the victim hears
    only the (possibly Byzantine) primary — and its own broadcasts. This
    is the adversary's strongest cut at n = 2f+1: the fork's minority
    side is exactly {primary, victim}, and every message the victim acts
    on is attacker-chosen. It also collapses the exploration's choice
    pool to the handful of deliveries that actually decide the outcome —
    bounded DPOR can only ever backtrack into transitions it has executed,
    so drowning the pool in no-op deliveries hides the interesting
    interleavings past any feasible depth.
    """
    for client in clients:
        client.replicas = tuple(
            pid for pid in client.replicas if pid != victim
        )


def equivocating_minbft_factory() -> tuple:
    """MinBFT f=1 under a PREPARE-equivocating primary with *intact* USIG.

    The attack forks the primary's stream: the victim receives only the
    alternative PREPARE, everyone else receives both. The victim is
    additionally partitioned from replica 1 (see :func:`_isolate_victim`),
    so the primary's stream is *all it has* — the hardest configuration
    for the hardware to defend. What the exploration certifies: the alt
    PREPARE burns the counter *after* the real one, so the victim's USIG
    order enforcer holds it behind a permanent gap — no interleaving of
    the victim's deliveries produces divergence or duplicate execution,
    and — the accountability half — no conviction: two UIs at *distinct*
    counters are not evidence.

    window_size=1 queues later requests *unproposed*, so the attack's
    alternative PREPARE carries a fresh request — the strongest fork.
    Unbounded pipelining proposes every request on arrival, leaving only
    stale (already-ordered) alternatives that dedup into noops.
    """
    from ..consensus.forensics import AccountabilityChecker
    from ..consensus.harness import build_minbft_system
    from ..consensus.safety import ReplicationStreamChecker
    from ..faults.attacks import AttackerProcess, PrepareEquivocation
    from ..sim.byzantine import ByzantineWrapper, drop_to

    attack = PrepareEquivocation()

    def wrapper(pid: int, r: Any) -> Any:
        if pid == 0:
            return AttackerProcess(r, attack)
        if pid == 1:
            return ByzantineWrapper(r, drop_to(2))  # the 1->2 link is cut
        return r

    sim, replicas, clients = build_minbft_system(
        f=1, n_clients=3, ops_per_client=1, app="counter", seed=0,
        adversary=LockStepSynchronous(1.0),
        replica_wrapper=wrapper,
        reliable=False,
        replica_options=dict(window_size=1),
    )
    _isolate_victim(clients)
    sim.declare_byzantine(0)
    checker = ReplicationStreamChecker([1, 2], fail_fast=True)
    sim.attach_observer(checker)
    forensics = AccountabilityChecker(replicas[1].verifier)
    sim.attach_observer(forensics)
    return sim, checker, forensics


def check_equivocation_contained(state: Any) -> Optional[str]:
    """Quiescent-leaf check for ``minbft-equivocation``.

    Safety violations abort mid-schedule via the fail-fast stream checker;
    this closes the two holes that check cannot see: a false conviction
    (intact hardware must leave no evidence) and a vacuous pass where the
    attack wedged a client instead of being absorbed.
    """
    _sim, checker, forensics = state
    if forensics.convicted:
        return (
            "accountability convicted "
            f"{sorted(forensics.convicted)} under intact hardware"
        )
    if len(checker.clients_done) < 3:
        return (
            "a client never finished in a quiescent schedule: "
            f"done={checker.clients_done}"
        )
    return None


def cloned_trinket_factory() -> tuple:
    """MinBFT f=1 whose primary's USIG key is extracted (cloned trinket).

    The :class:`~repro.faults.attacks.TraitorReplica` binds two different
    PREPAREs to one counter value — the exact capability the trusted
    hardware exists to remove. Same partition and window as
    ``minbft-equivocation`` (see :func:`_isolate_victim`): the *only*
    difference between the two cells is whether the hardware is intact.
    With a cloned trinket the alt PREPARE reuses the real one's counter,
    so the victim's order enforcer passes it straight through; the victim
    certifies the alt with {traitor, itself} = f+1 votes while replica 1
    certifies the real proposal with {traitor, itself} — the traitor's
    counter-signed vote counts in both halves, the split the paper's
    classification predicts when the hardware assumption fails. The
    exploration shows delivery orders where replicated state diverges
    (flagged by the fail-fast stream checker): safety at n = 2f+1 is gone.
    """
    from ..consensus.harness import build_minbft_system
    from ..consensus.minbft import MinBFTReplica
    from ..consensus.safety import ReplicationStreamChecker
    from ..faults.attacks import TraitorReplica
    from ..sim.byzantine import ByzantineWrapper, drop_to

    def factory(pid: int, **kw: Any):
        if pid == 0:
            return TraitorReplica(victims=(2,), **kw)
        return MinBFTReplica(**kw)

    sim, _replicas, clients = build_minbft_system(
        f=1, n_clients=3, ops_per_client=1, app="counter", seed=0,
        adversary=LockStepSynchronous(1.0),
        replica_factory=factory,
        replica_wrapper=(
            lambda pid, r: ByzantineWrapper(r, drop_to(2)) if pid == 1 else r
        ),
        reliable=False,
        replica_options=dict(window_size=1),
    )
    _isolate_victim(clients)
    sim.declare_byzantine(0)
    checker = ReplicationStreamChecker([1, 2], fail_fast=True)
    sim.attach_observer(checker)
    return sim, checker


def stalling_minbft_factory() -> Simulation:
    """StallingPrimary MinBFT, f=1, one client, one request."""
    from ..consensus.harness import build_minbft_system
    from ..faults.chaos import StallingPrimary

    sim, _replicas, _clients = build_minbft_system(
        f=1, n_clients=1, ops_per_client=1, app="counter", seed=0,
        adversary=LockStepSynchronous(1.0),
        replica_factory=lambda pid, **kw: StallingPrimary(**kw),
        reliable=False,
    )
    return sim


def check_stalled_execution(state: Any) -> Optional[str]:
    """Quiescent-leaf liveness check: did any request ever execute?"""
    sim = state if isinstance(state, Simulation) else state[0]
    executed = sim.trace.events(
        "custom", predicate=lambda e: e.field("event") == "execute"
    )
    if not executed:
        return (
            "no request executed in a quiescent schedule: the primary "
            "stalls and no timer-free path can route around it"
        )
    return None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MCSystem:
    """One named model-checkable configuration and its configured bound."""

    name: str
    factory: Callable[[], Any]
    check: Optional[Callable[[Any], Optional[str]]]
    options: dict = field(default_factory=dict)
    expect_violation: bool = False
    description: str = ""


SYSTEMS: dict[str, MCSystem] = {
    s.name: s
    for s in (
        MCSystem(
            name="srb-eager",
            factory=eager_srb_factory,
            check=None,
            options=dict(choice_targets=(1,), max_steps=2),
            expect_violation=True,
            description=(
                "EagerBrokenSRB sequencing bug; bound: deliveries to "
                "receiver 1, depth 2"
            ),
        ),
        MCSystem(
            name="minbft-stalling",
            factory=stalling_minbft_factory,
            check=check_stalled_execution,
            options=dict(fire_timers=False),
            expect_violation=True,
            description=(
                "StallingPrimary liveness bug; bound: timers suppressed, "
                "quiescent leaves audited for executions"
            ),
        ),
        MCSystem(
            name="minbft-equivocation",
            factory=equivocating_minbft_factory,
            check=check_equivocation_contained,
            options=dict(choice_targets=(2,), fire_timers=False),
            expect_violation=False,
            description=(
                "PREPARE equivocation with intact USIG, victim partitioned "
                "to the primary; exhaustive over the victim's delivery "
                "orders (~2.5k complete schedules) — every one must stay "
                "safe and conviction-free"
            ),
        ),
        MCSystem(
            name="minbft-cloned-trinket",
            factory=cloned_trinket_factory,
            check=None,
            options=dict(choice_targets=(2,), fire_timers=False),
            expect_violation=True,
            description=(
                "key-extracted USIG equivocation (compromised hardware), "
                "same partition as minbft-equivocation; exhaustive over "
                "the victim's delivery orders — safety at n=2f+1 "
                "collapses on every complete schedule"
            ),
        ),
        MCSystem(
            name="srb-echo-gap",
            factory=echo_gap_factory,
            check=None,
            options=dict(),
            expect_violation=True,
            description=(
                "checkpoint fast-path gap commit; unreachable under "
                "sampled delays, convicted by logical-order exploration"
            ),
        ),
    )
}


def get_system(name: str) -> MCSystem:
    if name not in SYSTEMS:
        raise ConfigurationError(
            f"unknown model-checked system {name!r}; have {sorted(SYSTEMS)}"
        )
    return SYSTEMS[name]
