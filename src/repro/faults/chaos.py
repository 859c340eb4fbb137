"""Seeded chaos harness: cell × fault-schedule × seed sweeps.

The acceptance bar for every robustness claim in this library: run the
real protocol stacks (Algorithm-1 SRB over message-passing rounds, MinBFT
and PBFT replication, the serving layer) under *composed* faults —
message loss, duplication, reordering, burst outages, transient
partitions, and crash-recovery restarts where volatile state dies but
trusted hardware survives — and assert the existing safety checkers on
every run.

A *cell* is one declaration in :data:`CELLS`: a :class:`CellSpec` naming
its runner, the runner's fixed configuration and who may crash — a
protocol, a variant such as the deliberately broken
:class:`EagerBrokenSRB` (which must be caught), or an attack on its
target. Everything is a pure function of the seed: :func:`make_schedule`
derives the fault schedule from it, the simulation the adversary's coin
flips, so a failing ``(cell, seed)`` pair is a complete, replayable bug
report. :func:`replay` re-runs one; :func:`assert_all_ok` raises with
the failing seeds and schedules rendered.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from ..consensus.apps import make_app
from ..crypto.serialize import caching_enabled, crypto_stats, reset_crypto_caches, set_caching
from ..consensus.forensics import AccountabilityChecker, install_accountability
from ..consensus.harness import build_minbft_system, build_pbft_system
from ..consensus.minbft import MinBFTReplica
from ..consensus.safety import (
    ReplicationLivenessChecker,
    ReplicationStreamChecker,
    check_replication,
)
from ..core.rounds import MessagePassingRoundTransport
from ..core.srb import SRBLivenessChecker, SRBStreamChecker, check_srb
from ..core.srb_from_uni import SRBFromUnidirectional, build_mp_srb_system
from ..errors import ConfigurationError, PropertyViolation
from ..service.soak import ServiceFixture, run_service_chaos
from ..sim.process import bare
from ..types import ProcessId, Time
from .adversaries import ChaosAdversary, GSTAdversary
from .attacks import (
    ATTACKS,
    AttackerProcess,
    AttackSpec,
    TraitorReplica,
    get_attack,
)
from .channel import ReliableProcess
from .timeouts import make_policy_factory

DEFAULT_CHANNEL = dict(base_timeout=2.0, backoff=2.0, max_timeout=20.0,
                       max_retries=25)
"""Retry budget used by the harness: generous enough that per-message loss
below 1.0 cannot realistically exhaust it within a run."""

DEFAULT_HORIZON: Time = 600.0
"""Simulated length of a cell; :func:`make_schedule` places GST and every
crash relative to it, so a cell run at another horizon is another cell."""


# ---------------------------------------------------------------------------
# Fault schedules
# ---------------------------------------------------------------------------


def _schedule_rng(seed: int) -> random.Random:
    digest = hashlib.sha256(f"chaos-schedule|{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """Crash ``pid`` at ``at``; reboot at ``restart_at`` (None = permanent)."""

    pid: ProcessId
    at: Time
    restart_at: Optional[Time]


@dataclass(frozen=True, slots=True)
class FaultSchedule:
    """One seeded fault scenario: adversary knobs + crash/restart script."""

    seed: int
    horizon: Time
    active_until: Time
    drop_probability: float
    dup_probability: float
    straggler_probability: float
    n_bursts: int
    n_partitions: int
    crashes: tuple[CrashEvent, ...]
    gst: Time = 240.0
    delta: float = 1.0

    def describe(self) -> str:
        parts = [
            f"seed={self.seed} horizon={self.horizon:g} "
            f"faults-active-until={self.active_until:g} "
            f"gst={self.gst:g} delta={self.delta:.2f}",
            f"  drop={self.drop_probability:.3f} dup={self.dup_probability:.3f} "
            f"straggler={self.straggler_probability:.3f} "
            f"bursts={self.n_bursts} partitions={self.n_partitions}",
        ]
        for c in self.crashes:
            fate = (
                f"restart at {c.restart_at:.1f}"
                if c.restart_at is not None
                else "never restarted"
            )
            parts.append(f"  crash pid {c.pid} at {c.at:.1f}, {fate}")
        if not self.crashes:
            parts.append("  no crashes")
        return "\n".join(parts)

    def make_adversary(self, n: int) -> ChaosAdversary:
        """The GST adversary realizing this schedule for ``n`` processes:
        the full chaos repertoire before ``gst``, delays ``<= delta`` after
        it — the partial-synchrony model the liveness checkers audit."""
        return GSTAdversary(
            n=n,
            gst=self.gst,
            delta=self.delta,
            active_until=self.active_until,
            drop_probability=self.drop_probability,
            dup_probability=self.dup_probability,
            straggler_probability=self.straggler_probability,
            n_bursts=self.n_bursts,
            n_partitions=self.n_partitions,
        )

    def fault_free_pids(self, n: int) -> tuple[ProcessId, ...]:
        """Pids that never crash under this schedule: crashes are scripted,
        so streaming checkers know the whole-run "correct" set up front
        instead of waiting for ``sim.fault_free_pids`` at the end."""
        ever_crashed = {c.pid for c in self.crashes}
        return tuple(p for p in range(n) if p not in ever_crashed)


def make_schedule(
    seed: int,
    crashable: Sequence[ProcessId],
    horizon: Time = DEFAULT_HORIZON,
) -> FaultSchedule:
    """Derive a fault schedule deterministically from ``seed``.

    ``crashable`` lists the pids eligible for crash faults (protocol
    runners protect the SRB sender and the clients). At most one process is
    down at any moment — the crash-fault budget the protocols are deployed
    for (t = f = 1 in the default configurations) — but a restarted
    process may crash again, and with probability ~0.2 the (single)
    crashed process never comes back.
    """
    rng = _schedule_rng(seed)
    active_until = horizon * 0.4
    crashes: list[CrashEvent] = []
    if crashable and rng.random() < 0.85:
        pid = rng.choice(list(crashable))
        at = rng.uniform(10.0, active_until * 0.5)
        if rng.random() < 0.8:
            restart_at = at + rng.uniform(20.0, 80.0)
            crashes.append(CrashEvent(pid=pid, at=at, restart_at=restart_at))
            if rng.random() < 0.3:  # a second outage after recovery
                pid2 = rng.choice(list(crashable))
                at2 = restart_at + rng.uniform(15.0, 40.0)
                restart2 = at2 + rng.uniform(20.0, 60.0)
                crashes.append(
                    CrashEvent(pid=pid2, at=at2, restart_at=restart2)
                )
        else:
            crashes.append(CrashEvent(pid=pid, at=at, restart_at=None))
    return FaultSchedule(
        seed=seed,
        horizon=horizon,
        active_until=active_until,
        drop_probability=rng.uniform(0.0, 0.12),
        dup_probability=rng.uniform(0.0, 0.25),
        straggler_probability=rng.uniform(0.0, 0.05),
        n_bursts=rng.randrange(0, 3),
        n_partitions=rng.randrange(0, 2),
        crashes=tuple(crashes),
        # GST coincides with the end of injected faults; the post-GST delay
        # bound is itself seed-derived (drawn last to keep the knobs above
        # bit-identical with pre-GST schedules for the same seed)
        gst=active_until,
        delta=rng.uniform(0.5, 1.5),
    )


# ---------------------------------------------------------------------------
# Broken-protocol fixture
# ---------------------------------------------------------------------------


class StallingPrimary(MinBFTReplica):
    """DELIBERATELY STALLED MinBFT: never proposes, never changes view.

    Deployed on *every* replica (modeling a same-codebase liveness bug
    shipped fleet-wide, which a single honest quorum cannot route around):
    the primary sits on client requests forever, and the view-change
    trigger is disabled everywhere so no replica ever gives up on it.
    Safety is untouched — nothing executes, so nothing can diverge — which
    is exactly the failure mode only a *liveness* auditor can flag: every
    post-GST request deadline expires while every safety checker stays
    green.
    """

    def _propose_pending(self) -> None:
        pass  # the primary hoards its queue

    def on_timer(self, tag: Any) -> None:
        if tag == self.VC_TIMER:
            return  # never give up on the (stalled) primary
        super().on_timer(tag)


class EagerBrokenSRB(SRBFromUnidirectional):
    """DELIBERATELY BROKEN SRB: deliver on first sight of a signed value.

    Skips the L1/L2 proof pipeline and the in-order delivery gate: the
    first validly sender-signed ``(k, m)`` this process sees — in a VAL,
    or embedded in anyone's COPY/L1 — is delivered immediately, in arrival
    order. Under reordering (stragglers, retransmissions) arrival order
    differs from sequence order, so the SRB sequencing property breaks —
    which is exactly what the chaos harness must detect and pin to a seed.
    Its ``next_seq`` stays 1, so no message is late to it and it forgets
    nothing.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._eagerly_delivered: set[int] = set()

    def _note_val(self, k, m, sig_s):
        inst = super()._note_val(k, m, sig_s)
        if inst is not None and k not in self._eagerly_delivered:
            self._eagerly_delivered.add(k)
            self.ctx.record("bcast_deliver", sender=self.sender, seq=k, value=m)
            self.on_deliver(self.sender, k, m)
        return inst

    def _maybe_deliver(self) -> None:
        # the broken variant's ONLY delivery path is the eager one above
        pass


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CellSpec:
    """One chaos cell, declared once in :data:`CELLS` under ``name``, its
    :attr:`ChaosResult.protocol` string: the ``run_*_chaos`` ``runner``,
    that runner's fixed ``config`` (see each runner), the pids
    :func:`make_schedule` may crash, runner ``kwargs`` a call may
    override, and the mounted :data:`~repro.faults.attacks.ATTACKS` entry,
    if any."""

    name: str
    runner: Callable[..., "ChaosResult"]
    config: Any = None
    crashable: tuple[ProcessId, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    attack: Optional[AttackSpec] = None


@dataclass(slots=True)
class ChaosResult:
    """Outcome of one protocol run under one seeded fault schedule.

    ``abort_index`` is the trace index of the first violating event when a
    streaming checker stopped the run early (None for clean runs and for
    batch-mode audits, which always run to the horizon).
    """

    protocol: str
    seed: int
    ok: bool
    violations: list[str]
    schedule: str
    stats: dict[str, Any] = field(default_factory=dict)
    abort_index: Optional[int] = None
    liveness_violations: list[str] = field(default_factory=list)
    """Post-GST deadline misses from the streaming liveness auditors
    (separate from ``violations`` — those are safety / whole-run checks)."""
    replay_kwargs: dict[str, Any] = field(default_factory=dict)
    """What :func:`replay` needs besides ``(protocol, seed)`` to rebuild this
    cell: a non-default ``horizon`` (the schedule's GST and crash times are
    derived from it) and the runner kwargs the cell was started with."""

    def replay_hint(self) -> str:
        args = "".join(f", {k}={v!r}" for k, v in self.replay_kwargs.items())
        return (
            f"replay with: repro.faults.chaos.replay({self.protocol!r}, "
            f"{self.seed}{args})"
        )


class ChaosCell:
    """One chaos cell at run time: a :class:`CellSpec` under one schedule,
    and everything a runner does *around* its system.

    Construction makes the spec's attack, if it mounts one, and resets the
    process-global crypto caches. Runners hand :meth:`wrap` to their
    system builder, so the attacker pid is hosted behind an
    :class:`~repro.faults.attacks.AttackerProcess` (re-wrapped on restart,
    attack state intact) and left out of :meth:`correct`. :meth:`run` owns
    the rest: Byzantine declaration, the crash/restart script, observers,
    the run to the horizon or to the fail-fast abort, the common stats
    keys, and the :class:`ChaosResult`. A runner is left with "build this
    system, use these checkers, add these stat keys".
    """

    def __init__(self, spec: CellSpec, schedule: FaultSchedule) -> None:
        self.spec = spec
        self.schedule = schedule
        # every process of every cell sits behind one reliable channel
        self.channel = dict(DEFAULT_CHANNEL)
        attack = spec.attack
        self.attack_obj = attack.make() if attack is not None else None
        self.attacker = attack.attacker if attack is not None else None
        reset_crypto_caches()

    def wrap(self, pid: ProcessId, proc: Any) -> Any:
        """Builder hook: host the attacker pid behind the attack."""
        if pid == self.attacker:
            return AttackerProcess(proc, self.attack_obj)
        return proc

    def correct(self, n: int) -> tuple[ProcessId, ...]:
        """Pids below ``n`` that never crash and are not the attacker —
        crashes are scripted, so streaming checkers know this up front."""
        return tuple(
            p for p in self.schedule.fault_free_pids(n) if p != self.attacker
        )

    def run(
        self,
        sim: Any,
        adversary: Any,
        procs: list,
        reboot: Callable[[Any], Any],
        checker: Any,
        live: Any,
        audit: Callable[[], Any],
        extra_stats: Callable[[], dict[str, Any]],
        count_key: Optional[str] = None,
        forensics: Any = None,
        preamble: str = "",
    ) -> ChaosResult:
        """Run the built system under the schedule and report.

        ``procs`` is the pid-indexed list of inner processes: a restart
        replaces ``procs[pid]`` with ``reboot(old)`` and re-hosts it as the
        builder did (attack wrapper, then the reliable channel).
        ``checker`` is the fail-fast streaming safety checker (None for a
        batch audit), ``live`` the liveness auditor (None when nothing is
        owed), ``forensics`` an audit-only accountability checker.
        ``audit()`` returns the safety report once the horizon is reached;
        ``count_key`` names the checker / report list to count.
        """
        schedule = self.schedule
        if self.attacker is not None:
            sim.declare_byzantine(self.attacker)

        def restart(pid: ProcessId) -> Any:
            fresh = procs[pid] = reboot(procs[pid])
            # an attacked replica reboots *still attacked*: the wrapper
            # carries the attack object (strike state and all) onto the
            # fresh incarnation
            return ReliableProcess(self.wrap(pid, fresh), **self.channel)

        for c in schedule.crashes:
            sim.crash_at(c.pid, c.at)
            if c.restart_at is not None:
                sim.restart_at(
                    c.pid, c.restart_at, factory=lambda pid=c.pid: restart(pid)
                )
        # forensics first: a fail-fast abort must not hide the violating
        # event from it. The liveness auditor streams alongside but never
        # aborts the run — a missed deadline is permanent, so collecting
        # every miss costs nothing.
        for observer in (forensics, checker, live):
            if observer is not None:
                sim.attach_observer(observer)

        def stats(counted: Any) -> dict[str, Any]:
            d = {
                "messages_sent": sim.network.messages_sent,
                "dropped": adversary.messages_dropped,
                "restarts": len(sim.restarted_pids),
                # caches were reset at cell start, so this is the run's own
                # crypto work — comparable across serial and parallel sweeps
                "crypto": crypto_stats().as_dict(),
                **extra_stats(),
            }
            if count_key is not None:
                d[count_key] = len(getattr(counted, count_key))
            if self.attack_obj is not None:
                d["byzantine"] = {
                    "attack": self.spec.attack.name,
                    "attacker": self.attacker,
                    **self.attack_obj.stats(),
                }
                if forensics is not None:
                    d["byzantine"]["forensics"] = forensics.stats()
            return d

        described = preamble + schedule.describe() + "\n" + adversary.describe()
        abort_index = live_report = None
        try:
            sim.run(until=schedule.horizon)
        except PropertyViolation:
            counted = checker
            abort_index = checker.online_violations[0][0]
            violations = [f"event #{i}: {m}"
                          for i, m in checker.online_violations]
        else:
            counted = audit()
            violations = counted.all_violations()
            if forensics is not None and forensics.convicted:
                # intact hardware produced no double-bound counter; a
                # conviction here is either a checker bug or a genuinely
                # unsafe attack
                violations += [
                    f"accountability convicted replica {r} under intact "
                    f"hardware: {forensics.convicted[r]!r}"
                    for r in sorted(forensics.convicted)
                ]
            if live is not None:
                live_report = live.finish(end_time=schedule.horizon)
        result = ChaosResult(
            protocol=self.spec.name,
            seed=schedule.seed,
            ok=not violations and (live_report is None or live_report.ok),
            violations=violations,
            schedule=described,
            stats=stats(counted),
            abort_index=abort_index,
            liveness_violations=live_report.violations if live_report else [],
        )
        sim.close()
        return result


def reboot_replica(
    old: Any, app: str, timeout_policy: Any, replica_options: Optional[dict]
) -> Any:
    """The one crash-recovery constructor: a fresh replica of ``old``'s
    class around its durable parts — identity, keys, configuration, and
    the USIG where there is one (the trusted hardware survives the reboot;
    see :func:`run_minbft_chaos`). The application and all protocol state
    were volatile; PBFT has no trusted part, so everything restarts."""
    hardware = (
        {"usig": old.usig, "verifier": old.verifier}
        if hasattr(old, "usig") else {}
    )
    return type(old)(
        n=old.n,
        **hardware,
        scheme=old.scheme,
        signer=old.signer,
        app=make_app(app),
        req_timeout=old.req_timeout,
        timeout_policy=timeout_policy,
        **(replica_options or {}),
    )


# ---------------------------------------------------------------------------
# Protocol runners
# ---------------------------------------------------------------------------

# Every SRB cell: n = 4 processes, t = 1, the sender (pid 0) broadcasting 4
# values. Every replication cell: f = 1 (MinBFT n = 3, PBFT n = 4) and two
# protected clients of the counter app; pipelined, a 16-slot window,
# adaptive batching, checkpoints every 8 slots and 4 requests in flight
# per client.
_SRB_N, _SRB_T, _SRB_BROADCASTS = 4, 1, 4
_F, _CLIENTS, _APP = 1, 2, "counter"
_PIPELINE = dict(
    replica_options=dict(checkpoint_interval=8, window_size=16,
                         batching=True, batch_policy="adaptive"),
    client_options=dict(max_outstanding=4),
)


def run_srb_chaos(cell: ChaosCell, streaming: bool = True) -> ChaosResult:
    """Algorithm-1 SRB (message-passing rounds) under one fault schedule.

    ``cell.spec.config`` is the process class: :class:`SRBFromUnidirectional`
    or the deliberately broken :class:`EagerBrokenSRB`. The sender (pid 0)
    broadcasts early in the run and never crashes (a crashed sender makes
    validity unfalsifiable). Safety and completion are checked over the
    processes that never crashed; completion only where the attack, if
    any, expects it (an equivocating *sender* legitimately stalls
    everyone — safely).

    With ``streaming=True`` (the default) a fail-fast
    :class:`~repro.core.srb.SRBStreamChecker` rides along as a trace
    observer: a permanent safety violation (sequencing gap, agreement
    conflict) aborts the run at the violating event, whose trace index
    lands in ``abort_index``. ``streaming=False`` keeps the batch audit;
    verdicts are identical, only *when* the run stops differs.
    """
    schedule, attack, cls, t = (
        cell.schedule, cell.spec.attack, cell.spec.config, _SRB_T
    )
    expect_complete = attack.expect_complete if attack is not None else True
    adversary = schedule.make_adversary(_SRB_N)
    sim, procs, _scheme = build_mp_srb_system(
        n=_SRB_N,
        t=t,
        sender=0,
        seed=schedule.seed,
        adversary=adversary,
        reliable=cell.channel,
        process_factory=lambda pid, transport, scheme, signer: cell.wrap(
            pid, cls(transport, 0, t, scheme, signer)
        ),
    )
    procs = [bare(p) for p in procs]
    for i in range(_SRB_BROADCASTS):
        sim.at(1.0 + 0.8 * i,
               lambda i=i: procs[0].broadcast(f"chaos-{i}-"),
               label=f"bcast-{i}")

    correct = cell.correct(_SRB_N)
    checker = (
        SRBStreamChecker(
            0, correct, sender_correct=cell.attacker != 0,
            expect_complete=expect_complete, fail_fast=True,
        )
        if streaming else None
    )
    # An attack cell that legitimately never completes (equivocating
    # sender: everyone conflict-poisons and safely delivers nothing) is
    # exempt from the liveness audit — no delivery is owed, so no
    # obligation can be armed.
    live = (
        SRBLivenessChecker(gst=schedule.gst, bound=200.0, fault_free=correct)
        if expect_complete else None
    )

    def audit() -> Any:
        if streaming:
            return checker.finish()
        fault_free = tuple(p for p in sim.fault_free_pids if p != cell.attacker)
        return check_srb(sim.trace, 0, fault_free,
                         sender_correct=cell.attacker != 0,
                         expect_complete=expect_complete)

    return cell.run(
        sim, adversary, procs,
        reboot=lambda old: cls(
            MessagePassingRoundTransport(f=t), old.sender, t, old.scheme,
            old.signer,
        ),
        checker=checker,
        live=live,
        audit=audit,
        extra_stats=lambda: {
            "duplicates": adversary.duplicates_injected,
            "consensus": sim.collect_consensus_stats(),
        },
        count_key="deliveries",
    )


def run_minbft_chaos(
    cell: ChaosCell,
    ops_per_client: int = 3,
    streaming: bool = True,
    timeouts: str = "fixed",
    pipelined: bool = False,
) -> ChaosResult:
    """MinBFT replication under one fault schedule.

    ``cell.spec.config`` is the replica factory: None, or
    :class:`StallingPrimary` fleet-wide. Replicas (the primary included)
    are crashable; a restarted replica gets a fresh app and protocol state
    but re-wires its original USIG — the trusted counter state is the
    durable part, so the recovered replica's message stream continues
    gap-free where the network last saw it and *cannot* reuse counter
    values from before the crash (the paper's
    non-equivocation-across-restarts claim, exercised for real). Clients
    are protected. Safety (order, no-duplicates, determinism) is checked
    over replicas that never crashed; liveness over all clients.

    With ``streaming=True`` (the default) a fail-fast
    :class:`~repro.consensus.safety.ReplicationStreamChecker` aborts the
    run at a duplicate execution or a diverging slot prefix, as for
    :func:`run_srb_chaos`. ``pipelined=True`` runs the full pipeline stack
    (``_PIPELINE``) and reboots replicas with the *same* configuration (a
    recovered replica that fell back to unbatched slots would
    desynchronize batch digests from its peers).

    In an attack cell an audit-only
    :class:`~repro.consensus.forensics.AccountabilityChecker` rides along:
    with *intact* hardware every attack in the library must stay
    conviction-free — the hardware cannot bind one counter to two
    messages, so there is no evidence to find.
    """
    if timeouts not in ("fixed", "adaptive"):
        raise ConfigurationError(
            f"timeouts must be 'fixed' or 'adaptive', got {timeouts!r}"
        )
    # "fixed" = None keeps the builders' legacy constant timers bit-exact;
    # "adaptive" hands every replica and client a fresh Jacobson/Karels
    # policy seeded at the legacy view-change timeout
    policy_factory = (
        make_policy_factory(
            "adaptive", base=25.0, min_timeout=2.0, max_timeout=120.0
        )
        if timeouts == "adaptive"
        else None
    )
    return _run_replication_chaos(
        cell, build_minbft_system, 2 * _F + 1, ops_per_client, streaming,
        policy_factory=policy_factory,
        extra_stats={"timeouts": timeouts},
        **(_PIPELINE if pipelined else {}),
    )


def run_pbft_chaos(
    cell: ChaosCell, ops_per_client: int = 3, streaming: bool = True
) -> ChaosResult:
    """PBFT replication (n = 3f+1, the hardware-free baseline) under one
    fault schedule — primarily the Byzantine-attack axis of the sweep. At
    n = 3f+1 one Byzantine replica is inside the fault budget, so any
    violation is a protocol bug, not an expected outcome."""
    return _run_replication_chaos(
        cell, build_pbft_system, 3 * _F + 1, ops_per_client, streaming,
    )


def _run_replication_chaos(
    cell: ChaosCell,
    build: Callable[..., tuple],
    n: int,
    ops_per_client: int,
    streaming: bool,
    policy_factory: Optional[Callable[[], Any]] = None,
    replica_options: Optional[dict] = None,
    client_options: Optional[dict] = None,
    extra_stats: Optional[dict] = None,
) -> ChaosResult:
    """The cell behind :func:`run_minbft_chaos` and :func:`run_pbft_chaos`:
    ``n`` replicas from ``build`` plus a protected client fleet, the
    replication safety/liveness checkers, and — where replicas carry trusted
    hardware and an attack is mounted — the audit-only accountability checker."""
    schedule, attack = cell.schedule, cell.spec.attack
    adversary = schedule.make_adversary(n + _CLIENTS)
    if attack is not None and attack.protocol_kwargs:
        replica_options = {**(replica_options or {}), **attack.protocol_kwargs}
    sim, replicas, clients = build(
        f=_F,
        n_clients=_CLIENTS,
        ops_per_client=ops_per_client,
        app=_APP,
        seed=schedule.seed,
        adversary=adversary,
        req_timeout=25.0,
        retry_timeout=40.0,
        reliable=cell.channel,
        replica_factory=cell.spec.config,
        replica_wrapper=cell.wrap,
        timeout_policy=policy_factory,
        replica_options=replica_options,
        client_options=client_options,
    )
    correct = cell.correct(n)
    verifier = getattr(replicas[0], "verifier", None)
    # audit-only: intact hardware must leave nothing to convict
    forensics = (
        AccountabilityChecker(verifier)
        if attack is not None and verifier is not None else None
    )
    checker = (
        ReplicationStreamChecker(correct, fail_fast=True)
        if streaming else None
    )
    # clients are never crashable, so every client is fault-free
    live = ReplicationLivenessChecker(
        gst=schedule.gst,
        request_bound=300.0,
        fault_free_replicas=correct,
        fault_free_clients=range(n, n + _CLIENTS),
        f=_F,
    )

    def audit() -> Any:
        expected_ops = {n + c: len(clients[c].ops) for c in range(_CLIENTS)}
        if streaming:
            return checker.finish(expected_ops=expected_ops)
        return check_replication(sim.trace, correct, expected_ops=expected_ops)

    return cell.run(
        sim, adversary, replicas,
        reboot=lambda old: reboot_replica(
            old, _APP, policy_factory, replica_options
        ),
        checker=checker,
        live=live,
        audit=audit,
        extra_stats=lambda: {
            "duplicates": adversary.duplicates_injected,
            **(extra_stats or {}),
            "view_changes": max(
                (r.view_changes_completed for r in replicas), default=0
            ),
            "consensus": sim.collect_consensus_stats(),
        },
        count_key="executions",
        forensics=forensics,
    )


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_REPLICAS = tuple(range(2 * _F + 1))

PROTOCOLS: dict[str, CellSpec] = {spec.name: spec for spec in (
    # SRB: pid 0 is the protected sender. MinBFT and the serving layer
    # crash replicas only: clients, ingress and tenants are protected.
    CellSpec("srb-uni", run_srb_chaos, SRBFromUnidirectional,
             crashable=tuple(range(1, _SRB_N))),
    CellSpec("srb-uni-broken", run_srb_chaos, EagerBrokenSRB,
             crashable=tuple(range(1, _SRB_N))),
    CellSpec("minbft", run_minbft_chaos, crashable=_REPLICAS),
    CellSpec("minbft-stalling", run_minbft_chaos,
             lambda pid, **kw: StallingPrimary(**kw), crashable=_REPLICAS),
    CellSpec("minbft-pipelined", run_minbft_chaos, crashable=_REPLICAS,
             kwargs={"pipelined": True}),
    # PBFT rides the attack axis; its baseline cell runs crash-free so a
    # red cell always means the attacker, never a coincident crash
    CellSpec("pbft", run_pbft_chaos),
    CellSpec("service", run_service_chaos, ServiceFixture(bound=300.0),
             crashable=_REPLICAS, kwargs=dict(n_tenants=6, ops_per_tenant=6)),
    # the storm fixture runs crash-free on a quiet network: its only fault
    # is the planted burst
    CellSpec("service-storm", run_service_chaos,
             ServiceFixture(bound=150.0, storm=True),
             kwargs=dict(n_tenants=32, ops_per_tenant=60)),
)}
"""The protocol cells and their variants, by name."""

# the protocol cell an attack of each target mounts on
_TARGETS = {"srb": "srb-uni", "minbft": "minbft", "pbft": "pbft"}


def _mounted(attack: AttackSpec) -> CellSpec:
    """An attack's cell: its target's, named ``"<protocol>+<attack>"``."""
    target = PROTOCOLS[_TARGETS[attack.protocol]]
    return dataclasses.replace(
        target, name=f"{target.name}+{attack.name}",
        crashable=attack.crashable, kwargs=attack.runner_kwargs, attack=attack,
    )


CELLS: dict[str, CellSpec] = {
    **PROTOCOLS,
    **{spec.name: spec for spec in map(_mounted, ATTACKS.values())},
}
"""Every chaos cell by :attr:`ChaosResult.protocol` name: :data:`PROTOCOLS`,
and one cell per :data:`~repro.faults.attacks.ATTACKS` entry on the
protocol it targets. A new protocol or variant is one :class:`CellSpec`
row in :data:`PROTOCOLS`; a new attack is one ``ATTACKS`` entry."""


def _run(
    spec: CellSpec, seed: int, horizon: Time, kwargs: dict[str, Any]
) -> ChaosResult:
    """The one path of every cell: derive the schedule, run the spec's
    runner on it, record what :meth:`ChaosResult.replay_hint` must print."""
    schedule = make_schedule(seed, crashable=spec.crashable, horizon=horizon)
    if spec.attack is not None and spec.attack.crash_script:
        # (pid, at, restart_at) triples replace the sampled crashes
        crashes = tuple(CrashEvent(*c) for c in spec.attack.crash_script)
        schedule = dataclasses.replace(schedule, crashes=crashes)
    result = spec.runner(ChaosCell(spec, schedule), **{**spec.kwargs, **kwargs})
    if horizon != DEFAULT_HORIZON:
        result.replay_kwargs["horizon"] = horizon
    result.replay_kwargs.update(kwargs)
    return result


def run_chaos(
    protocol: str, seed: int, horizon: Time = DEFAULT_HORIZON, **kwargs
) -> ChaosResult:
    """Run one :data:`CELLS` entry under the seed's derived fault schedule;
    ``kwargs`` go to its runner.

    A :attr:`ChaosResult.protocol` string is a cell name, so this is also
    :func:`replay`: re-running a reported failure is bit-identical given
    the ``horizon`` and runner kwargs its :attr:`ChaosResult.replay_kwargs`
    name (the hint prints them).
    """
    if protocol not in CELLS:
        targets = ", ".join(f"{a} targets {spec.protocol}"
                            for a, spec in sorted(ATTACKS.items()))
        raise ConfigurationError(
            f"unknown chaos protocol {protocol!r}; have {sorted(PROTOCOLS)}"
            f" and '<protocol>+<attack>' per attack ({targets})"
        )
    return _run(CELLS[protocol], seed, horizon, kwargs)


replay = run_chaos


def run_attack(
    name: str, seed: int, horizon: Time = DEFAULT_HORIZON, **kwargs: Any
) -> ChaosResult:
    """Run the cell of attack ``name``, an
    :data:`~repro.faults.attacks.ATTACKS` entry, which picks the target,
    the attacker pid, and which pids may *also* crash (most cells run
    crash-free so a red cell indicts the attacker). With intact hardware
    every cell must come back ``ok``: safety and liveness hold at
    n = 2f+1 (MinBFT) / n = 3f+1 (PBFT) / n >= 2t+1 (SRB), and nobody is
    convicted.
    """
    return _run(_mounted(get_attack(name)), seed, horizon, kwargs)


_REPLAY_HINT_RE = re.compile(
    r"repro\.faults\.chaos\.replay\((['\"])(?P<protocol>[\w+-]+)\1,\s*"
    r"(?P<seed>\d+)(?:,\s*(?P<kwargs>\w+=[^()]*))?\)"
)


def replay_from_hint(hint: str, **kwargs) -> ChaosResult:
    """Re-run the failure a :meth:`ChaosResult.replay_hint` string points at.

    Hints are copy-pasted out of CI logs and bug reports, so this accepts
    the whole hint line (or any string containing one). Replays are always
    serial single runs — a hint captured from a parallel sweep reproduces
    identically because every run is a pure function of (protocol, seed,
    horizon, runner kwargs) and workers never share state. The hint's own
    keyword arguments are passed on; ``kwargs`` given here override them.
    """
    m = _REPLAY_HINT_RE.search(hint)
    if m is None:
        raise ConfigurationError(
            f"no replay hint found in {hint!r}; expected "
            "'repro.faults.chaos.replay(<protocol>, <seed>"
            "[, <name>=<literal>...])'"
        )
    try:
        call = ast.parse(f"f({m['kwargs'] or ''})", mode="eval").body
        hinted = {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}
    except (SyntaxError, ValueError) as exc:
        raise ConfigurationError(
            f"replay hint arguments {m['kwargs']!r} are not literals: {exc}"
        ) from None
    return replay(m["protocol"], int(m["seed"]), **{**hinted, **kwargs})


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _pool_task(fn: Callable[..., Any], caching: bool, args: tuple, kwargs: dict) -> Any:
    set_caching(caching)
    return fn(*args, **kwargs)


def _map_tasks(
    fn: Callable[..., Any],
    tasks: Sequence[tuple[tuple, dict]],
    workers: Optional[int],
) -> list:
    """``fn(*args, **kwargs)`` for every ``(args, kwargs)`` task, in
    submission order: serially, or over a process pool when ``workers > 1``
    and there is more than one task. ``fn`` must be a module-level function.

    The parent's crypto-caching flag ships with every pooled task: pool
    workers are fresh interpreters where caching defaults to on, so a sweep
    issued under ``caching_disabled()`` would otherwise silently run cached
    in the workers and break the serial/parallel bit-identity guarantee
    (cached and uncached runs report different ``CryptoStats``).
    """
    if workers is None or workers <= 1 or len(tasks) <= 1:
        return [fn(*args, **kwargs) for args, kwargs in tasks]
    from concurrent.futures import ProcessPoolExecutor

    caching = caching_enabled()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_pool_task, fn, caching, args, kwargs)
            for args, kwargs in tasks
        ]
        return [f.result() for f in futures]


def chaos_sweep(
    protocols: Iterable[str] = ("srb-uni", "minbft"),
    seeds: Iterable[int] = range(10),
    horizon: Time = DEFAULT_HORIZON,
    workers: Optional[int] = None,
    **kwargs,
) -> list[ChaosResult]:
    """The protocol × seed grid; every cell is an independent seeded run.

    ``workers > 1`` fans the grid out over a ``ProcessPoolExecutor``.
    Results are collected in submission order and every run resets the
    process-global crypto caches on entry, so the returned list — stats
    and all — is bit-identical to the serial sweep (property-tested in
    ``tests/test_chaos_parallel.py``). The exhaustive counterpart — every
    schedule of a small system instead of sampled seeds — is
    :func:`exhaustive_sweep`.
    """
    tasks = [((p, seed, horizon), kwargs) for p in protocols for seed in seeds]
    return _map_tasks(run_chaos, tasks, workers)


def attack_sweep(
    attacks: Optional[Iterable[str]] = None,
    seeds: Iterable[int] = range(5),
    horizon: Time = DEFAULT_HORIZON,
    workers: Optional[int] = None,
    **kwargs: Any,
) -> list[ChaosResult]:
    """The attack × seed grid; the Byzantine axis of the chaos sweep.

    ``attacks=None`` runs the whole registry. Same determinism contract
    as :func:`chaos_sweep`: every cell is a pure function of
    ``(attack, seed)`` and parallel results are bit-identical to serial.
    """
    names = list(attacks) if attacks is not None else sorted(ATTACKS)
    tasks = [
        ((name, seed, horizon), kwargs) for name in names for seed in seeds
    ]
    return _map_tasks(run_attack, tasks, workers)


# ---------------------------------------------------------------------------
# Compromised hardware
# ---------------------------------------------------------------------------


def run_compromised_minbft_soak(
    seed: int = 0,
    horizon: Time = DEFAULT_HORIZON,
) -> dict[str, Any]:
    """The full compromised-hardware arc in ONE run: violate, convict, heal.

    Replica 0 — the view-0 primary — is a
    :class:`~repro.faults.attacks.TraitorReplica`: its USIG signing key is
    extracted, so it equivocates *through* the trusted hardware, binding
    two different PREPAREs to one counter value. At n = 2f+1 that splits
    the group — the honest replicas certify divergent histories with f+1
    votes each (the traitor's UI counts in both), the exact safety
    collapse the paper's classification predicts once the hardware
    assumption fails. The run then must heal itself:

    1. the streaming safety checker records the divergence (red);
    2. the :class:`~repro.consensus.forensics.AccountabilityChecker`
       harvests both UIs off the wire and convicts replica 0 with a
       self-contained, independently verifiable proof-of-misbehavior;
    3. :func:`~repro.consensus.forensics.install_accountability`'s
       ``delay`` later the culprit is quarantined and the survivors
       ``convict()``: purge its UIs, roll back to their last attested
       state (genesis here — checkpoints are off, and a stable checkpoint
       co-signed by the culprit could attest divergent states), and
       re-form the view without it;
    4. clients retry and finish against the 2-replica rump group (green).

    Returns the evidence bundle: the proof (replayable via
    :func:`repro.consensus.forensics.verify_proof` against the returned
    verifier), conviction times, the recorded divergence, and the final
    clean audit report.
    """
    reset_crypto_caches()
    n = 2 * _F + 1

    def factory(pid: int, **kw: Any):
        # traitor at pid 0: equivocation rides the primary's proposal
        # path, so the compromised replica must lead view 0
        if pid == 0:
            return TraitorReplica(victims=(2,), **kw)
        return MinBFTReplica(**kw)

    sim, replicas, clients = build_minbft_system(
        f=_F,
        n_clients=_CLIENTS,
        ops_per_client=3,
        app=_APP,
        seed=seed,
        req_timeout=25.0,
        retry_timeout=40.0,
        replica_factory=factory,
    )
    checker = ReplicationStreamChecker([1, 2], fail_fast=False)
    sim.attach_observer(checker)
    forensics = install_accountability(
        sim,
        replicas,
        verifier=replicas[1].verifier,
        recover=True,
    )
    sim.run(until=horizon)
    expected_ops = {n + c: len(clients[c].ops) for c in range(_CLIENTS)}
    report = checker.finish(expected_ops=expected_ops)
    return {
        "convicted": sorted(forensics.convicted),
        "proof": forensics.convicted.get(0),
        "verifier": replicas[1].verifier,
        "detected_at": dict(forensics.detected_at),
        "hw_equivocations": replicas[0].hw_equivocations,
        "online_violations": list(checker.online_violations),
        "report": report,
        "forensics": forensics.stats(),
    }


def _run_mc_task(name: str, root_choice: Optional[int], root_sleep: tuple[int, ...]):
    """Picklable worker entry: explore one root shard of a named system.

    Workers resolve the system by *name* — factories close over live
    simulator objects and cannot pickle — and re-derive everything else
    locally.
    """
    from ..mc.explorer import Explorer
    from ..mc.fixtures import get_system

    s = get_system(name)
    explorer = Explorer(s.factory, check=s.check, **s.options)
    return explorer.run(root_choice=root_choice, root_sleep=root_sleep)


def exhaustive_sweep(
    systems: Optional[Iterable[str]] = None,
    workers: Optional[int] = None,
) -> dict[str, Any]:
    """Model-check the named fixture systems; shard roots across workers.

    The DFS frontier is split at the root: each task pins one root
    transition (``root_choice``) and seeds its earlier siblings asleep
    (``root_sleep``), so the shard union covers exactly the sequential
    DPOR exploration — a naive split at the top, full reduction below.
    Returns ``{system name: merged ExplorationResult}``; merged
    ``violations`` carry replayable schedule ids exactly like a serial
    :func:`repro.mc.explorer.explore` run.
    """
    from ..mc.explorer import merge_results, root_choice_count
    from ..mc.fixtures import SYSTEMS, get_system

    names = sorted(SYSTEMS) if systems is None else list(systems)
    tasks: list[tuple[tuple, dict]] = []
    for name in names:
        s = get_system(name)
        n_roots = root_choice_count(s.factory, **s.options)
        tasks.extend(((name, i, tuple(range(i))), {}) for i in range(n_roots))
    results = _map_tasks(_run_mc_task, tasks, workers)
    grouped: dict[str, list] = {name: [] for name in names}
    for ((name, _i, _sleep), _kw), r in zip(tasks, results):
        grouped[name].append(r)
    return {name: merge_results(grouped[name]) for name in names}


def format_failures(results: Iterable[ChaosResult]) -> str:
    """Render failing runs with their seed, schedule, and replay hint.

    Identical violation strings recurring across seeds (the usual shape of
    a systematic bug swept over many seeds) are printed once and counted
    thereafter, so a 40-seed sweep of one bug reads as one message, not
    forty.
    """
    blocks = []
    seen: set[str] = set()

    def dedup(violations: list[str], prefix: str = "") -> list[str]:
        shown, repeats = [], 0
        for v in violations:
            if v in seen:
                repeats += 1
            else:
                seen.add(v)
                shown.append(v)
        lines = [f"  - {prefix}{v}" for v in shown[:5]]
        extra = len(shown) - 5
        if extra > 0:
            lines.append(f"  ... and {extra} more")
        if repeats:
            lines.append(
                f"  ({repeats} identical to earlier seeds, elided)"
            )
        return lines

    for r in results:
        if r.ok:
            continue
        total = len(r.violations) + len(r.liveness_violations)
        lines = [f"[{r.protocol} seed={r.seed}] {total} violation(s):"]
        lines += dedup(r.violations)
        lines += dedup(r.liveness_violations, prefix="liveness: ")
        lines.append("  schedule:")
        lines += [f"    {l}" for l in r.schedule.splitlines()]
        lines.append(f"  {r.replay_hint()}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) if blocks else "all chaos runs clean"


def assert_all_ok(results: Iterable[ChaosResult]) -> None:
    results = list(results)
    bad = [r for r in results if not r.ok]
    if bad:
        raise PropertyViolation(
            "chaos",
            f"{len(bad)}/{len(results)} chaos runs violated safety:\n"
            + format_failures(bad),
        )
