"""Seeded chaos harness: protocol × fault-schedule × seed sweeps.

The acceptance bar for every robustness claim in this library: run the
real protocol stacks (Algorithm-1 SRB over message-passing rounds, MinBFT
replication) under *composed* faults — message loss, duplication,
reordering, burst outages, transient partitions, and crash-recovery
restarts where volatile state dies but trusted hardware survives — and
assert the existing safety checkers on every run.

Everything is a pure function of the seed: :func:`make_schedule` derives
the fault schedule (adversary knobs + crash/restart times) from it, the
simulation derives the adversary's per-message coin flips from it, so a
failing ``(protocol, seed)`` pair is a complete, replayable bug report.
:func:`replay` re-runs one; :func:`assert_all_ok` raises with the failing
seeds and schedules rendered.

The harness also ships a deliberately broken protocol,
:class:`EagerBrokenSRB`, which delivers sender values on first sight —
skipping the proof pipeline and the sequencing gate. Under reordering it
produces real safety violations, which is how we test that the harness
*detects and reproduces* bugs rather than vacuously passing.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

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
from ..types import ProcessId, Time
from .adversaries import ChaosAdversary, GSTAdversary
from .attacks import ATTACKS, AttackerProcess, TraitorReplica, get_attack
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
        """The GST adversary realizing this schedule for ``n`` processes.

        Every chaos seed now carries a GST: the full chaos repertoire runs
        before ``gst`` and message delay drops to ``<= delta`` after it —
        the partial-synchrony model the liveness checkers audit against.
        """
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
        """Pids that never crash under this schedule (known before the run).

        Crashes are scripted, so the whole-run "correct" set is available
        up front — which is what lets streaming checkers audit online
        instead of waiting for ``sim.fault_free_pids`` at the end.
        """
        ever_crashed = {c.pid for c in self.crashes}
        return tuple(p for p in range(n) if p not in ever_crashed)


def make_schedule(
    seed: int,
    crashable: Sequence[ProcessId],
    horizon: Time = DEFAULT_HORIZON,
    crash_recovery: bool = True,
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
    if crashable and crash_recovery and rng.random() < 0.85:
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
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._eagerly_delivered: set[int] = set()

    def _note_val(self, k, m, sig_s) -> bool:
        ok = super()._note_val(k, m, sig_s)
        if ok and k not in self._eagerly_delivered:
            self._eagerly_delivered.add(k)
            self.ctx.record("bcast_deliver", sender=self.sender, seq=k, value=m)
            self.on_deliver(self.sender, k, m)
        return ok

    def _maybe_deliver(self) -> None:
        # the broken variant's ONLY delivery path is the eager one above
        pass


# ---------------------------------------------------------------------------
# Protocol runners
# ---------------------------------------------------------------------------


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
    """One chaos cell: everything a protocol runner does *around* its system.

    Construction resolves the optional attack (an
    :data:`~repro.faults.attacks.ATTACKS` entry that must target
    ``target``; runners hand :meth:`wrap` to their system builder) and
    resets the process-global crypto caches. :meth:`run` owns the rest:
    Byzantine declaration, the crash/restart script, observers, the run to
    the horizon or to the fail-fast abort, the common stats keys, and the
    :class:`ChaosResult`. A runner is left with "build this system, use
    these checkers, add these stat keys".
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        target: Optional[str] = None,
        attack: Optional[str] = None,
    ) -> None:
        self.schedule = schedule
        self.attack = attack
        self.spec = self.attack_obj = None
        self.attacker: Optional[ProcessId] = None
        if attack is not None:
            self.spec = get_attack(attack)
            if self.spec.protocol != target:
                raise ConfigurationError(
                    f"attack {attack!r} targets {self.spec.protocol}, "
                    f"not {target}"
                )
            self.attack_obj = self.spec.make()
            self.attacker = self.spec.attacker
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
        protocol: str,
        sim: Any,
        adversary: Any,
        procs: list,
        reboot: Callable[[Any], Any],
        channel: Optional[dict],
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
        builder did (attack wrapper, then the reliable ``channel``).
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
            hosted = self.wrap(pid, fresh)
            if channel is None:
                return hosted
            return ReliableProcess(hosted, **channel)

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
                    "attack": self.attack,
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
            protocol=protocol,
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


def run_srb_chaos(
    schedule: FaultSchedule,
    n: int = 4,
    t: int = 1,
    n_messages: int = 4,
    broken: bool = False,
    reliable: bool = True,
    streaming: bool = True,
    attack: Optional[str] = None,
) -> ChaosResult:
    """Algorithm-1 SRB (message-passing rounds) under one fault schedule.

    The sender (pid 0) broadcasts ``n_messages`` values early in the run;
    crashes/restarts follow the schedule (the sender is protected — a
    crashed sender makes validity unfalsifiable). Safety and completion are
    checked over the processes that never crashed.

    With ``streaming=True`` (the default) a fail-fast
    :class:`~repro.core.srb.SRBStreamChecker` rides along as a trace
    observer: a permanent safety violation (sequencing gap, agreement
    conflict) aborts the run at the violating event — the result carries
    its trace index in ``abort_index``. ``streaming=False`` keeps the
    pre-refactor batch audit; verdicts are identical, only *when* the run
    stops differs.

    ``attack`` names an SRB entry of :data:`repro.faults.attacks.ATTACKS`:
    the spec's attacker pid is wrapped in an
    :class:`~repro.faults.attacks.AttackerProcess`, declared Byzantine,
    and excluded from the correct set; completion is only asserted when
    the spec expects it (an equivocating *sender* legitimately stalls
    everyone — safely).
    """
    cell = ChaosCell(schedule, "srb", attack)
    expect_complete = cell.spec.expect_complete if cell.spec else True
    adversary = schedule.make_adversary(n)
    channel = dict(DEFAULT_CHANNEL) if reliable else None
    cls = EagerBrokenSRB if broken else SRBFromUnidirectional
    sim, procs, _scheme = build_mp_srb_system(
        n=n,
        t=t,
        sender=0,
        seed=schedule.seed,
        adversary=adversary,
        reliable=channel or False,
        process_factory=lambda pid, transport, scheme, signer: cell.wrap(
            pid, cls(transport, 0, t, scheme, signer)
        ),
    )
    for i in range(n_messages):
        sim.at(1.0 + 0.8 * i,
               lambda i=i: procs[0].broadcast(f"chaos-{i}-"),
               label=f"bcast-{i}")

    correct = cell.correct(n)
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

    protocol = "srb-uni-broken" if broken else "srb-uni"
    if attack is not None:
        protocol = f"srb-uni+{attack}"
    return cell.run(
        protocol, sim, adversary, procs,
        reboot=lambda old: cls(
            MessagePassingRoundTransport(f=t), old.sender, t, old.scheme,
            old.signer,
        ),
        channel=channel,
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
    schedule: FaultSchedule,
    f: int = 1,
    n_clients: int = 2,
    ops_per_client: int = 3,
    app: str = "counter",
    streaming: bool = True,
    timeouts: str = "fixed",
    stalling: bool = False,
    pipelined: bool = False,
    attack: Optional[str] = None,
) -> ChaosResult:
    """MinBFT replication under one fault schedule.

    Replicas (including the primary) are crashable; a restarted replica
    gets a fresh app and protocol state but re-wires its original USIG —
    the trusted counter state is the durable part, so the recovered
    replica's message stream continues gap-free where the network last saw
    it and *cannot* reuse counter values from before the crash (the
    paper's non-equivocation-across-restarts claim, exercised for real).
    Clients are protected. Safety (order, no-duplicates, determinism) is
    checked over replicas that never crashed; liveness over all clients.

    With ``streaming=True`` (the default) a fail-fast
    :class:`~repro.consensus.safety.ReplicationStreamChecker` rides along
    as a trace observer: a duplicate execution or a diverging slot prefix
    aborts the run at the violating event (``abort_index`` carries its
    trace index). ``streaming=False`` keeps the pre-refactor batch audit.

    With ``pipelined=True`` the cluster runs the full pipeline stack —
    bounded in-flight window (16), adaptive batching, checkpoint interval
    8, clients with 4 outstanding requests each — and restarted replicas
    reboot with the *same* pipeline configuration (a recovered replica
    that silently fell back to unbatched slots would desynchronize batch
    digests from its peers). Every run's ``stats["consensus"]`` carries
    the fleet-summed pipeline counters.

    ``attack`` names a MinBFT entry of
    :data:`repro.faults.attacks.ATTACKS`: the spec's attacker pid is
    wrapped in an :class:`~repro.faults.attacks.AttackerProcess` (and
    re-wrapped on restart, attack state intact), declared Byzantine, and
    excluded from the correct/fault-free sets. An
    :class:`~repro.consensus.forensics.AccountabilityChecker` rides along
    in audit-only mode: with *intact* hardware every attack in the library
    must stay conviction-free — the hardware cannot bind one counter to
    two messages, so there is no evidence to find — and the sweep asserts
    exactly that alongside the ordinary safety checkers.
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
        ChaosCell(schedule, "minbft", attack),
        "minbft-stalling"
        if stalling
        else ("minbft-pipelined" if pipelined else "minbft"),
        build_minbft_system, 2 * f + 1, f, n_clients, ops_per_client, app,
        streaming,
        policy_factory=policy_factory,
        replica_factory=(lambda pid, **kw: StallingPrimary(**kw))
        if stalling
        else None,
        replica_options=dict(
            checkpoint_interval=8,
            window_size=16,
            batching=True,
            batch_policy="adaptive",
        )
        if pipelined
        else None,
        client_options=dict(max_outstanding=4) if pipelined else None,
        extra_stats={"timeouts": timeouts},
    )


def run_pbft_chaos(
    schedule: FaultSchedule,
    f: int = 1,
    n_clients: int = 2,
    ops_per_client: int = 3,
    app: str = "counter",
    streaming: bool = True,
    attack: Optional[str] = None,
) -> ChaosResult:
    """PBFT replication (n = 3f+1, the hardware-free baseline) under one
    fault schedule — primarily the Byzantine-attack axis of the sweep.

    Same shape as :func:`run_minbft_chaos`: ``attack`` names a PBFT entry
    of :data:`repro.faults.attacks.ATTACKS`, the attacker is wrapped,
    declared Byzantine, and excluded from the correct sets, and the
    standard replication safety/liveness checkers must stay green — at
    n = 3f+1 one Byzantine replica is inside the fault budget, so any
    violation is a protocol bug, not an expected outcome.
    """
    return _run_replication_chaos(
        ChaosCell(schedule, "pbft", attack), "pbft", build_pbft_system,
        3 * f + 1, f, n_clients, ops_per_client, app, streaming,
    )


def _run_replication_chaos(
    cell: ChaosCell,
    protocol: str,
    build: Callable[..., tuple],
    n: int,
    f: int,
    n_clients: int,
    ops_per_client: int,
    app: str,
    streaming: bool,
    policy_factory: Optional[Callable[[], Any]] = None,
    replica_factory: Optional[Callable[..., Any]] = None,
    replica_options: Optional[dict] = None,
    client_options: Optional[dict] = None,
    extra_stats: Optional[dict] = None,
) -> ChaosResult:
    """The cell behind :func:`run_minbft_chaos` and :func:`run_pbft_chaos`:
    ``n`` replicas from ``build`` plus a protected client fleet, the
    replication safety/liveness checkers, and — where replicas carry trusted
    hardware and an attack is mounted — the audit-only accountability checker."""
    schedule = cell.schedule
    adversary = schedule.make_adversary(n + n_clients)
    channel = dict(DEFAULT_CHANNEL)
    if cell.spec is not None and cell.spec.protocol_kwargs:
        replica_options = {**(replica_options or {}), **cell.spec.protocol_kwargs}
    sim, replicas, clients = build(
        f=f,
        n_clients=n_clients,
        ops_per_client=ops_per_client,
        app=app,
        seed=schedule.seed,
        adversary=adversary,
        req_timeout=25.0,
        retry_timeout=40.0,
        reliable=channel,
        replica_factory=replica_factory,
        replica_wrapper=cell.wrap,
        timeout_policy=policy_factory,
        replica_options=replica_options,
        client_options=client_options,
    )
    correct = cell.correct(n)
    client_pids = range(n, n + n_clients)
    verifier = getattr(replicas[0], "verifier", None)
    # audit-only: intact hardware must leave nothing to convict
    forensics = (
        AccountabilityChecker(verifier)
        if cell.attack is not None and verifier is not None else None
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
        fault_free_clients=client_pids,
        f=f,
    )

    def audit() -> Any:
        expected_ops = {n + c: len(clients[c].ops) for c in range(n_clients)}
        if streaming:
            return checker.finish(expected_ops=expected_ops)
        return check_replication(
            sim.trace, correct, clients=client_pids, expected_ops=expected_ops
        )

    return cell.run(
        protocol if cell.attack is None else f"{cell.spec.protocol}+{cell.attack}",
        sim, adversary, replicas,
        reboot=lambda old: reboot_replica(
            old, app, policy_factory, replica_options
        ),
        channel=channel,
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
# Sweeps
# ---------------------------------------------------------------------------

def _run_service_task(schedule: FaultSchedule, **kwargs: Any) -> ChaosResult:
    # lazy: repro.service builds on repro.faults, so the import must not
    # run at this module's load time
    from ..service.soak import run_service_chaos

    return run_service_chaos(schedule, **kwargs)


PROTOCOLS: dict[str, Callable[..., ChaosResult]] = {
    "srb-uni": run_srb_chaos,
    "srb-uni-broken": lambda schedule, **kw: run_srb_chaos(
        schedule, broken=True, **kw
    ),
    "minbft": run_minbft_chaos,
    "minbft-stalling": lambda schedule, **kw: run_minbft_chaos(
        schedule, stalling=True, **kw
    ),
    "minbft-pipelined": lambda schedule, **kw: run_minbft_chaos(
        schedule, pipelined=True, **kw
    ),
    "pbft": run_pbft_chaos,
    "service": _run_service_task,
    "service-storm": lambda schedule, **kw: _run_service_task(
        schedule, storm=True, **kw
    ),
}

_CRASHABLE = {
    # SRB: pid 0 is the protected sender; MinBFT: replicas 0..2f are fair
    # game (clients live above and are protected). The serving layer
    # crashes replicas only (ingress and tenants are protected); the storm
    # fixture runs crash-free — its only fault is the planted burst.
    "srb-uni": lambda: range(1, 4),
    "srb-uni-broken": lambda: range(1, 4),
    "minbft": lambda: range(0, 3),
    "minbft-stalling": lambda: range(0, 3),
    "minbft-pipelined": lambda: range(0, 3),
    # PBFT rides the attack axis; its baseline cells run crash-free so a
    # red cell always means the attacker, never a coincident crash.
    "pbft": lambda: [],
    "service": lambda: range(0, 3),
    "service-storm": lambda: [],
}


def _replayable(
    result: ChaosResult, horizon: Time, kwargs: dict[str, Any]
) -> ChaosResult:
    """Record on ``result`` what :meth:`ChaosResult.replay_hint` must print."""
    if horizon != DEFAULT_HORIZON:
        result.replay_kwargs["horizon"] = horizon
    result.replay_kwargs.update(kwargs)
    return result


def run_chaos(
    protocol: str, seed: int, horizon: Time = DEFAULT_HORIZON, **kwargs
) -> ChaosResult:
    """Run one protocol under the seed's derived fault schedule."""
    if protocol not in PROTOCOLS:
        raise ConfigurationError(
            f"unknown chaos protocol {protocol!r}; have {sorted(PROTOCOLS)}"
        )
    schedule = make_schedule(
        seed, crashable=list(_CRASHABLE[protocol]()), horizon=horizon
    )
    return _replayable(PROTOCOLS[protocol](schedule, **kwargs), horizon, kwargs)


def replay(
    protocol: str, seed: int, horizon: Time = DEFAULT_HORIZON, **kwargs
) -> ChaosResult:
    """Re-run a reported failure; bit-identical to the original run given
    the ``horizon`` and runner kwargs its :attr:`ChaosResult.replay_kwargs`
    name (the hint prints them).

    ``protocol`` is a :attr:`ChaosResult.protocol` string: a
    :data:`PROTOCOLS` name, or ``"<protocol>+<attack>"`` as attack cells
    report it — the attack names its own target runner, so that form
    replays through :func:`run_attack`.
    """
    base, plus, attack = protocol.partition("+")
    if not plus:
        return run_chaos(protocol, seed, horizon=horizon, **kwargs)
    target = get_attack(attack).protocol
    if not base.startswith(target):
        raise ConfigurationError(
            f"attack {attack!r} targets {target}, not {base}"
        )
    return run_attack(attack, seed, horizon=horizon, **kwargs)


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


def _pool_task(fn: Callable[..., Any], caching: bool, args: tuple, kwargs: dict) -> Any:
    set_caching(caching)
    return fn(*args, **kwargs)


def _pooled(workers: Optional[int], n_tasks: int) -> bool:
    return workers is not None and workers > 1 and n_tasks > 1


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
    if not _pooled(workers, len(tasks)):
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
    tasks = [
        ((protocol, seed, horizon), kwargs)
        for protocol in protocols
        for seed in seeds
    ]
    return _map_tasks(run_chaos, tasks, workers)


# ---------------------------------------------------------------------------
# Byzantine attack campaign
# ---------------------------------------------------------------------------

_ATTACK_RUNNERS: dict[str, Callable[..., ChaosResult]] = {
    "minbft": run_minbft_chaos,
    "pbft": run_pbft_chaos,
    "srb": run_srb_chaos,
}


def run_attack(
    name: str, seed: int, horizon: Time = DEFAULT_HORIZON, **kwargs: Any
) -> ChaosResult:
    """Run one attack cell: the named attack against its target protocol.

    ``name`` indexes :data:`repro.faults.attacks.ATTACKS`; the spec picks
    the protocol runner, the attacker pid, and which pids may *also* crash
    (most cells run crash-free so a red cell indicts the attacker, not a
    coincident crash — ``vc-withhold`` deliberately crashes the primary to
    force the view change it then sabotages). With intact hardware every
    cell must come back ``ok``: safety and liveness hold at n = 2f+1
    (MinBFT) / n = 3f+1 (PBFT) / n >= 2t+1 (SRB), and the MinBFT cells
    additionally assert the audit-only accountability checker convicted
    nobody.
    """
    spec = get_attack(name)
    schedule = make_schedule(
        seed, crashable=list(spec.crashable), horizon=horizon
    )
    if spec.crash_script:
        schedule = dataclasses.replace(
            schedule,
            crashes=tuple(
                CrashEvent(pid=p, at=at, restart_at=r)
                for p, at, r in spec.crash_script
            ),
        )
    result = _ATTACK_RUNNERS[spec.protocol](
        schedule, attack=name, **{**spec.runner_kwargs, **kwargs}
    )
    return _replayable(result, horizon, kwargs)


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
    f = 1
    n = 2 * f + 1
    n_clients = 2

    def factory(pid: int, **kw: Any):
        # traitor at pid 0: equivocation rides the primary's proposal
        # path, so the compromised replica must lead view 0
        if pid == 0:
            return TraitorReplica(victims=(2,), **kw)
        return MinBFTReplica(**kw)

    sim, replicas, clients = build_minbft_system(
        f=f,
        n_clients=n_clients,
        ops_per_client=3,
        app="counter",
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
    expected_ops = {n + c: len(clients[c].ops) for c in range(n_clients)}
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
