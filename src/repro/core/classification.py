"""Figure 1, executable: the classification lattice of communication models.

The paper's only figure is a diagram where "A → B indicates A can implement
B". This module encodes every node and arrow; each arrow carries a
*runnable construction plus checker*, so the figure can be regenerated from
executions rather than asserted. Negative (separation) results are arrows
too — running one executes the proof's adversarial scenarios and verifies
the claimed violation.

Nodes::

    synchrony (bidirectional rounds)
        │
    unidirectionality  ══  shared-memory hardware (SWMR / sticky / PEATS)
        │            ╲ (×: not upward, §4.1 scenarios)
    SRB / non-equivocation  ══  trusted logs (TrInc / A2M / enclaves)
        │        (f=1 corner: RB → unidirectionality)
    asynchrony (zero-directional)

Use :func:`run_classification` for the full evidence table and
:func:`render_figure` for the text rendering the FIG1 bench prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..crypto.signatures import SignatureScheme
from ..errors import PropertyViolation
from ..hardware.a2m_from_trinc import TrincA2MChecker, TrincBackedA2M
from ..hardware.trinc import TrincAuthority
from ..sim.adversary import LockStepSynchronous, ReliableAsynchronous
from ..sim.runner import Simulation
from .directionality import check_directionality
from .rounds import LockStepRoundTransport, RoundProcess
from .srb import check_srb
from .srb_from_trinc import SRBFromTrInc
from .srb_from_uni import build_sm_srb_system
from .srb_oracle import SRBOracle
from .separations import srb_separation
from .trinc_from_srb import SRBTrincVerifier, SRBTrinket
from .uni_from_rb_corner import CornerCaseRoundTransport
from .uni_from_sm import ALL_SM_TRANSPORTS, build_objects_for

# -- nodes ---------------------------------------------------------------------

SYNC = "synchrony"
UNI = "unidirectionality"
SM_HW = "shared-memory-hardware"
SRB = "srb"
LOGS = "trusted-logs"
ASYNC = "asynchrony"

NODES: dict[str, str] = {
    SYNC: "Lock-step synchrony (bidirectional rounds)",
    UNI: "Unidirectional communication",
    SM_HW: "Shared memory with ACLs (SWMR, sticky bits, PEATS)",
    SRB: "Sequenced reliable broadcast / non-equivocation",
    LOGS: "Trusted logs (TrInc, A2M, SGX-style attested logs)",
    ASYNC: "Asynchronous message passing (zero-directional)",
}

POSITIVE = "implements"
NEGATIVE = "cannot-implement"
CONDITIONAL = "implements-iff"


@dataclass(slots=True)
class ArrowEvidence:
    """Outcome of executing one arrow's construction/scenario."""

    ok: bool
    details: str


@dataclass(slots=True)
class Arrow:
    """One edge of Figure 1 with its executable verification."""

    arrow_id: str
    src: str
    dst: str
    kind: str
    claim: str
    paper_ref: str
    run: Callable[[int], ArrowEvidence] = field(repr=False)


# -- arrow implementations -------------------------------------------------------


def _arrow_sync_uni(seed: int) -> ArrowEvidence:
    """Bidirectional rounds are (by definition) also unidirectional."""
    n = 4

    class Chat(RoundProcess):
        def on_round_start(self):
            self.rounds.begin_round(("hi", self.pid))

        def on_round_complete(self, label):
            if isinstance(label, int) and label < 3:
                self.rounds.begin_round(("hi", self.pid, label + 1))

    sim = Simulation(
        [Chat(LockStepRoundTransport(period=2.0)) for _ in range(n)],
        LockStepSynchronous(delta=1.0),
        seed=seed,
    )
    sim.run(until=40.0)
    rep = check_directionality(sim.trace, range(n))
    ok = rep.is_bidirectional and rep.is_unidirectional and rep.pairs_checked > 0
    return ArrowEvidence(
        ok, f"{rep.pairs_checked} pairs over {rep.rounds_checked} lock-step rounds: "
            f"{rep.classify()}"
    )


def _arrow_sm_uni(seed: int) -> ArrowEvidence:
    """Every ACL shared-memory primitive yields unidirectional rounds (§3.2)."""
    n = 4
    results = []
    for name, cls in ALL_SM_TRANSPORTS.items():
        class Chat(RoundProcess):
            def on_round_start(self):
                self.rounds.begin_round(("hi", self.pid), label=("r", 1))

        sim = Simulation(
            [Chat(cls()) for _ in range(n)],
            ReliableAsynchronous(0.01, 1.5),
            seed=seed,
        )
        for obj in build_objects_for(name, n):
            sim.memory.register(obj)
        sim.run(until=200.0)
        rep = check_directionality(sim.trace, range(n))
        results.append((name, rep.is_unidirectional, rep.pairs_checked))
    ok = all(u for _, u, _ in results) and all(p > 0 for _, _, p in results)
    return ArrowEvidence(
        ok, "; ".join(f"{name}: uni={u} ({p} pairs)" for name, u, p in results)
    )


def _arrow_uni_srb(seed: int) -> ArrowEvidence:
    """Algorithm 1: unidirectional rounds implement SRB with n >= 2t+1 (§4.2)."""
    n, t = 5, 2
    sim, procs, _scheme = build_sm_srb_system(n=n, t=t, sender=0, seed=seed)
    sim.at(0.5, lambda: procs[0].broadcast("alpha"))
    sim.at(1.0, lambda: procs[0].broadcast("beta"))
    sim.crash_at(n - 1, 3.0)
    sim.run(until=500.0)
    rep = check_srb(sim.trace, sender=0, correct=range(n - 1))
    return ArrowEvidence(
        rep.ok,
        f"n={n}, t={t}, 1 crash: {len(rep.deliveries)} deliveries, "
        + ("all four SRB properties hold" if rep.ok else rep.all_violations()[0]),
    )


def _arrow_srb_trinc(seed: int) -> ArrowEvidence:
    """Theorem 1: SRB implements the TrInc interface."""
    from ..sim.process import Process

    n = 4

    class Node(Process):
        def __init__(self):
            super().__init__()
            self.verifier = SRBTrincVerifier(n)

    procs = [Node() for _ in range(n)]
    oracle = SRBOracle(seed=seed)
    sim = Simulation(procs, seed=seed)
    oracle.bind(sim)
    for p in range(n):
        oracle.subscribe(p, procs[p].verifier.on_deliver)
    trinkets = [SRBTrinket(oracle.sender_handle(p)) for p in range(n)]
    produced = {}

    def drive():
        produced["a1"] = trinkets[0].attest(1, "m1")
        produced["a2"] = trinkets[0].attest(7, "m2")
        produced["dup"] = trinkets[0].attest_unchecked(7, "conflicting")

    sim.at(0.1, drive)
    sim.run_to_quiescence()
    complete = all(
        procs[p].verifier.check_attestation(produced["a1"], 0)
        and procs[p].verifier.check_attestation(produced["a2"], 0)
        for p in range(n)
    )
    sound = all(
        not procs[p].verifier.check_attestation(produced["dup"], 0)
        and not procs[p].verifier.check_attestation(produced["a1"], 1)
        for p in range(n)
    )
    return ArrowEvidence(
        complete and sound,
        f"completeness={complete}, duplicate-counter & wrong-trinket rejected={sound}",
    )


def _arrow_trinc_a2m(seed: int) -> ArrowEvidence:
    """Levin et al.: TrInc implements the A2M interface."""
    auth = TrincAuthority(2, seed=seed)
    host = TrincBackedA2M(auth.trinket(0))
    checker = TrincA2MChecker(auth)
    log = host.create_log()
    for i, v in enumerate(["a", "b", "c"], start=1):
        host.append(log, v)
    lk = host.lookup(log, 2)
    ep = host.end(log, nonce=("challenge", seed))
    ok = (
        lk is not None
        and checker.check_lookup(lk, 0, log, 2)
        and not checker.check_lookup(lk, 0, log, 3)
        and ep is not None
        and checker.check_end(ep, 0, log, nonce=("challenge", seed))
        and not checker.check_end(ep, 0, log, nonce="stale")
        and ep.length == 3
    )
    return ArrowEvidence(ok, "lookup/end proofs verify; position and nonce pinned")


def _arrow_logs_srb(seed: int) -> ArrowEvidence:
    """Trusted logs give SRB over plain asynchronous links (no quorum)."""
    n = 4
    auth = TrincAuthority(n, seed=seed)
    procs = [
        SRBFromTrInc(0, n, auth, trinket=auth.trinket(p) if p == 0 else None)
        for p in range(n)
    ]
    sim = Simulation(procs, ReliableAsynchronous(0.01, 0.8), seed=seed)
    sim.at(0.1, lambda: procs[0].broadcast("x"))
    sim.at(0.2, lambda: procs[0].broadcast("y"))
    sim.run_to_quiescence()
    rep = check_srb(sim.trace, 0, range(n))
    return ArrowEvidence(
        rep.ok,
        f"n={n}: {len(rep.deliveries)} deliveries; "
        + ("all four SRB properties hold" if rep.ok else rep.all_violations()[0]),
    )


def _arrow_srb_not_uni(seed: int) -> ArrowEvidence:
    """§4.1: SRB cannot implement unidirectionality (n > 2f, f > 1)."""
    out = srb_separation(n=6, f=2).run(seed)
    report3 = check_directionality(out.worlds["scenario3"].trace, correct=range(6))
    q, c1, c2 = (label not in out.distinguished for label in ("Q", "C1", "C2"))
    return ArrowEvidence(
        out.holds,
        f"n=6, f=2: scenario-3 unidirectionality violations="
        f"{len(report3.unidirectional_violations)}, "
        f"views indistinguishable (Q/C1/C2)={q}/{c1}/{c2}",
    )


def _arrow_rb_uni_corner(seed: int) -> ArrowEvidence:
    """Appendix B: reliable broadcast implements unidirectionality iff f=1, n>=3."""
    n = 3
    scheme = SignatureScheme(n, seed=seed)
    oracle = SRBOracle(
        policy=lambda s, r, k, now: None if (s, r) in ((0, 1), (1, 0)) else 0.05,
        seed=seed,
    )

    class P(RoundProcess):
        def on_round_start(self):
            self.rounds.begin_round(("v", self.pid), label="r1")

    procs = [
        P(CornerCaseRoundTransport(oracle, scheme, scheme.signer(pid)))
        for pid in range(n)
    ]
    sim = Simulation(procs, seed=seed)
    oracle.bind(sim)
    sim.run(until=100.0)
    rep = check_directionality(sim.trace, range(n))
    ends = len(sim.trace.events("round_end"))
    ok = rep.is_unidirectional and ends == n
    return ArrowEvidence(
        ok,
        f"n=3, f=1, direct 0<->1 links withheld: rounds ended={ends}/{n}, "
        f"{rep.classify()}",
    )


def _arrow_uni_async(seed: int) -> ArrowEvidence:
    """Unidirectionality trivially implements zero-directional communication."""
    return ArrowEvidence(
        True, "by definition: any unidirectional round is a round"
    )


def _arrow_uni_not_sync(seed: int) -> ArrowEvidence:
    """Strong validity agreement separates synchrony from unidirectionality:
    solvable under lock-step rounds at n >= 2f+1 (Dolev–Strong per input),
    impossible over unidirectional rounds at n <= 3f (three-world demo)."""
    from ..agreement.strong_sync import build_strong_agreement_system
    from ..agreement.strong_worlds import strong_validity_impossibility
    from ..agreement.definitions import STRONG, check_agreement

    # positive half: synchrony solves strong validity at n = 3, f = 1
    sim, _procs = build_strong_agreement_system(3, 1, ["v", "v", "v"], seed=seed)
    sim.run(until=60.0)
    rep = check_agreement(sim.trace, STRONG, {p: "v" for p in range(3)},
                          range(3), all_correct=True)
    sync_ok = rep.ok and all(v == "v" for v in rep.commits.values())

    # negative half: the same problem defeats unidirectionality at n = 3f
    out = strong_validity_impossibility().run(seed)
    p0, p1 = ("p0" not in out.distinguished, "p1" not in out.distinguished)
    return ArrowEvidence(
        sync_ok and out.holds,
        f"synchrony solves strong validity at n=3,f=1: {sync_ok}; "
        f"unidirectional candidate splits 0/1 in world 3 "
        f"(views match forced worlds: {p0}/{p1})",
    )


ARROWS: tuple[Arrow, ...] = (
    Arrow("SYNC->UNI", SYNC, UNI, POSITIVE,
          "bidirectional rounds are unidirectional", "definitions", _arrow_sync_uni),
    Arrow("SM->UNI", SM_HW, UNI, POSITIVE,
          "write-then-scan over any ACL object gives unidirectional rounds",
          "§3.2 Claim", _arrow_sm_uni),
    Arrow("UNI->SRB", UNI, SRB, POSITIVE,
          "Algorithm 1 (L1/L2 proofs), n >= 2t+1", "§4.2 Claim 2", _arrow_uni_srb),
    Arrow("SRB->TRINC", SRB, LOGS, POSITIVE,
          "SRB implements the TrInc interface", "Theorem 1", _arrow_srb_trinc),
    Arrow("TRINC->A2M", LOGS, LOGS, POSITIVE,
          "TrInc implements the A2M interface", "§3.1 (Levin et al.)",
          _arrow_trinc_a2m),
    Arrow("LOGS->SRB", LOGS, SRB, POSITIVE,
          "trusted logs give SRB over asynchronous links", "§3.1", _arrow_logs_srb),
    Arrow("SRB-x->UNI", SRB, UNI, NEGATIVE,
          "SRB cannot implement unidirectionality (n > 2f, f > 1)",
          "§4.1 Claim 1", _arrow_srb_not_uni),
    Arrow("RB->UNI@f=1", SRB, UNI, CONDITIONAL,
          "reliable broadcast implements unidirectionality when f=1, n>=3",
          "Appendix B", _arrow_rb_uni_corner),
    Arrow("UNI->ASYNC", UNI, ASYNC, POSITIVE,
          "unidirectional rounds are rounds", "definitions", _arrow_uni_async),
    Arrow("UNI-x->SYNC", UNI, SYNC, NEGATIVE,
          "unidirectionality cannot reach synchrony: strong validity "
          "agreement separates them (n <= 3f)", "draft Claim clm:unidirSBA",
          _arrow_uni_not_sync),
)


@dataclass(slots=True)
class ClassificationResult:
    """Evidence for every arrow; the executable Figure 1."""

    evidence: dict[str, ArrowEvidence]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.evidence.values())

    def failures(self) -> list[str]:
        return [a for a, e in self.evidence.items() if not e.ok]

    def assert_ok(self) -> None:
        if not self.all_ok:
            raise PropertyViolation(
                "figure-1", f"arrows failed verification: {self.failures()}"
            )


def run_classification(seed: int = 0,
                       arrow_ids: Optional[list[str]] = None) -> ClassificationResult:
    """Execute (a subset of) the Figure-1 arrows and collect evidence."""
    wanted = set(arrow_ids) if arrow_ids is not None else None
    evidence = {}
    for arrow in ARROWS:
        if wanted is not None and arrow.arrow_id not in wanted:
            continue
        evidence[arrow.arrow_id] = arrow.run(seed)
    return ClassificationResult(evidence=evidence)


def render_figure(result: ClassificationResult) -> str:
    """Text rendering of Figure 1 with per-arrow verification status."""
    lines = [
        "Figure 1 — Classifying trusted hardware via unidirectional communication",
        "(A -> B: A can implement B; x: provably cannot; ?: conditional)",
        "",
        "    synchrony (bidirectional)",
        "        |   ^",
        "        v   x (strong validity agreement separates)",
        "    UNIDIRECTIONALITY  <==>  shared-memory hardware (SWMR/sticky/PEATS)",
        "        |        ^",
        "        v        x (except f=1)",
        "    SRB / non-equivocation  <==>  trusted logs (TrInc/A2M)",
        "        |",
        "        v",
        "    asynchrony (zero-directional)",
        "",
        f"{'arrow':14} {'kind':18} {'ok':3}  claim / evidence",
        "-" * 100,
    ]
    for arrow in ARROWS:
        ev = result.evidence.get(arrow.arrow_id)
        if ev is None:
            continue
        mark = "yes" if ev.ok else "NO"
        lines.append(f"{arrow.arrow_id:14} {arrow.kind:18} {mark:3}  {arrow.claim}")
        lines.append(f"{'':14} {'':18} {'':3}  [{arrow.paper_ref}] {ev.details}")
    return "\n".join(lines)
