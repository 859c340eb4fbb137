"""A1 — very weak agreement: solvable with unidirectionality at n > f,
impossible with reliable broadcast at n ≤ 2f.

Two series regenerate the draft's separation:

1. the one-round protocol over shared-memory unidirectional rounds, swept
   over n with up to n-1 crash faults (the n > f bound in action);
2. the five-world impossibility execution for reliable broadcast at
   n = 2f — the run *must* produce the world-5 agreement violation and the
   full indistinguishability chain.
"""

from __future__ import annotations

from _bench_util import report

from repro.agreement import (
    VERY_WEAK,
    VeryWeakAgreement,
    check_agreement,
    commits,
    vwa_rb_impossibility,
)
from repro.analysis import format_table
from repro.broadcast.definitions import BOT
from repro.core.rounds import SharedMemoryRoundTransport
from repro.core.uni_from_sm import build_objects_for
from repro.sim import ReliableAsynchronous, Simulation


def run_uni_vwa(n, crashes, unanimous, seed):
    inputs = {p: "v" for p in range(n)} if unanimous else {
        p: f"v{p % 2}" for p in range(n)
    }
    procs = [VeryWeakAgreement(SharedMemoryRoundTransport(), inputs[p])
             for p in range(n)]
    sim = Simulation(procs, ReliableAsynchronous(0.01, 1.0), seed=seed)
    for obj in build_objects_for("append-log", n):
        sim.memory.register(obj)
    for i in range(crashes):
        sim.crash_at(n - 1 - i, 0.2 + 0.1 * i)
    sim.run(until=400.0)
    correct = list(range(n - crashes))
    rep = check_agreement(sim.trace, VERY_WEAK, inputs, correct,
                          all_correct=crashes == 0)
    rep.assert_ok()
    bots = sum(1 for v in rep.commits.values() if v is BOT)
    return [n, crashes, "same" if unanimous else "mixed",
            len(rep.commits), bots, "ok"]


def test_vwa_over_unidirectionality(once):
    def experiment():
        rows = []
        for n in (2, 3, 5, 7):
            rows.append(run_uni_vwa(n, crashes=0, unanimous=True, seed=n))
            rows.append(run_uni_vwa(n, crashes=0, unanimous=False, seed=n + 1))
            rows.append(run_uni_vwa(n, crashes=n - 1, unanimous=True, seed=n + 2))
        return rows

    rows = once(experiment)
    report(format_table(
        ["n", "crashes (f=n-1 tolerated!)", "inputs", "commits", "⊥ commits",
         "agreement"],
        rows,
        title="A1a: very weak agreement from one unidirectional round, n > f",
    ))


def test_vwa_rb_impossibility_worlds(once):
    def experiment():
        rows = []
        for f in (2, 3):
            out = vwa_rb_impossibility(f).run(seed=f)
            out.assert_holds()
            w5 = out.worlds["world5"]
            inputs = {pid: (0 if pid in out.sets["P"] else 1) for pid in range(2 * f)}
            violations = check_agreement(
                w5.trace, VERY_WEAK, inputs, range(2 * f), all_correct=True
            ).agreement_violations
            rows.append([
                2 * f, f,
                "P→0, Q→1" if commits(w5) == inputs else "none",
                len(violations),
                "NO" if out.distinguished else "yes",
                "demonstrated",
            ])
        return rows

    rows = once(experiment)
    report(format_table(
        ["n (=2f)", "f", "world-5 split", "agreement violations",
         "indistinguishability chain", "impossibility"],
        rows,
        title="A1b: very weak agreement is NOT solvable with reliable broadcast "
              "at n ≤ 2f (five-world execution)",
    ))
