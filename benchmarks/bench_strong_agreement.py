"""A5 — strong validity agreement separates synchrony from unidirectionality.

The top edge of Figure 1, both halves executed:

1. **positive** — Dolev–Strong-per-input under lock-step rounds solves
   strong validity agreement at n ≥ 2f+1 (sweep over n, f, Byzantine
   minorities);
2. **negative** — the three-world demonstration at n = 3f: a candidate
   over unidirectional rounds is forced into a split while honoring every
   round obligation.
"""

from __future__ import annotations

from _bench_util import report

from repro.agreement import (
    STRONG,
    build_strong_agreement_system,
    check_agreement,
    commits,
    strong_validity_impossibility,
)
from repro.analysis import format_table
from repro.core.directionality import check_directionality


def sync_run(n, f, byz_count, seed):
    inputs = ["v"] * (n - byz_count) + [f"x{i}" for i in range(byz_count)]
    sim, procs = build_strong_agreement_system(n, f, inputs, seed=seed)
    for b in range(n - byz_count, n):
        sim.declare_byzantine(b)
        sim.crash(b)
    sim.run(until=120.0)
    correct = list(range(n - byz_count))
    rep = check_agreement(sim.trace, STRONG, dict(enumerate(inputs)),
                          correct, all_correct=byz_count == 0)
    rep.assert_ok()
    agreed = next(iter(rep.commits.values()))
    return [n, f, byz_count, len(rep.commits), repr(agreed), "ok"]


def test_strong_validity_under_synchrony(once):
    def experiment():
        rows = []
        for n, f in [(3, 1), (5, 2), (7, 3)]:
            rows.append(sync_run(n, f, 0, seed=n))
            rows.append(sync_run(n, f, f, seed=n + 50))
        return rows

    rows = once(experiment)
    report(format_table(
        ["n", "f", "byzantine", "commits", "agreed value", "strong validity"],
        rows,
        title="A5a: strong validity agreement under lock-step synchrony, "
              "n = 2f+1 (n parallel Dolev–Strong instances + majority)",
    ))
    assert all(r[4] == "'v'" for r in rows)


def test_strong_validity_impossible_over_uni(once):
    def experiment():
        rows = []
        for seed in range(4):
            out = strong_validity_impossibility().run(seed)
            out.assert_holds()
            w1, w2, w3 = (out.worlds[f"world{w}"] for w in (1, 2, 3))
            rows.append([
                seed,
                f"{commits(w1)}",
                f"{commits(w2)}",
                f"{commits(w3)}",
                check_directionality(w3.trace, [0, 1]).classify(),
                "demonstrated",
            ])
        return rows

    rows = once(experiment)
    report(format_table(
        ["seed", "world-1 (forces 0)", "world-2 (forces 1)",
         "world-3 (split!)", "world-3 rounds", "impossibility"],
        rows,
        title="A5b: strong validity agreement over unidirectional rounds at "
              "n = 3f — the three-world split (draft Claim clm:unidirSBA)",
    ))
