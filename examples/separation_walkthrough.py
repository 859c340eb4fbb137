"""Walk through the paper's §4.1 impossibility proof as three executions.

Run:  python examples/separation_walkthrough.py

The claim: sequenced reliable broadcast cannot implement unidirectional
rounds when n > 2f and f > 1. The proof builds three schedules; this
script runs them against a fault-tolerant candidate protocol and narrates
what each scenario forces.
"""

from repro.core import check_directionality, round_finishers, srb_separation


def main() -> int:
    n, f = 6, 2
    out = srb_separation(n, f).run(seed=0)
    s1, s2, s3 = (out.worlds[f"scenario{s}"] for s in (1, 2, 3))
    q, c1, c2 = out.sets["Q"], out.sets["C1"], out.sets["C2"]

    print(f"n = {n}, f = {f}; partition: Q = {tuple(q)}, C1 = {tuple(c1)}, "
          f"C2 = {tuple(c2)}\n")

    print("Scenario 1 — C1 crashed; C2 -> Q arbitrarily delayed.")
    print(f"  finished the round: {sorted(round_finishers(s1))}")
    print(f"  => C2 member {tuple(c2)[0]} moved on WITHOUT hearing C1.\n")

    print("Scenario 2 — C2 crashed; C1 -> Q arbitrarily delayed.")
    print(f"  finished the round: {sorted(round_finishers(s2))}")
    print(f"  => C1 member {tuple(c1)[0]} moved on WITHOUT hearing C2.\n")

    print("Scenario 3 — nobody faulty; everything out of C1 and C2 delayed.")
    print(f"  finished the round: {sorted(round_finishers(s3))}")
    print("  indistinguishability (local views, content + order):")
    print(f"    Q  sees scenario 3 == scenario 1 == scenario 2 : "
          f"{'Q' not in out.distinguished}")
    print(f"    C1 sees scenario 3 == scenario 2               : "
          f"{'C1' not in out.distinguished}")
    print(f"    C2 sees scenario 3 == scenario 1               : "
          f"{'C2' not in out.distinguished}")

    violations = check_directionality(s3.trace, range(n)).unidirectional_violations
    print(f"\n  unidirectionality violations in scenario 3: {len(violations)}")
    for v in violations:
        print(f"    pair ({v.p}, {v.q}) round {v.round!r}: {v.detail}")

    print(f"\nseparation demonstrated: {out.holds}")
    print("(contrast: run examples/classification_report.py to see the f=1 "
          "corner case where reliable broadcast CAN implement the round)")
    return 0 if out.holds else 1


if __name__ == "__main__":
    raise SystemExit(main())
