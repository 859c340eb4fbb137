"""C2 — §4.1 Claim 1: SRB cannot implement unidirectionality (n > 2f, f > 1).

Executes the three proof scenarios for a sweep of (n, f) and reports, per
configuration: whether the indistinguishability chain held, and the number
of unidirectionality violations produced in Scenario 3. A companion series
runs the same candidate in the f = 1 regime where the separation does NOT
apply (Appendix B rescues it there) — the crossover the classification
predicts.
"""

from __future__ import annotations

from _bench_util import report

from repro.analysis import format_table
from repro.core.directionality import check_directionality
from repro.core.separations import srb_separation


def test_separation_sweep(once):
    def experiment():
        rows = []
        for n, f in [(6, 2), (7, 2), (8, 3), (9, 3), (11, 4)]:
            out = srb_separation(n, f).run(seed=0)
            report3 = check_directionality(out.worlds["scenario3"].trace, range(n))
            rows.append([
                n, f,
                "NO" if "Q" in out.distinguished else "yes",
                "NO" if out.distinguished & {"C1", "C2"} else "yes",
                len(report3.unidirectional_violations),
                "holds" if out.holds else "FAILED",
            ])
            out.assert_holds()
        return rows

    rows = once(experiment)
    report(format_table(
        ["n", "f", "Q views equal", "C1/C2 views equal",
         "scenario-3 uni violations", "separation"],
        rows,
        title="C2: SRB cannot implement unidirectionality (three-scenario argument)",
    ))


def test_f1_corner_is_the_boundary(once):
    """At f = 1 the same adversarial structure cannot violate the corner-case
    construction — run the Appendix-B transport through the hostile schedule."""
    from repro.core.rounds import RoundProcess
    from repro.core.srb_oracle import SRBOracle
    from repro.core.uni_from_rb_corner import CornerCaseRoundTransport
    from repro.crypto import SignatureScheme
    from repro.sim import Simulation

    def experiment():
        rows = []
        for n in (3, 4, 5):
            scheme = SignatureScheme(n, seed=n)
            # most hostile f=1-compatible schedule: one pair fully cut
            oracle = SRBOracle(
                policy=lambda s, r, k, now: None if {s, r} == {0, 1} else 0.05,
                seed=n,
            )

            class P(RoundProcess):
                def on_round_start(self):
                    self.rounds.begin_round(("v", self.pid), label="r1")

            procs = [
                P(CornerCaseRoundTransport(oracle, scheme, scheme.signer(p)))
                for p in range(n)
            ]
            sim = Simulation(procs, seed=n)
            oracle.bind(sim)
            sim.run(until=150.0)
            rep = check_directionality(sim.trace, range(n))
            ends = len(sim.trace.events("round_end"))
            rows.append([n, 1, ends, rep.classify()])
            rep.assert_unidirectional()
            assert ends == n
        return rows

    rows = once(experiment)
    report(format_table(
        ["n", "f", "rounds completed", "observed directionality"],
        rows,
        title="C2b/C4: the f=1 boundary — RB *does* implement unidirectionality "
              "(Appendix B construction under a cut pair)",
    ))
