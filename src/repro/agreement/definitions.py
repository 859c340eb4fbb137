"""The agreement problem zoo (paper draft, "Problems Considered").

Three single-shot agreement variants, ordered by validity strength:

- **very weak agreement** — agreement *up to ⊥* (two correct commits are
  equal unless one is ⊥), termination, and weak validity;
- **weak validity agreement** — exact agreement, termination, weak
  validity (*if all processes are correct and share input v, commit v*);
- **strong validity agreement** — exact agreement, termination, strong
  validity (*if all correct processes share input v, commit v* — Byzantine
  inputs don't matter).

The classification uses these as separators: very weak is solvable with
unidirectionality at n > f but not with reliable broadcast at n ≤ 2f;
weak needs n ≥ 2f+1 with unidirectionality (and n ≥ 3f+1 without); strong
is impossible at n ≤ 3f even with unidirectionality, yet synchrony solves
it at n ≥ 2f+1.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..errors import PropertyViolation
from ..sim.trace import DECIDE, StreamChecker, TraceEvent, TraceStore
from ..types import ProcessId
from ..broadcast.definitions import BOT, AgreementReport

VERY_WEAK = "very-weak-agreement"
WEAK = "weak-validity-agreement"
STRONG = "strong-validity-agreement"


class AgreementStreamChecker(StreamChecker):
    """Incremental single-shot-agreement state shared by batch and streaming.

    Collects the first commit of every correct process from ``decide``
    events. Pairwise disagreement is *permanent* the moment a second,
    conflicting commit arrives, so with ``fail_fast=True`` the checker
    raises at that exact event; validity and termination resolve at end of
    run in :meth:`finish`, which reproduces the pre-refactor batch report
    exactly.
    """

    def __init__(
        self,
        variant: str,
        inputs: Mapping[ProcessId, Any],
        correct: Iterable[ProcessId],
        all_correct: bool,
        expect_termination: bool = True,
        fail_fast: bool = False,
    ) -> None:
        if variant not in (VERY_WEAK, WEAK, STRONG):
            raise PropertyViolation(
                "agreement-checker", f"unknown variant {variant!r}"
            )
        super().__init__(fail_fast)
        self.variant = variant
        self.prop = f"{variant}-stream"
        self.inputs = dict(inputs)
        self.correct = sorted(set(correct))
        self._correct_set = set(self.correct)
        self.all_correct = all_correct
        self.expect_termination = expect_termination
        self.commits: dict[ProcessId, Any] = {}

    # -- streaming ---------------------------------------------------------

    kinds = frozenset({DECIDE})

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind != DECIDE or ev.pid not in self._correct_set:
            return
        if ev.pid in self.commits:
            return  # only the first commit counts
        v = ev.field("value")
        self.commits[ev.pid] = v
        if not self.fail_fast:
            return
        up_to_bot = self.variant == VERY_WEAK
        for q, w in self.commits.items():
            if q == ev.pid:
                continue
            if up_to_bot and (v is BOT or w is BOT):
                continue
            if v != w:
                self._flag(
                    ev,
                    f"process {q} committed {w!r} but process {ev.pid} "
                    f"committed {v!r}",
                )

    # -- final audit -------------------------------------------------------

    def finish(self) -> AgreementReport:
        """Audit the collected commits; identical to the pre-refactor scan."""
        report = AgreementReport(variant=self.variant)
        report.commits = dict(self.commits)
        committed = sorted(report.commits.items())
        inputs = self.inputs
        correct = self.correct

        # --- agreement ---------------------------------------------------------
        up_to_bot = self.variant == VERY_WEAK
        for i in range(len(committed)):
            for j in range(i + 1, len(committed)):
                p, v = committed[i]
                q, w = committed[j]
                if up_to_bot and (v is BOT or w is BOT):
                    continue
                if v != w:
                    report.agreement_violations.append(
                        f"process {p} committed {v!r} but process {q} committed {w!r}"
                    )

        # --- termination --------------------------------------------------------
        if self.expect_termination:
            for p in correct:
                if p not in report.commits:
                    report.termination_violations.append(
                        f"process {p} never committed"
                    )

        # --- validity ------------------------------------------------------------
        if self.variant in (VERY_WEAK, WEAK):
            same = len({repr(v) for v in inputs.values()}) == 1
            if self.all_correct and same and inputs:
                v = next(iter(inputs.values()))
                for p in correct:
                    if p in report.commits and report.commits[p] != v:
                        report.validity_violations.append(
                            f"all processes correct with input {v!r} but process {p} "
                            f"committed {report.commits[p]!r}"
                        )
        elif self.variant == STRONG:
            correct_inputs = [inputs[p] for p in correct if p in inputs]
            same = len({repr(v) for v in correct_inputs}) == 1
            if same and correct_inputs:
                v = correct_inputs[0]
                for p in correct:
                    if p in report.commits and report.commits[p] != v:
                        report.validity_violations.append(
                            f"all correct processes have input {v!r} but process {p} "
                            f"committed {report.commits[p]!r}"
                        )
        return report


def check_agreement(
    trace: TraceStore,
    variant: str,
    inputs: Mapping[ProcessId, Any],
    correct: Iterable[ProcessId],
    all_correct: bool,
    expect_termination: bool = True,
) -> AgreementReport:
    """Audit one agreement execution against the named variant's spec.

    ``inputs`` maps every process (correct and Byzantine) to its input;
    ``all_correct`` states whether *every* process followed the protocol
    (needed for weak validity, whose premise mentions all processes).
    """
    return (
        AgreementStreamChecker(
            variant,
            inputs,
            correct,
            all_correct,
            expect_termination=expect_termination,
        )
        .consume(trace)
        .finish()
    )
