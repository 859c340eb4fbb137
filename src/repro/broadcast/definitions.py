"""The broadcast problem zoo (paper draft, "Problems Considered").

Three single-shot broadcast variants, ordered by strength of termination:

- **non-equivocating broadcast** — agreement (up to ⊥) + validity; correct
  processes may commit ⊥ when the sender misbehaves, and nothing forces
  termination under a faulty sender;
- **reliable broadcast** — adds all-or-nothing termination: if any correct
  process commits, all do;
- **Byzantine broadcast** — all correct processes must commit no matter
  what the sender does.

Committing is recorded with ``ctx.decide`` (trace kind ``decide``);
checkers audit finished traces. ``BOT`` is the distinguished "no value"
the non-equivocating variant may commit. :class:`AgreementReport` is the
one report of a single-shot decision, for this zoo and for the agreement
zoo (:mod:`repro.agreement.definitions`) alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..errors import PropertyViolation
from ..sim.trace import TraceStore
from ..types import ProcessId


class _Bot:
    """Singleton ⊥ value; compares equal only to itself."""

    _instance: "_Bot | None" = None

    def __new__(cls) -> "_Bot":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


BOT = _Bot()


@dataclass(slots=True)
class AgreementReport:
    """Audit of one single-shot agreement or broadcast execution."""

    variant: str
    commits: dict[ProcessId, Any] = field(default_factory=dict)
    agreement_violations: list[str] = field(default_factory=list)
    validity_violations: list[str] = field(default_factory=list)
    termination_violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.agreement_violations
            or self.validity_violations
            or self.termination_violations
        )

    def all_violations(self) -> list[str]:
        return (
            [f"agreement: {v}" for v in self.agreement_violations]
            + [f"validity: {v}" for v in self.validity_violations]
            + [f"termination: {v}" for v in self.termination_violations]
        )

    def assert_ok(self) -> None:
        if not self.ok:
            raise PropertyViolation(self.variant, "; ".join(self.all_violations()[:3]))


def collect_commits(trace: TraceStore, correct: Iterable[ProcessId]) -> dict[ProcessId, Any]:
    """The first decision of every process in ``correct``, in decision order."""
    commits: dict[ProcessId, Any] = {}
    for d in trace.decisions():
        if d.pid in commits:
            continue  # only the first decision counts; a second is a protocol bug
        commits[d.pid] = d.value
    return {p: v for p, v in commits.items() if p in set(correct)}


def check_nonequivocating_broadcast(
    trace: TraceStore,
    sender: ProcessId,
    sender_input: Any,
    correct: Iterable[ProcessId],
    sender_correct: bool,
) -> AgreementReport:
    """Audit agreement-up-to-⊥ and correct-sender validity/termination."""
    correct = sorted(set(correct))
    report = AgreementReport(variant="non-equivocating-broadcast")
    report.commits = collect_commits(trace, correct)

    # values may be unhashable; compare pairwise instead of via a set
    committed = [(p, v) for p, v in sorted(report.commits.items()) if v is not BOT]
    for i in range(len(committed)):
        for j in range(i + 1, len(committed)):
            if committed[i][1] != committed[j][1]:
                report.agreement_violations.append(
                    f"process {committed[i][0]} committed {committed[i][1]!r} but "
                    f"process {committed[j][0]} committed {committed[j][1]!r}"
                )
    if sender_correct:
        for p in correct:
            if p not in report.commits:
                report.validity_violations.append(
                    f"sender correct but process {p} never committed"
                )
            elif report.commits[p] != sender_input:
                report.validity_violations.append(
                    f"sender correct with input {sender_input!r} but process {p} "
                    f"committed {report.commits[p]!r}"
                )
    return report


def check_reliable_broadcast(
    trace: TraceStore,
    sender: ProcessId,
    sender_input: Any,
    correct: Iterable[ProcessId],
    sender_correct: bool,
) -> AgreementReport:
    """Non-equivocating checks plus all-or-nothing termination; no ⊥ commits."""
    correct = sorted(set(correct))
    report = AgreementReport(variant="reliable-broadcast")
    report.commits = collect_commits(trace, correct)

    committed = sorted(report.commits.items())
    for i in range(len(committed)):
        for j in range(i + 1, len(committed)):
            if committed[i][1] != committed[j][1]:
                report.agreement_violations.append(
                    f"process {committed[i][0]} committed {committed[i][1]!r} but "
                    f"process {committed[j][0]} committed {committed[j][1]!r}"
                )
    if report.commits and len(report.commits) != len(correct):
        silent = [p for p in correct if p not in report.commits]
        report.termination_violations.append(
            f"some correct processes committed but {silent} did not"
        )
    if sender_correct:
        for p in correct:
            if report.commits.get(p, sender_input) != sender_input:
                report.validity_violations.append(
                    f"process {p} committed {report.commits[p]!r} instead of the "
                    f"correct sender's input {sender_input!r}"
                )
            if p not in report.commits:
                report.validity_violations.append(
                    f"sender correct but process {p} never committed"
                )
    return report


def check_byzantine_broadcast(
    trace: TraceStore,
    sender: ProcessId,
    sender_input: Any,
    correct: Iterable[ProcessId],
    sender_correct: bool,
) -> AgreementReport:
    """Reliable-broadcast checks plus unconditional termination."""
    report = check_reliable_broadcast(
        trace, sender, sender_input, correct, sender_correct
    )
    report.variant = "byzantine-broadcast"
    for p in sorted(set(correct)):
        if p not in report.commits:
            report.termination_violations.append(
                f"process {p} never committed (termination is unconditional)"
            )
    return report
