"""Settling rounds changes no verdict: the directionality checker against
its whole-run reference (``tests/_reference_directionality.py``).

Both checkers replay the same trace, with ``fail_fast`` off and on, and
must agree on the :class:`~repro.core.directionality.DirectionalityReport`
(violation lists in order included), on where a fail-fast run raised, and
on the unidirectional ``online_violations`` (the reference also files
bidirectional misses online; the checker leaves those to ``finish``). Two
sources of traces: hypothesis round traces built to hit every path of the
settle rule, and every Chat run over a shared-memory transport in
``tests/test_uni_from_sm.py`` (its 1,000-round run to rest only at 100
rounds: at 1,000 the PEATS case alone takes half a minute to replay six
times).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tests.test_uni_from_sm as uni
from repro.core.directionality import DirectionalityStreamChecker
from repro.errors import PropertyViolation
from repro.sim import Simulation
from repro.sim.trace import ROUND_END, ROUND_RECV, ROUND_SENT, TraceStore
from tests._reference_directionality import ReferenceDirectionalityChecker


def verdicts(cls, trace, correct, fail_fast):
    checker = cls(correct, fail_fast=fail_fast)
    raised = None
    try:
        checker.consume(trace)
    except PropertyViolation as exc:
        raised = str(exc)
    return raised, checker.online_violations, checker.finish()


#: how every unidirectional finding's detail starts (a bidirectional one's
#: starts with a pid); matched on the text, not on membership in the report,
#: whose labels may print otherwise (1 / 1.0 / True)
UNIDIRECTIONAL_DETAIL = "neither process received the other's round "


def unidirectional(online):
    return [(i, v) for i, v in online
            if v.detail.startswith(UNIDIRECTIONAL_DETAIL)]


def assert_same_verdicts(trace, correct):
    for fail_fast in (False, True):
        ours = verdicts(DirectionalityStreamChecker, trace, correct, fail_fast)
        raised, online, report = verdicts(
            ReferenceDirectionalityChecker, trace, correct, fail_fast)
        ref = raised, unidirectional(online), report
        assert ours == ref, (correct, fail_fast)
        # equal reports can still differ in how a label prints
        assert repr(ours[2]) == repr(ref[2])


# --- hypothesis round traces ------------------------------------------------

PIDS = range(5)
#: several hashable types; 1, 1.0 and True are one dict key, so a round may
#: arrive under a label other than the one it first appeared with
LABELS = [1, 1.0, True, 2, "r", ("r", 1), ("r", 2), frozenset({3}), None]


@st.composite
def round_traces(draw):
    """Per round and process, mostly a send, receives and an end; some
    rounds a process never sends in or never ends; late duplicates of
    each; all of it shuffled, so sends and receives land after ends."""
    rounds = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4))
    likely = st.integers(0, 9).map(bool)  # True nine times in ten
    rows = []
    for r in rounds:
        for p in PIDS:
            if draw(likely):
                rows.append((ROUND_SENT, p, {"round": r}))
            if draw(likely):
                rows.append((ROUND_END, p, {"round": r}))
            for src in PIDS:
                if src != p and draw(likely):
                    rows.append((ROUND_RECV, p, {"round": r, "src": src}))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=8))
    trace = TraceStore()
    for i, (kind, pid, fields) in enumerate(draw(st.permutations(rows))):
        trace.record(float(i), kind, pid, **fields)
    # pids 3 and 4 are never correct: their events must be ignored
    correct = draw(st.sets(st.sampled_from(range(3)), min_size=1))
    return trace, sorted(correct)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(round_traces())
def test_round_traces_give_the_reference_verdicts(case):
    assert_same_verdicts(*case)


def test_the_traces_settle_rounds_and_find_violations():
    """The control for the property above: its traces do settle rounds
    and do produce every kind of finding, so agreement is not vacuous."""
    settled = bidi = uni_found = 0

    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(round_traces())
    def tally(case):
        nonlocal settled, bidi, uni_found
        trace, correct = case
        checker = DirectionalityStreamChecker(correct).consume(trace)
        report = checker.finish()
        settled += bool(checker._settled)
        bidi += bool(report.bidirectional_violations)
        uni_found += bool(report.unidirectional_violations)

    tally()
    assert settled and bidi and uni_found
    fast = DirectionalityStreamChecker([0, 1], fail_fast=True)
    trace = TraceStore()
    for i, (kind, pid) in enumerate([(ROUND_SENT, 0), (ROUND_SENT, 1),
                                     (ROUND_END, 0), (ROUND_END, 1)]):
        trace.record(float(i), kind, pid, round=1)
    with pytest.raises(PropertyViolation):
        fast.consume(trace)
    assert_same_verdicts(trace, [0, 1])


# --- every Chat run of tests/test_uni_from_sm.py ---------------------------


@pytest.fixture
def simulations(monkeypatch):
    """Every Simulation the uni_from_sm helpers and tests build from now on."""
    built = []

    class Recorded(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(uni, "Simulation", Recorded)
    return built


def every_transport(run):
    return [(name, run) for name in uni.TRANSPORT_NAMES]


CHAT_RUNS = {
    "unidirectional": every_transport(lambda name: uni.run(name, seed=1)),
    "adversarial-3": every_transport(lambda name: uni.run(
        name, seed=3, min_d=0.0, max_d=5.0, until=600.0)),
    "adversarial-4": every_transport(lambda name: uni.run(
        name, seed=4, min_d=0.0, max_d=5.0, until=600.0)),
    "crashed": every_transport(
        uni.TestUnidirectionality().test_crashed_process_excluded),
    "repeated-entry": every_transport(
        uni.TestDeliveryContract().test_repeated_entry_is_heard_again),
    "to-rest-100": every_transport(
        lambda name: uni._run_chat_to_rest(name, 5, 100)),
    "history": [("swmr", lambda _: uni.run("swmr", nrounds=3, seed=6))],
    "history-encodings": [
        ("swmr", lambda _, n=n, seed=seed: [
            uni._run_swmr(cls, n, seed)
            for cls in (uni._TupleSWMR, uni.SWMRRoundTransport)])
        for n in (3, 5) for seed in range(5)
    ],
    "history-snapshot": [("swmr", lambda _: uni.TestSWMRHistory()
                          .test_read_history_is_a_snapshot())],
    "byzantine-values": [
        ("swmr", lambda _, value=value: uni.TestSWMRByzantineValues()
         ._recv_from_1(value))
        for value in (uni._HistorySubclass(uni.TestSWMRByzantineValues.forged, 1),
                      list(uni.TestSWMRByzantineValues.forged), None,
                      tuple(uni.TestSWMRByzantineValues.forged) + ("junk",))
    ],
    "sticky-capacity": [("sticky", lambda _: uni.TestObjectSpecifics()
                         .test_sticky_capacity_enforced())],
    "sticky-full-chains": [("sticky", lambda _: uni.TestObjectSpecifics()
                            .test_full_sticky_chains_do_not_stall_the_scan())],
}


@pytest.mark.parametrize("name, run", [
    pytest.param(name, run, id=f"{group}-{name}-{k}")
    for group, runs in CHAT_RUNS.items()
    for k, (name, run) in enumerate(runs)
])
def test_chat_runs_give_the_reference_verdicts(simulations, name, run):
    run(name)
    assert simulations
    for sim in simulations:
        chatters = [p.pid for p in sim.processes if isinstance(p, uni.Chat)]
        assert chatters
        for correct in {tuple(range(sim.n)), tuple(range(sim.n - 1)),
                        tuple(chatters)}:
            assert_same_verdicts(sim.trace, correct)
