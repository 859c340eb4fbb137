"""The kinds observers declare are sound, and routing changes nothing.

``TraceStore`` calls an observer only for the kinds in its ``kinds``
attribute, so a declaration narrower than what ``on_event`` acts on would
silently blind a checker. Three nets, each over every ``TraceObserver``
subclass the package ships: the declaration is a decision (no observer is
all-kinds by omission), an event of an undeclared kind leaves the observer
untouched, and whole runs come out identical with routing switched off.
The last test runs one chaos cell's export back through fresh checkers:
the offline delivery path is the live one.
"""

from __future__ import annotations

import copy
import importlib
import pkgutil
from collections import deque

import pytest

import repro
from repro.agreement.definitions import WEAK, AgreementStreamChecker
from repro.consensus.forensics import AccountabilityChecker
from repro.consensus.safety import (
    ReplicationLivenessChecker,
    ReplicationStreamChecker,
)
from repro.core.directionality import DirectionalityStreamChecker
from repro.core.srb import SRBLivenessChecker, SRBStreamChecker
from repro.faults.chaos import attack_sweep, chaos_sweep, run_chaos
from repro.service.soak import ServiceLivenessAuditor
from repro.sim import trace as trace_module
from repro.sim.runner import Simulation
from repro.sim.trace import TraceEvent, TraceObserver, TraceStore
from repro.workloads.load import OrderHasher, _CompletionClock, run_pipeline_load

for _mod in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(_mod.name)


def shipped_observers() -> list[type]:
    """Every observer class the package ships with an ``on_event`` of its
    own; a base that only shares plumbing (``StreamChecker``,
    ``DeadlineChecker``) observes nothing by itself."""
    found, stack = [], [TraceObserver]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.") and "on_event" in vars(sub):
                found.append(sub)
    return sorted(found, key=lambda cls: cls.__qualname__)


#: observers that need every kind, on purpose
ALL_KINDS = {OrderHasher}

#: one instance of each routed observer, set up so that the synthetic
#: events below (pid 0, plausible fields) reach the code that keeps state
INSTANCES = {
    AccountabilityChecker: lambda: AccountabilityChecker(verifier=None),
    AgreementStreamChecker: lambda: AgreementStreamChecker(
        WEAK, {0: "v", 1: "v"}, [0, 1], all_correct=True
    ),
    DirectionalityStreamChecker: lambda: DirectionalityStreamChecker([0, 1]),
    ReplicationLivenessChecker: lambda: ReplicationLivenessChecker(
        gst=0.0, request_bound=5.0, fault_free_replicas=[0, 1],
        fault_free_clients=[0], f=0,
    ),
    ReplicationStreamChecker: lambda: ReplicationStreamChecker([0, 1]),
    SRBLivenessChecker: lambda: SRBLivenessChecker(0.0, 5.0, [0, 1]),
    SRBStreamChecker: lambda: SRBStreamChecker(0, [0, 1]),
    ServiceLivenessAuditor: lambda: ServiceLivenessAuditor(0.0, 5.0, [0], 1),
    _CompletionClock: _CompletionClock,
}

EVENT_KINDS = sorted(
    value for name, value in vars(trace_module).items()
    if name.isupper() and not name.startswith("_") and isinstance(value, str)
)

#: fields rich enough that every shipped ``on_event`` branch keyed on a kind
#: finds what it reads; each ``custom`` tag below is its own event
FIELDS = dict(
    round=1, src=1, seq=1, value="v", sender=0, msg=("x",), req_id=1,
    client=0, op=("put", "k", 1), result="OK", new_view=1, view=1, tenant=0,
)
CUSTOM_TAGS = [
    "request_sent", "request_done", "execute", "crash", "view_change_start",
    "svc_sent", "svc_done",
]


def synthetic_events(kinds) -> list[TraceEvent]:
    events = []
    for kind in kinds:
        for tag in CUSTOM_TAGS if kind == trace_module.CUSTOM else [None]:
            events.append(
                TraceEvent(len(events), 1.0, kind, 0, dict(FIELDS, event=tag))
            )
    return events


def snapshot(x, path=()):
    """Deep, comparable rendering of an observer's state.

    Recurses through containers and through the attributes of objects whose
    class lives beside an observer (reports, monitors, obligations); anything
    else (a simulation, a verifier, a hash object) is its type name.
    """
    if x is None or isinstance(x, (bool, int, float, str, bytes)):
        return x
    if id(x) in path:
        return "<cycle>"
    path = (*path, id(x))
    if isinstance(x, dict):
        return ("dict", [(snapshot(k, path), snapshot(v, path)) for k, v in x.items()])
    if isinstance(x, (list, tuple, deque)):
        return (type(x).__name__, [snapshot(v, path) for v in x])
    if isinstance(x, (set, frozenset)):
        return ("set", sorted(repr(snapshot(v, path)) for v in x))
    if type(x).__module__ in STATE_MODULES:
        state = {
            name: getattr(x, name)
            for cls in type(x).__mro__
            for name in getattr(cls, "__slots__", ())
            if hasattr(x, name)
        }
        state.update(getattr(x, "__dict__", {}))
        return (type(x).__qualname__, snapshot(state, path))
    return type(x).__qualname__


STATE_MODULES = {cls.__module__ for cls in shipped_observers()} | {
    "repro.sim.liveness", "repro.types",
}


def assert_kinds_sound(cls: type) -> None:
    """An event of a kind outside ``cls.kinds`` must not change ``cls``'s state."""
    outside = [k for k in EVENT_KINDS if k not in cls.kinds]
    observer = INSTANCES[cls]()
    before = snapshot(observer)
    for ev in synthetic_events(outside):
        observer.on_event(ev)
        assert snapshot(observer) == before, (
            f"{cls.__name__}.on_event acts on {ev.kind!r} "
            f"({ev.field('event')}), which its kinds do not declare"
        )


class TestDeclaredKinds:
    def test_every_shipped_observer_decides(self):
        for cls in shipped_observers():
            if cls in ALL_KINDS:
                assert cls.kinds is None
            else:
                assert isinstance(cls.kinds, frozenset) and cls.kinds, (
                    f"{cls.__name__} must declare `kinds` (or be listed in "
                    "ALL_KINDS here, with a reason)"
                )
                assert cls.kinds <= set(EVENT_KINDS)
        # the two tables of this file cover exactly what the package ships
        assert set(shipped_observers()) == set(INSTANCES) | ALL_KINDS

    @pytest.mark.parametrize("cls", sorted(INSTANCES, key=lambda c: c.__name__))
    def test_events_of_undeclared_kinds_change_nothing(self, cls):
        assert_kinds_sound(cls)

    @pytest.mark.parametrize("cls", sorted(INSTANCES, key=lambda c: c.__name__))
    def test_the_synthetic_events_do_reach_the_state(self, cls):
        # the control for the test above: inside its kinds the same events
        # change the observer, so "unchanged" there is not vacuous
        observer = INSTANCES[cls]()
        before = snapshot(observer)
        for ev in synthetic_events(sorted(cls.kinds)):
            observer.on_event(ev)
        assert snapshot(observer) != before

    @pytest.mark.parametrize("cls, dropped", [
        (ReplicationLivenessChecker, trace_module.CUSTOM),
        (DirectionalityStreamChecker, trace_module.ROUND_SENT),
        (DirectionalityStreamChecker, trace_module.ROUND_RECV),
        (DirectionalityStreamChecker, trace_module.ROUND_END),
        (SRBStreamChecker, trace_module.BCAST),
        (AccountabilityChecker, trace_module.DELIVER),
    ])
    def test_a_narrowed_declaration_is_caught(self, monkeypatch, cls, dropped):
        monkeypatch.setattr(cls, "kinds", cls.kinds - {dropped})
        with pytest.raises(AssertionError, match="do not declare"):
            assert_kinds_sound(cls)


# --- differential: routed delivery against every observer taking every kind --


def golden_cells():
    """The 21 chaos / attack cells of ``test_golden_witness`` + a load cell."""
    cells = chaos_sweep(
        ("srb-uni", "minbft", "minbft-pipelined", "pbft", "service"),
        seeds=range(2),
    ) + attack_sweep(seeds=range(1))
    load = run_pipeline_load("minbft", n_requests=120, rate=20.0, seed=3)
    return cells, load


class TestRoutingChangesNothing:
    @pytest.fixture()
    def subscribed(self, monkeypatch):
        """Every observer subscribed to any store while the test runs."""
        seen = []
        subscribe = TraceStore.subscribe

        def spy(store, observer):
            seen.append(observer)
            return subscribe(store, observer)

        monkeypatch.setattr(TraceStore, "subscribe", spy)
        return seen

    def run(self, subscribed):
        del subscribed[:]
        cells, load = golden_cells()
        assert len(cells) == 21 and all(r.ok for r in cells)
        return cells, load, [snapshot(obs) for obs in subscribed]

    def test_golden_cells_identical_with_every_observer_all_kinds(
        self, monkeypatch, subscribed
    ):
        routed = self.run(subscribed)
        assert len(routed[2]) > 50  # the spy does see the cells' checkers
        # the forwarding shim of the issue, without a wrapper object: each
        # observer class takes every kind, its on_event untouched
        for cls in shipped_observers():
            monkeypatch.setattr(cls, "kinds", None)
        assert self.run(subscribed) == routed

    def test_a_blinded_liveness_auditor_is_caught(self, monkeypatch, subscribed):
        # the differential's own mutation check
        routed = self.run(subscribed)
        monkeypatch.setattr(ReplicationLivenessChecker, "kinds", frozenset())
        assert self.run(subscribed) != routed


# --- one delivery path, live and offline -------------------------------------


def test_exported_chaos_cell_replays_to_the_live_reports(monkeypatch):
    twins, reports, kept = [], {}, {}
    subscribe = TraceStore.subscribe

    def spy(store, observer):
        # two unfed copies of each checker, taken before its first event,
        # and the report the cell is about to ask the live one for
        twins.append((copy.deepcopy(observer), copy.deepcopy(observer)))
        finish = getattr(observer, "finish", None)

        def recording(*args, **kwargs):
            report = finish(*args, **kwargs)
            reports[id(observer)] = (args, kwargs, snapshot(report))
            return report

        if finish is not None:
            observer.finish = recording
        return subscribe(store, observer)

    close = Simulation.close

    def keep(sim):  # ChaosCell.run drops the closed cell behind its result
        kept["jsonl"], kept["live"] = sim.trace.to_jsonl(), sim.trace.observers
        close(sim)

    monkeypatch.setattr(TraceStore, "subscribe", spy)
    monkeypatch.setattr(Simulation, "close", keep)
    assert run_chaos("minbft", 1).ok
    monkeypatch.undo()

    # the accountability checker reads UIs out of wire messages, which JSONL
    # brings back as DataclassValue stand-ins; the others read native fields
    pairs = [
        (live, twin) for live, twin in zip(kept["live"], twins)
        if not isinstance(live, AccountabilityChecker)
    ]
    assert {type(live) for live, _ in pairs} == {
        ReplicationStreamChecker, ReplicationLivenessChecker,
    }
    imported = TraceStore.from_jsonl(
        kept["jsonl"], observers=[twin[0] for _, twin in pairs]
    )
    imported.replay_into(*(twin[1] for _, twin in pairs))
    for live, (streamed, replayed) in pairs:
        args, kwargs, report = reports[id(live)]
        assert live.armed if hasattr(live, "armed") else live.executions
        assert snapshot(streamed.finish(*args, **kwargs)) == report
        assert snapshot(replayed.finish(*args, **kwargs)) == report
