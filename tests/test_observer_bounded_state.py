"""Observers hold only what can still change a verdict.

Three observers of every long run, each bounded by what is still open
rather than by how long the run has gone on: the directionality checker
(settled rounds leave only their label), the trace ring (never more than
``retention`` rows) and the liveness deadline heap (discharged
obligations are swept once they are the majority).
"""

from __future__ import annotations

import pytest

from repro.core.directionality import DirectionalityStreamChecker
from repro.core.uni_from_sm import SWMRRoundTransport
from repro.sim import ReliableAsynchronous, Simulation
from repro.sim.trace import TraceStore
from repro.workloads import load
from tests.test_uni_from_sm import Chat


def containers(obj, skip=()):
    return {
        attr: len(value) for attr, value in vars(obj).items()
        if isinstance(value, (set, dict, list, tuple)) and attr not in skip
    }


def chat_checker(nrounds, n=5):
    """A live checker over ``nrounds`` Chat rounds on SWMR registers, run
    until every process has ended every round."""
    procs = [Chat(SWMRRoundTransport(), nrounds) for _ in range(n)]
    checker = DirectionalityStreamChecker(range(n))
    sim = Simulation(procs, ReliableAsynchronous(0.0, 3.0), seed=0,
                     observers=(checker,))
    for obj in SWMRRoundTransport.build_objects(n):
        sim.memory.register(obj)
    while len(sim.trace.events("round_end")) < n * nrounds:
        sim.run(until=sim.now + 100.0)
    return checker


class TestDirectionalityChecker:
    # what the run is meant to accumulate: the settled labels and the
    # findings filed for the report (SWMR rounds are unidirectional, not
    # bidirectional, so bidirectional findings come with most rounds)
    GROWS = {"_settled", "_bidi", "_uni"}

    def test_containers_do_not_grow_with_rounds(self):
        short, long = chat_checker(50), chat_checker(500)
        assert containers(long, skip=self.GROWS) == containers(
            short, skip=self.GROWS)
        # one label per settled round, and the findings are the report's
        assert (len(short._settled), len(long._settled)) == (50, 500)
        report = long.finish()
        assert report.rounds_checked == 500 and report.is_unidirectional
        assert len(long._bidi) == len(report.bidirectional_violations) > 0
        assert not long._uni


class TestTraceRing:
    @pytest.mark.parametrize("retention", [1, 10, 50])
    def test_ring_holds_exactly_retention_rows(self, retention):
        store = TraceStore(retention)
        for i in range(3 * retention):
            store.record(float(i), "custom", i % 3, tag=i)
        columns = [v for k, v in vars(store).items() if k.startswith("_c_")]
        assert len(columns) == 5
        assert [len(c) for c in columns] == [retention] * 5
        assert [ev.index for ev in store] == list(range(2 * retention, 3 * retention))
        assert store.evicted == 2 * retention


class TestLivenessHeap:
    def test_load_cell_heap_is_bounded_by_the_live_obligations(self, monkeypatch):
        """``request_bound`` outlasts the run, so no deadline ever pops a
        satisfied request; the heap must still not keep them all."""
        seen = []

        class Spy(load.ReplicationLivenessChecker):
            def finish(self, end_time=None):
                seen.append((len(self.monitor._heap), len(self.monitor)))
                return super().finish(end_time)

        monkeypatch.setattr(load, "ReplicationLivenessChecker", Spy)
        result = load.run_pipeline_load("minbft", n_requests=2_000, seed=0)
        assert result.completed == 2_000 and result.liveness_ok
        [(heap, live)] = seen
        assert heap <= max(128, 2 * live), (heap, live)
