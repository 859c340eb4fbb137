"""Tests for the agreement zoo: checkers, protocols, impossibility worlds."""

from __future__ import annotations

import pytest

from repro.agreement import (
    STRONG,
    VERY_WEAK,
    WEAK,
    VeryWeakAgreement,
    build_strong_agreement_system,
    build_weak_agreement_system,
    check_agreement,
    vwa_rb_impossibility,
)
from repro.agreement.worlds import commits as world_commits
from repro.broadcast.definitions import BOT
from repro.core.rounds import SharedMemoryRoundTransport
from repro.core.uni_from_sm import build_objects_for
from repro.errors import ConfigurationError, PropertyViolation
from repro.sim import ReliableAsynchronous, Simulation
from repro.sim.trace import TraceStore


def synthetic(commits, inputs, variant, correct=None, all_correct=True):
    t = TraceStore()
    for i, (pid, v) in enumerate(commits):
        t.record(float(i), "decide", pid, value=v)
    correct = correct if correct is not None else sorted(inputs)
    return check_agreement(t, variant, inputs, correct, all_correct)


class TestCheckers:
    def test_very_weak_allows_bot(self):
        rep = synthetic([(0, "v"), (1, BOT)], {0: "v", 1: "w"}, VERY_WEAK)
        assert rep.ok

    def test_very_weak_two_values_flagged(self):
        rep = synthetic([(0, "v"), (1, "w")], {0: "v", 1: "w"}, VERY_WEAK)
        assert rep.agreement_violations

    def test_weak_rejects_bot_disagreement(self):
        rep = synthetic([(0, "v"), (1, BOT)], {0: "v", 1: "v"}, WEAK)
        assert rep.agreement_violations

    def test_weak_validity_fires_only_if_all_correct(self):
        rep = synthetic([(0, "x"), (1, "x")], {0: "v", 1: "v"}, WEAK,
                        all_correct=False)
        assert not rep.validity_violations
        rep2 = synthetic([(0, "x"), (1, "x")], {0: "v", 1: "v"}, WEAK,
                         all_correct=True)
        assert rep2.validity_violations

    def test_strong_validity_only_correct_inputs_matter(self):
        rep = synthetic(
            [(0, "v"), (1, "v")],
            {0: "v", 1: "v", 2: "byz-input"},
            STRONG,
            correct=[0, 1],
            all_correct=False,
        )
        assert rep.ok

    def test_termination_violation(self):
        rep = synthetic([(0, "v")], {0: "v", 1: "v"}, WEAK)
        assert rep.termination_violations
        with pytest.raises(PropertyViolation):
            rep.assert_ok()

    def test_only_first_decision_counts(self):
        t = TraceStore()
        t.record(0.0, "decide", 0, value="a")
        t.record(1.0, "decide", 0, value="b")
        rep = check_agreement(t, WEAK, {0: "a"}, [0], all_correct=True)
        assert rep.commits == {0: "a"}

    def test_unknown_variant(self):
        with pytest.raises(PropertyViolation):
            synthetic([], {0: "v"}, "nonsense")


class TestVeryWeakOverUni:
    def build(self, inputs, seed):
        n = len(inputs)
        procs = [VeryWeakAgreement(SharedMemoryRoundTransport(), inputs[p])
                 for p in range(n)]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 1.0), seed=seed)
        for obj in build_objects_for("append-log", n):
            sim.memory.register(obj)
        return sim

    def test_unanimous_commits_value(self):
        sim = self.build({0: "v", 1: "v", 2: "v"}, seed=1)
        sim.run(until=200.0)
        rep = check_agreement(sim.trace, VERY_WEAK, {p: "v" for p in range(3)},
                              range(3), all_correct=True)
        rep.assert_ok()
        assert all(v == "v" for v in rep.commits.values())

    def test_mixed_inputs_safe(self):
        inputs = {0: 1, 1: 2, 2: 1, 3: 2}
        sim = self.build(inputs, seed=2)
        sim.run(until=200.0)
        rep = check_agreement(sim.trace, VERY_WEAK, inputs, range(4),
                              all_correct=True)
        rep.assert_ok()

    def test_n_greater_f_bound_two_processes(self):
        """n = 2, f = 1 pattern: one process crashes, survivor still commits."""
        inputs = {0: "a", 1: "b"}
        sim = self.build(inputs, seed=3)
        sim.crash_at(1, 0.1)
        sim.run(until=200.0)
        rep = check_agreement(sim.trace, VERY_WEAK, inputs, [0],
                              all_correct=False)
        rep.assert_ok()

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_agreement_across_seeds(self, seed):
        inputs = {0: "x", 1: "y", 2: "x"}
        sim = self.build(inputs, seed=seed)
        sim.run(until=200.0)
        rep = check_agreement(sim.trace, VERY_WEAK, inputs, range(3),
                              all_correct=True)
        rep.assert_ok()


class TestVWAImpossibilityWorlds:
    def test_f2_demonstration(self):
        out = vwa_rb_impossibility(f=2).run(seed=0)
        out.assert_holds()

    def test_f3_demonstration(self):
        out = vwa_rb_impossibility(f=3).run(seed=1)
        out.assert_holds()

    def test_worlds_2_and_4_respect_validity(self):
        out = vwa_rb_impossibility(f=2).run(seed=2)
        w2, w4 = (world_commits(out.worlds[w]) for w in ("world2", "world4"))
        assert len(w2) == len(w4) == 4
        assert all(v == 0 for v in w2.values())
        assert all(v == 1 for v in w4.values())

    def test_world5_is_the_contradiction(self):
        out = vwa_rb_impossibility(f=2).run(seed=3)
        report = check_agreement(
            out.worlds["world5"].trace, VERY_WEAK, {0: 0, 1: 0, 2: 1, 3: 1},
            range(4), all_correct=True,
        )
        assert report.agreement_violations

    def test_invalid_f(self):
        with pytest.raises(ConfigurationError):
            vwa_rb_impossibility(f=0)


class TestWeakAgreement:
    def test_mixed_inputs_agree(self):
        sim, procs = build_weak_agreement_system(f=1, inputs=[1, 2, 3], seed=1)
        sim.run(until=2000.0)
        rep = check_agreement(sim.trace, WEAK, {0: 1, 1: 2, 2: 3}, range(3),
                              all_correct=True)
        rep.assert_ok()

    def test_unanimity_commits_value(self):
        sim, procs = build_weak_agreement_system(f=1, inputs=["v"] * 3, seed=2)
        sim.run(until=2000.0)
        rep = check_agreement(sim.trace, WEAK, {p: "v" for p in range(3)},
                              range(3), all_correct=True)
        rep.assert_ok()
        assert all(v == "v" for v in rep.commits.values())

    def test_crash_failover(self):
        sim, procs = build_weak_agreement_system(
            f=1, inputs=["a", "b", "c"], seed=3, req_timeout=15.0
        )
        sim.crash_at(0, 0.5)
        sim.run(until=4000.0)
        rep = check_agreement(sim.trace, WEAK, {0: "a", 1: "b", 2: "c"},
                              [1, 2], all_correct=False)
        rep.assert_ok()

    def test_input_count_validated(self):
        with pytest.raises(ConfigurationError):
            build_weak_agreement_system(f=1, inputs=["only", "two"])


class TestStrongAgreement:
    def test_strong_validity(self):
        sim, procs = build_strong_agreement_system(5, 2, ["v"] * 5, seed=1)
        sim.run(until=80.0)
        rep = check_agreement(sim.trace, STRONG, {p: "v" for p in range(5)},
                              range(5), all_correct=True)
        rep.assert_ok()
        assert all(v == "v" for v in rep.commits.values())

    def test_byzantine_minority_cannot_break_validity(self):
        sim, procs = build_strong_agreement_system(5, 2, ["v", "v", "v", "x", "y"], seed=2)
        sim.declare_byzantine(3)
        sim.declare_byzantine(4)
        sim.crash(3)
        sim.crash(4)
        sim.run(until=80.0)
        rep = check_agreement(sim.trace, STRONG,
                              {0: "v", 1: "v", 2: "v", 3: "x", 4: "y"},
                              [0, 1, 2], all_correct=False)
        rep.assert_ok()
        assert all(v == "v" for v in rep.commits.values())

    def test_bound_validated(self):
        with pytest.raises(ConfigurationError):
            build_strong_agreement_system(4, 2, [1, 2, 3, 4])

    def test_input_count_validated(self):
        with pytest.raises(ConfigurationError):
            build_strong_agreement_system(4, 1, [1, 2])
