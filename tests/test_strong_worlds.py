"""Tests for the strong-validity upper separation (uni ⊀ synchrony)."""

from __future__ import annotations

import pytest

from repro.agreement import commits, strong_validity_impossibility
from repro.core.directionality import check_directionality


class TestStrongValidityWorlds:
    def test_demonstration_holds(self):
        out = strong_validity_impossibility().run(seed=0)
        out.assert_holds()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_deterministic_across_seeds(self, seed):
        out = strong_validity_impossibility().run(seed=seed)
        out.assert_holds()

    def test_forced_world_decisions(self):
        out = strong_validity_impossibility().run(seed=4)
        # world 1: correct {p0, p2} share input 0 -> both commit 0
        assert commits(out.worlds["world1"]) == {0: 0, 2: 0}
        # world 2: correct {p1, p2} share input 1 -> both commit 1
        assert commits(out.worlds["world2"]) == {1: 1, 2: 1}

    def test_world3_is_the_contradiction(self):
        out = strong_validity_impossibility().run(seed=5)
        assert commits(out.worlds["world3"]) == {0: 0, 1: 1}

    def test_world3_satisfies_unidirectionality(self):
        """The violation is NOT an artifact of breaking the round contract."""
        out = strong_validity_impossibility().run(seed=6)
        report = check_directionality(out.worlds["world3"].trace, [0, 1])
        assert report.is_unidirectional
        assert not report.is_bidirectional  # p0->p1 withheld

    def test_indistinguishability(self):
        out = strong_validity_impossibility().run(seed=7)
        assert out.holds and not out.distinguished


class TestContrastWithSynchrony:
    def test_same_problem_solved_under_lockstep(self):
        """Bidirectional rounds solve what unidirectional cannot — the pair
        of results is the top edge of the lattice."""
        from repro.agreement import STRONG, build_strong_agreement_system, check_agreement

        sim, procs = build_strong_agreement_system(3, 1, [0, 1, 0], seed=8)
        sim.declare_byzantine(1)
        sim.crash(1)  # worst correct-set shape: {p0, p2} share input 0
        sim.run(until=60.0)
        rep = check_agreement(sim.trace, STRONG, {0: 0, 1: 1, 2: 0},
                              [0, 2], all_correct=False)
        rep.assert_ok()
        assert all(v == 0 for v in rep.commits.values())
