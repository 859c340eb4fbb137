"""Tests for the §4.1 separation scenarios and the classification lattice."""

from __future__ import annotations

import pytest

from repro.core.classification import ARROWS, render_figure, run_classification
from repro.core.directionality import check_directionality
from repro.core.separations import (
    CandidateSRBRound,
    round_finishers,
    srb_separation,
)
from repro.errors import ConfigurationError, PropertyViolation
from repro.sim.partition import srb_separation_sets, split


class TestPartitionHelpers:
    def test_split_consecutive(self):
        sets = split(4, [2, 1, 1], ["Q", "C1", "C2"])
        assert tuple(sets["Q"]) == (0, 1)
        assert tuple(sets["C1"]) == (2,)
        assert tuple(sets["C2"]) == (3,)

    def test_split_validation(self):
        with pytest.raises(ConfigurationError):
            split(4, [2, 1], ["A", "B", "C"])
        with pytest.raises(ConfigurationError):
            split(4, [2, 1], ["A", "B"])
        with pytest.raises(ConfigurationError):
            split(4, [5, -1], ["A", "B"])

    def test_srb_separation_sets_bounds(self):
        sets = srb_separation_sets(6, 2)
        assert len(sets["Q"]) == 4 and len(sets["C1"]) == 1 and len(sets["C2"]) == 1
        with pytest.raises(ConfigurationError, match="f > 1"):
            srb_separation_sets(4, 1)
        with pytest.raises(ConfigurationError, match="n > 2f"):
            srb_separation_sets(4, 2)


class TestSRBSeparation:
    @pytest.mark.parametrize("n,f", [(6, 2), (7, 2), (9, 3)])
    def test_separation_holds(self, n, f):
        out = srb_separation(n, f).run(seed=0)
        out.assert_holds()

    def test_scenario_obligations(self):
        out = srb_separation(6, 2).run(seed=1)
        q = set(out.sets["Q"])
        c1, c2 = set(out.sets["C1"]), set(out.sets["C2"])
        finished = {
            name: round_finishers(sim) for name, sim in out.worlds.items()
        }
        # scenario 1: Q and C2 finish; scenario 2: Q and C1 finish
        assert q <= finished["scenario1"] and c2 <= finished["scenario1"]
        assert q <= finished["scenario2"] and c1 <= finished["scenario2"]
        # scenario 3: everyone finishes (all correct)
        assert finished["scenario3"] == frozenset(range(6))

    def test_violating_pair_is_c1_c2(self):
        out = srb_separation(6, 2).run(seed=2)
        report = check_directionality(out.worlds["scenario3"].trace, range(6))
        v = report.unidirectional_violations[0]
        pair = {v.p, v.q}
        assert pair & set(out.sets["C1"]) and pair & set(out.sets["C2"])

    def test_deterministic_across_repeats(self):
        a = srb_separation(6, 2).run(seed=3)
        b = srb_separation(6, 2).run(seed=3)
        view = [out.worlds["scenario3"].trace.local_view(0) for out in (a, b)]
        assert view[0] == view[1]

    def test_both_modes_report_a_deadlocked_candidate(self):
        """A candidate that waits for every stream never finishes where a
        process is crashed. A sampled run reports that as a failed
        obligation instead of raising, and an exploration reports the same
        obligation, tagged with its schedule."""
        argument = srb_separation(
            5, 2, factory=lambda oracle, f: CandidateSRBRound(oracle, 0)
        )
        sampled = argument.run(seed=0)
        assert not sampled.holds
        assert sampled.problems[0] == "scenario1: processes [0, 1, 2, 4] never finished"
        explored = argument.explore(max_schedules=2)
        assert not explored.complete
        assert explored.problems[0].startswith(
            "scenario1: processes [0, 1, 2, 4] never finished in schedule mc1:"
        )
        with pytest.raises(PropertyViolation, match="srb-uni-separation"):
            sampled.assert_holds()


class TestClassification:
    def test_every_arrow_verifies(self):
        result = run_classification(seed=0)
        assert result.all_ok, result.failures()

    def test_subset_selection(self):
        result = run_classification(seed=0, arrow_ids=["TRINC->A2M"])
        assert set(result.evidence) == {"TRINC->A2M"}

    def test_render_contains_every_arrow(self):
        result = run_classification(seed=0, arrow_ids=["TRINC->A2M", "UNI->ASYNC"])
        text = render_figure(result)
        assert "TRINC->A2M" in text and "UNI->ASYNC" in text
        assert "Figure 1" in text

    def test_arrow_metadata_complete(self):
        for arrow in ARROWS:
            assert arrow.claim and arrow.paper_ref
            assert arrow.kind in ("implements", "cannot-implement", "implements-iff")
