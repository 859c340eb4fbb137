"""Planted-bug fixtures and the exhaustive (model-checked) arguments.

The detection-power headline lives here: ``srb-echo-gap`` is clean under
every sampled delay schedule (200 seeds) yet convicted by exhaustive
logical-order exploration — the difference between testing schedules you
can draw and quantifying over all of them. The exhaustive separation and
five-world runners then discharge the paper's "for every execution"
obligations over the full DPOR-reduced schedule space at their bounds.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.agreement.worlds import vwa_rb_impossibility
from repro.core.separations import srb_separation
from repro.errors import ConfigurationError
from repro.faults.chaos import exhaustive_sweep
from repro.mc import Explorer, parse_schedule_id, replay_schedule
from repro.mc.fixtures import SYSTEMS, get_system, sampled_verdicts


#: Per system: schedules, transitions, sleep_pruned, max_depth, truncated,
#: the number of violations, the first of the sorted violation schedule ids,
#: and the first 16 hex digits of SHA-256 over all of them, one per line.
#: Schedule ids index into the canonical choice order, so a scheduler change
#: that moved any event in that order moves these.
EXPLORATION_PINS = {
    "minbft-cloned-trinket": (108, 630, 0, 6, 0, 108,
                              "mc1:11-16-22-26-33-36:19071a400be5",
                              "4b77b327643ace2c"),
    "minbft-equivocation": (2520, 17640, 0, 7, 0, 0, None, "e3b0c44298fc1c14"),
    "minbft-stalling": (1, 3, 0, 3, 0, 1, "mc1:0-1-2:cfba31bf84c4",
                        "687d4e37725a30ee"),
    "srb-eager": (2, 3, 0, 2, 1, 1, "mc1:6:6c58ce5ec004", "9125bbbaf8b9707c"),
    "srb-echo-gap": (5, 24, 0, 6, 0, 2, "mc1:2-4-6:e1c886fece1f",
                     "d188c783c506c32f"),
}


class TestPlantedFixtures:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_fixture_convicted_with_replayable_counterexample(self, name):
        s = get_system(name)
        res = Explorer(s.factory, check=s.check, **s.options).run()
        assert res.complete
        assert bool(res.violations) == s.expect_violation
        ids = sorted(v.schedule for v in res.violations)
        assert (
            res.schedules, res.transitions, res.sleep_pruned, res.max_depth,
            res.truncated, len(ids), ids[0] if ids else None,
            hashlib.sha256("\n".join(ids).encode()).hexdigest()[:16],
        ) == EXPLORATION_PINS[name], ids
        for v in res.violations[:2]:
            parsed = parse_schedule_id(v.schedule)  # well-formed id
            assert v.depth >= parsed.depth
            rr = replay_schedule(
                s.factory, v.schedule, check=s.check, **s.options
            )
            assert rr.violation, (
                f"{name}: counterexample {v.schedule} did not reproduce"
            )

    def test_get_system_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            get_system("no-such-system")


class TestDetectionPower:
    def test_echo_gap_invisible_to_200_seeded_runs(self):
        verdicts = sampled_verdicts(seeds=range(200))
        assert len(verdicts) == 200
        assert all(verdicts), (
            "the echo-gap bug must be geometrically unreachable under "
            "sampled delays — if a seed caught it, the fixture is mistuned"
        )

    def test_echo_gap_convicted_exhaustively(self):
        s = get_system("srb-echo-gap")
        res = Explorer(s.factory, check=s.check, **s.options).run()
        assert res.violations
        assert "sequencing" in res.violations[0].message


class TestExhaustiveSweep:
    def test_serial_and_parallel_shards_agree(self):
        serial = exhaustive_sweep(workers=1)
        parallel = exhaustive_sweep(workers=2)
        assert sorted(serial) == sorted(SYSTEMS)
        for name in serial:
            a, b = serial[name], parallel[name]
            assert a.schedules == b.schedules
            assert {v.schedule for v in a.violations} == {
                v.schedule for v in b.violations
            }
            expected = get_system(name).expect_violation
            assert bool(a.violations) == expected, (
                f"{name}: sweep found {len(a.violations)} violations, "
                f"expected {'some' if expected else 'none'}"
            )

    def test_sweep_of_named_systems(self):
        out = exhaustive_sweep(systems=("srb-eager",))
        assert sorted(out) == ["srb-eager"]
        assert out["srb-eager"].violations


#: Per world of an exhaustive argument: schedules, transitions,
#: sleep_pruned, max_depth, truncated.
SEPARATION_5_2_PINS = {
    "scenario1": (24, 96, 0, 4, 0),
    "scenario2": (24, 96, 0, 4, 0),
    "scenario3": (576, 4608, 0, 8, 0),
}
SEPARATION_5_2_QUICK_PINS = {
    "scenario1": (10, 40, 0, 4, 0),
    "scenario2": (10, 40, 0, 4, 0),
    "scenario3": (10, 80, 0, 8, 0),
}
VWA_F2_PINS = {
    "world1": (4, 16, 0, 4, 0),
    "world2": (16, 128, 0, 8, 0),
    "world3": (4, 16, 0, 4, 0),
    "world4": (16, 128, 0, 8, 0),
    "world5": (16, 128, 0, 8, 0),
}


def _exploration_pins(explorations) -> dict:
    return {
        name: (r.schedules, r.transitions, r.sleep_pruned, r.max_depth,
               r.truncated)
        for name, r in explorations.items()
    }


class TestExhaustiveSeparation:
    def test_separation_holds_over_all_schedules(self):
        out = srb_separation(5, 2).explore()
        assert out.complete
        # 4! orders at each lone corner in scenarios 1-2; 24 x 24 in 3
        assert _exploration_pins(out.worlds) == SEPARATION_5_2_PINS
        assert out.problems == []
        out.assert_holds()

    def test_quick_bound_stays_sound(self):
        out = srb_separation(5, 2).explore(max_schedules=10)
        assert not out.complete
        assert _exploration_pins(out.worlds) == SEPARATION_5_2_QUICK_PINS
        assert out.problems == []
        out.assert_holds()  # a prefix of the schedule space, same verdicts


class TestExhaustiveVWA:
    def test_impossibility_over_all_schedules(self):
        out = vwa_rb_impossibility(f=2).explore()
        assert out.complete
        assert _exploration_pins(out.worlds) == VWA_F2_PINS
        assert sum(r.schedules for r in out.worlds.values()) == 56
        assert out.problems == []
        out.assert_holds()

    def test_dpor_reduction_on_world5(self):
        from repro.mc import explore

        world5 = vwa_rb_impossibility(f=2).worlds[4]  # "world5"
        naive = explore(
            lambda: world5.build(0), dpor=False, max_schedules=500,
        )
        dpor = explore(lambda: world5.build(0), dpor=True)
        # naive blows past 500 schedules (full space: 40320); DPOR: 16
        assert not naive.complete
        assert dpor.complete and dpor.schedules == 16
        assert dpor.reduction_vs(naive) >= 5.0
