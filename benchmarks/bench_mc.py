"""R5 — bounded model checking: DPOR reduction factor and throughput.

Three reduction workloads, each enumerable naively so the reduction factor
is measured, not estimated, and the verdict sets can be compared exactly:

- **fanout micro** — 2 senders × 2 receivers: 24 naive interleavings,
  4 Mazurkiewicz classes (the textbook independent-receivers picture);
- **srb-echo-gap** — the planted checkpoint-gap fixture, naive vs DPOR,
  both convicting the same sequencing violations;
- **vwa-world5** (full mode only) — world 5 of the five-world argument at
  ``f = 2``: 40320 naive schedules collapse to 16, the largest reduction
  in the suite.

Plus the sharded sweep: ``exhaustive_sweep`` over every registered fixture
at ``workers=1`` and ``workers=4``. The fixtures are milliseconds of work,
so parallel wall-clock mostly prices pool startup — the JSON records both
honestly next to the CPU count rather than claiming a speedup.

Acceptance bar asserted here: every reduction row shows >= 5x fewer DPOR
schedules than naive with an identical violation verdict set.

Writes ``BENCH_mc.json`` at the repo root (override with ``--out``).

Runs two ways::

    python -m pytest benchmarks/bench_mc.py --benchmark-only
    python benchmarks/bench_mc.py --quick   # CI smoke, no pytest
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.agreement.worlds import vwa_rb_impossibility
from repro.analysis import format_table
from repro.faults.chaos import exhaustive_sweep
from repro.mc import explore
from repro.mc.fixtures import SYSTEMS, get_system
from repro.sim.adversary import LockStepSynchronous
from repro.sim.process import Process
from repro.sim.runner import Simulation

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_mc.json"

REDUCTION_BAR = 5.0  # the ISSUE's acceptance threshold
SWEEP_WORKERS = 4


class _FanoutSender(Process):
    def __init__(self, dsts):
        super().__init__()
        self.dsts = dsts

    def on_start(self):
        for dst in self.dsts:
            self.ctx.send(dst, ("ping", None))


class _Sink(Process):
    def on_message(self, src, msg):
        self.ctx.record("custom", event="got", src=src)


def _micro_factory():
    procs = [_FanoutSender((2, 3)), _FanoutSender((2, 3)), _Sink(), _Sink()]
    return Simulation(procs, adversary=LockStepSynchronous(1.0), seed=0)


def _world5_factory():
    return vwa_rb_impossibility(f=2).worlds[4].build(0)  # "world5"


def _reduction_workloads(quick: bool) -> list[dict[str, Any]]:
    echo = get_system("srb-echo-gap")
    rows = [
        {"name": "fanout-micro", "factory": _micro_factory, "check": None,
         "options": {}},
        {"name": "srb-echo-gap", "factory": echo.factory, "check": echo.check,
         "options": dict(echo.options)},
    ]
    if not quick:
        rows.append(
            {"name": "vwa-world5", "factory": _world5_factory, "check": None,
             "options": {}}
        )
    return rows


def _timed_explore(workload: dict[str, Any], dpor: bool):
    t0 = time.perf_counter()
    res = explore(
        workload["factory"], check=workload["check"], dpor=dpor,
        **workload["options"],
    )
    return res, time.perf_counter() - t0


def measure_reductions(quick: bool) -> list[dict[str, Any]]:
    rows = []
    for workload in _reduction_workloads(quick):
        naive, naive_wall = _timed_explore(workload, dpor=False)
        dpor, dpor_wall = _timed_explore(workload, dpor=True)
        verdicts_identical = (
            {v.message for v in naive.violations}
            == {v.message for v in dpor.violations}
        )
        rows.append({
            "name": workload["name"],
            "naive_schedules": naive.schedules,
            "dpor_schedules": dpor.schedules,
            "reduction": dpor.reduction_vs(naive),
            "verdicts_identical": verdicts_identical,
            "violations": len(dpor.violations),
            "naive_wall_s": naive_wall,
            "dpor_wall_s": dpor_wall,
            "naive_schedules_per_s": naive.schedules / max(naive_wall, 1e-9),
            "naive_transitions_per_s":
                naive.transitions / max(naive_wall, 1e-9),
            "complete": naive.complete and dpor.complete,
        })
    return rows


def measure_sweep() -> dict[str, Any]:
    t0 = time.perf_counter()
    serial = exhaustive_sweep(workers=1)
    wall_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = exhaustive_sweep(workers=SWEEP_WORKERS)
    wall_parallel = time.perf_counter() - t0
    identical = all(
        serial[name].schedules == parallel[name].schedules
        and {v.schedule for v in serial[name].violations}
        == {v.schedule for v in parallel[name].violations}
        for name in serial
    )
    return {
        "systems": sorted(SYSTEMS),
        "workers": SWEEP_WORKERS,
        "cpus": os.cpu_count(),
        "schedules": sum(r.schedules for r in serial.values()),
        "violations": sum(len(r.violations) for r in serial.values()),
        "workers1_s": wall_serial,
        "workers4_s": wall_parallel,
        "parallel_vs_serial": wall_serial / max(wall_parallel, 1e-9),
        "shard_results_identical": identical,
    }


def run_mc_bench(quick: bool = False,
                 out: Optional[Path] = DEFAULT_OUT) -> dict[str, Any]:
    reductions = measure_reductions(quick)
    sweep = measure_sweep()
    results = {"quick": quick, "reductions": reductions, "sweep": sweep,
               "bars": {"reduction": REDUCTION_BAR}}
    if out is not None:
        Path(out).write_text(json.dumps(results, indent=2) + "\n")
    for row in reductions:
        assert row["reduction"] >= REDUCTION_BAR, (
            f"{row['name']}: DPOR reduction {row['reduction']:.1f}x under "
            f"the {REDUCTION_BAR}x bar"
        )
        assert row["verdicts_identical"], (
            f"{row['name']}: DPOR and naive verdict sets differ"
        )
        assert row["complete"], f"{row['name']}: exploration was cut short"
    assert sweep["shard_results_identical"], (
        "parallel shard sweep disagrees with the serial sweep"
    )
    return results


def render(results: dict[str, Any]) -> str:
    rows = [
        [r["name"], r["naive_schedules"], r["dpor_schedules"],
         f"{r['reduction']:.1f}x",
         "yes" if r["verdicts_identical"] else "NO",
         f"{r['naive_schedules_per_s']:.0f}"]
        for r in results["reductions"]
    ]
    red_tbl = format_table(
        ["system", "naive", "DPOR", "reduction", "same verdicts",
         "naive sched/s"],
        rows,
        title=f"R5a: DPOR reduction (bar {results['bars']['reduction']}x)",
    )
    s = results["sweep"]
    sweep_tbl = format_table(
        ["workers", "wall s", "schedules", "violations"],
        [
            ["1", f"{s['workers1_s']:.3f}", s["schedules"], s["violations"]],
            [str(s["workers"]), f"{s['workers4_s']:.3f}", s["schedules"],
             s["violations"]],
        ],
        title=f"R5b: sharded fixture sweep ({len(s['systems'])} systems, "
              f"{s['cpus']} cpu) — shard union identical to serial",
    )
    return red_tbl + "\n\n" + sweep_tbl


def test_mc_bench(once, quick):
    from _bench_util import report

    results = once(run_mc_bench, quick)
    report(render(results))


def main(argv: Optional[Sequence[str]] = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="skip the 40320-schedule naive world-5 row (CI)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    results = run_mc_bench(quick=args.quick, out=args.out)
    print(render(results))
    print(f"\nwrote {args.out}")
    worst = min(r["reduction"] for r in results["reductions"])
    print(f"worst-case DPOR reduction {worst:.1f}x (bar {REDUCTION_BAR}x)")


if __name__ == "__main__":
    main()
