#!/usr/bin/env python3
"""Cycle-collector time of one benchmark workload, per generation.

    tools/gc_share.py <workload> [--seed S] [--seconds S]

Runs ``benchmarks/e2e/child.py`` of the checkout this file sits in once,
in this process, with a ``gc.callbacks`` hook that times every collection.
Prints, for generations 0, 1 and 2 and in total, the number of collections,
their seconds and their share of the child's wall (the whole ``child.main``
call: import of the workloads, set-up repetitions, calibration and the
measured region), then the child's own ``raw_wall_s`` for reference.

Seconds are host seconds, not the ledger's calibrated ones, and the child
pins this process to one CPU as it pins itself under ``run.py``. Nothing
is added to or changed in ``benchmarks/e2e/``: the child is imported from
its directory and its stdout (one JSON object) is captured and parsed.
To read another checkout, run the copy of this file placed in that
checkout's ``tools/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")


class CollectorClock:
    """A ``gc.callbacks`` hook: collections and seconds per generation."""

    def __init__(self) -> None:
        self.count = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        gen = info["generation"]
        self.seconds[gen] += time.perf_counter() - self._t0
        self.count[gen] += 1


def run_child(workload: str, seed: int, seconds: float) -> tuple[CollectorClock, float, dict]:
    """One in-process child run; returns the clock, its wall and its JSON."""
    sys.path[:0] = [E2E, os.path.join(ROOT, "src")]
    import child

    clock = CollectorClock()
    out = io.StringIO()
    gc.callbacks.append(clock)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            child.main(["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds)])
    finally:
        wall = time.perf_counter() - t0
        gc.callbacks.remove(clock)
    return clock, wall, json.loads(out.getvalue().strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    clock, wall, result = run_child(args.workload, args.seed, args.seconds)
    print(f"{args.workload} seed {args.seed} seconds {args.seconds:g}: "
          f"child wall {wall:.2f} s")
    print(f"{'gen':>5} {'collections':>12} {'seconds':>9} {'share':>7}")
    rows = [(str(g), clock.count[g], clock.seconds[g]) for g in range(3)]
    rows.append(("all", sum(clock.count), sum(clock.seconds)))
    for name, count, secs in rows:
        print(f"{name:>5} {count:>12,} {secs:>9.3f} {secs / wall:>7.1%}")
    print(f"raw_wall_s {result['raw_wall_s']:.2f} s, correct {result['correct']}")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
