"""One workload, once, in this process; prints one JSON object on stdout.

``run.py`` starts this file in a fresh interpreter per repetition, because
the crypto caches are process-global and ``ru_maxrss`` is a high-water mark.
Nothing is warmed beyond ``import repro``: users pay cold caches on every
run, so the benchmark does too.

Untraced, only the ``setup`` entry points are wrapped (two clock reads per
builder call). With ``--trace 1`` every entry point of :mod:`layers` opens a
span and the aggregate is written to ``out/<workload>.trace.json``.

**Calibrated seconds.** The box this runs on changes speed by up to 30 % for
minutes at a time (turbo and co-tenants: a fixed pure-Python loop and the
workload slow down together, correlation 0.96 over 10 s windows). So every
quarter second, at a boundary the workload offers (:meth:`Harness.tick`), a
fixed reference kernel is timed; its time is taken out of the measured
region, and every host-clock number is divided by ``speed_factor = mean
kernel time / REF_NOMINAL_S``. A calibrated second is a second of this box
running at its nominal speed; on seven minutes of back-to-back identical
10 s windows that cut the spread from 8.9 % to 2.4 %. The raw wall is still
reported (``bench.raw_wall_s``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import layers
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))

#: a single-system workload sets up at least 5 times and then until 0.25 s or
#: 200 builds are spent, so that a 0.1 ms build still gives a steady median
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 5, 200, 0.25

#: the reference kernel is timed at most this often, and takes about
#: REF_NOMINAL_S on the 2.1 GHz Xeon box this was sized on when that box is calm
TICK_S = 0.25
REF_NOMINAL_S = 0.017


def reference_kernel() -> int:
    """Fixed interpreter-bound work (dict, tuple, int churn); touches nothing
    of ``repro``, so only the machine and the interpreter can change its time."""
    table: dict = {}
    seen: list = []
    h = 0
    for i in range(60_000):
        table[(i & 4095, h & 7)] = (i, h)
        h = (h * 31 + i) & 0xFFFFFFFF
        if i & 63 == 0:
            seen.append(table.get((i >> 1 & 4095, 0)))
    return h


#: span kind whose call count stands in for a counter no public surface gives
SPAN_FALLBACK = {
    "sim.scheduler.events": "sim.runner:Simulation._dispatch",
    "sim.network.msgs": "sim.network:Network.submit",
    "sim.shared_memory.ops": "sim.shared_memory:SharedMemorySystem.linearize",
    "sim.trace.records": "sim.trace:TraceStore.record",
}


class Harness:
    """What a workload sees of the measurement: seed, size, set-up timing."""

    clock = staticmethod(time.perf_counter)

    def __init__(self, recorder, seed: int, seconds: float, traced: bool) -> None:
        self.recorder = recorder
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.setup_reps: list[float] = []
        self.excluded_s = 0.0  # measurement inside the region, not workload
        self.ref_samples: list[float] = []
        self._last_tick = 0.0
        self._kernel = recorder.wrap(
            layers.CALIBRATION, "reference_kernel", reference_kernel)

    def sample(self, kernel=reference_kernel) -> float:
        """Time the reference kernel once. The collector is off meanwhile:
        a collection the kernel's allocations trigger walks the workload's
        heap, and the sample must not depend on the workload."""
        t0 = self.clock()
        gc.disable()
        try:
            kernel()
        finally:
            gc.enable()
        self._last_tick = self.clock()
        self.ref_samples.append(self._last_tick - t0)
        return self.ref_samples[-1]

    def tick(self) -> None:
        """Called by workloads between slices, cells and factory calls: time
        the reference kernel if a quarter second has passed since the last."""
        if self.clock() - self._last_tick >= TICK_S:
            self.excluded_s += self.sample(self._kernel)

    @property
    def speed_factor(self) -> float:
        """> 1 when the machine ran slower than nominal during this run."""
        return statistics.fmean(self.ref_samples) / REF_NOMINAL_S

    def build(self, fn):
        """Run a single-system build; untraced, repeat it and keep every
        duration (``setup_s`` is their median, the last product is used)."""
        fn = self.recorder.wrap("setup", "workload.build", fn)
        entered = self.clock()
        while True:
            t0 = self.clock()
            product = fn()
            self.setup_reps.append(self.clock() - t0)
            n, spent = len(self.setup_reps), sum(self.setup_reps)
            if self.traced or n >= SETUP_MAX_REPS or (
                    n >= SETUP_MIN_REPS and spent >= SETUP_BUDGET_S):
                break
        gc.collect()  # the discarded builds
        # the repeated builds are measurement, not workload: wall_s keeps one
        self.excluded_s += (
            self.clock() - entered - statistics.median(self.setup_reps))
        return product

    def setup_call(self, fn, label: str):
        """A factory the workload hands to a campaign: timed as set-up, and
        a place to tick, because the campaign offers no other."""
        timed = self.recorder.wrap("setup", label, fn)

        def factory():
            self.tick()
            return timed()

        return factory


def pin_to_one_cpu() -> None:
    """Pin to the highest-numbered allowed CPU: unpinned, the scheduler
    migrates the process and same-code runs spread 8 % instead of 2.5 % on
    the 2-core box this was sized on (CPU 0 takes the interrupts there)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def traced_layers(tracer, raw_wall_s: float, factor: float) -> tuple[dict, dict]:
    """Layer self times in calibrated seconds, and the span-count fallbacks.
    The layers, ``other`` and ``bench.tracer`` add up to ``wall_s``; the
    calibration kernel's spans are outside it, like its time is."""
    out = {}
    by_layer = tracer.by_layer()
    calibration_s = by_layer.pop(layers.CALIBRATION)[1]
    out[f"{layers.CALIBRATION}.self_s"] = calibration_s / factor
    for layer, (calls, self_s) in by_layer.items():
        out[f"{layer}.self_s"] = self_s / factor
        out[f"{layer}.calls"] = calls
    by_kind = tracer.by_kind()
    for cls in metrics.OBSERVER_CLASSES:
        out[f"observers.{cls}.self_s"] = by_kind.get(
            f"{layers.OBSERVERS}:{cls}.on_event", (0, 0.0))[1] / factor
    out[f"{layers.TRACER}.self_s"] = tracer.tracer_s / factor
    out[f"{layers.OTHER}.self_s"] = (
        raw_wall_s - (tracer.covered_s - calibration_s)) / factor
    span_counts = {name: by_kind.get(kind, (0, 0.0))[0]
                   for name, kind in SPAN_FALLBACK.items()}
    return out, span_counts


def write_trace_file(tracer, result: dict) -> str:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{result['workload']}.trace.json")
    with open(path, "w") as fh:
        json.dump({
            "workload": result["workload"],
            "seed": result["seed"],
            "seconds": result["seconds"],
            "wall_s": result["wall_s"],
            "layers": result["layers"],
            "aggregate": tracer.aggregate(),
            "spans": tracer.raw_spans(),
        }, fh, indent=1)
    return os.path.relpath(path, os.path.dirname(os.path.dirname(HERE)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    traced = bool(args.trace)

    pin_to_one_cpu()
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: bench.import_s)
    import workloads  # imports every repro module a workload touches
    import_s = time.perf_counter() - t0

    recorder = layers.Tracer() if traced else layers.SetupClock()
    missing = layers.install(recorder)
    h = Harness(recorder, args.seed, args.seconds, traced)

    h.sample()
    t_start = time.perf_counter()
    res = workloads.RUNNERS[args.workload](h)
    raw_wall_s = time.perf_counter() - t_start - h.excluded_s
    h.sample()

    factor = h.speed_factor
    wall_s = raw_wall_s / factor
    if h.setup_reps:
        setup_s = statistics.median(h.setup_reps) / factor
    else:
        setup_s = None if traced else recorder.total_s / factor

    traced_part = {}
    if traced:
        layer_values, span_counts = traced_layers(recorder, raw_wall_s, factor)
        traced_part = {"layers": layer_values, "span_counts": span_counts}
        events = res["counts"].get("sim.scheduler.events")
        if events is not None:
            res["checks"]["span_count_matches_events"] = (
                events == span_counts["sim.scheduler.events"])

    attempted, ok = res["attempted"], res["ok"]
    correct = all(res["checks"].values())
    failed = attempted - ok
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": res["size"],
        "op": res["op"],
        "attempted": attempted,
        "ok": ok,
        "failed": failed,
        "checks": res["checks"],
        "correct": correct,
        "failures": res.get("failures", []),
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "speed_factor": factor,
        "setup_s": setup_s,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact": {
            "fail_ratio": failed / attempted if correct else 1.0,
            **res["sim"],
        },
        "counts": res["counts"],
        "cells": {name: {"cells": n, "wall_s": secs / factor}
                  for name, (n, secs) in res.get("cells", {}).items()},
        "witness": res["witness"],
        "entry_points_missing": missing,
        **traced_part,
    }
    if traced:
        result["trace_file"] = write_trace_file(recorder, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
