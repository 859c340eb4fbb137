"""Every metric the benchmark reports: name, unit, better direction, bound.

This module imports nothing from ``repro`` so the parent process, the
comparer and the smoke test can read it without loading the system under
test. ``BENCHMARK.json`` is generated from it (``run.py --write-manifest``).

Two clocks. *Host* time (unit ``s``, ``1/s``) is what the simulator takes to
run, in calibrated seconds (wall-clock divided by the machine's speed factor
during that run, see child.py); *simulated* time (unit ``sim_s``,
``1/sim_s``) is what the modelled system would take. Simulated numbers and
counts are a pure function of the seed and must repeat exactly; host numbers
are medians over repetitions.
"""

from __future__ import annotations

from layers import CALIBRATION, LAYERS, OTHER, TRACER

RUN_SECONDS = 10

#: workload -> why it exists (one line each; workloads.py holds the code)
WORKLOADS = {
    "minbft_load":
        "MinBFT n=2f+1 under open-loop Poisson load (~12 events/request): USIG, "
        "serialize and trace/observers carry it; ROADMAP's headline cell",
    "pbft_load":
        "same arrivals on the 3f+1 baseline: no USIG, all-to-all phases "
        "(~36 events/request), so trace, observers, network and scheduler carry it",
    "srb_sm_burst":
        "the paper's Algorithm 1 over SWMR logs (n=7, t=3): proof validation makes "
        "serialize/signatures dominant, with no consensus layer and no network",
    "uni_sm_rounds":
        "unidirectional rounds over swmr registers with zero crypto: shared memory, "
        "rounds, scheduler and trace undiluted; a crypto change predicts no change",
    "chaos_campaign":
        "hundreds of 10-100 ms chaos/attack cells, each from reset caches and a "
        "fresh system over lossy links: a cache that only wins warm shows as a loss",
    "mc_equivocation":
        "exhaustive DPOR exploration in controlled mode: every schedule re-runs the "
        "factory and the execution on fresh objects; set-up is a visible share",
}

#: host-clock metrics the driver gates: (name, unit, better, bound). Each is
#: defined and non-zero on every workload, as the contract requires. The
#: bounds are three times the spread this box shows across ten seeds
#: (ops_per_s 3.8-9.7 %, peak_rss_mb 0.1-4.3 %): the noise floor, not what a
#: regression is worth. Same-seed interleaved ledgers resolve finer changes.
END_TO_END = (
    # host s before the first event can be dispatched: input generation +
    # builders; a campaign's is the sum over its cells / factory calls.
    # compare.py also allows 0.05 s absolute, because four workloads set up
    # in milliseconds.
    ("setup_s", "s", "lower", 0.25),
    # ok ops / wall_s, host; wall_s runs from just before inputs are
    # generated to just after the final audits return, import excluded
    ("ops_per_s", "1/s", "higher", 0.25),
    # child ru_maxrss
    ("peak_rss_mb", "MiB", "lower", 0.15),
)
SETUP_ABS_FLOOR_S = 0.05

#: end-to-end metrics that are exact per seed: compared with bound 0 by
#: compare.py and the ledger. They cannot be driver-gated: they vary across
#: seeds (PBFT's p99 is bimodal, 2.8 vs 27 sim_s), the latency ones apply to
#: four of the six workloads, and fail_ratio is 0 on every healthy run.
EXACT = (
    # failed / attempted ops; any red auditor makes it 1.0
    ("fail_ratio", "ratio", "lower"),
    # load: scheduled arrival -> request_done; burst: broadcast() -> each
    # bcast_deliver; rounds: begin_round -> round_end
    ("sim_lat_p50_s", "sim_s", "lower"),
    ("sim_lat_p99_s", "sim_s", "lower"),
    ("sim_lat_n", "count", "higher"),
    # ok ops / simulated span (first due/sent -> last done)
    ("sim_goodput_ops_per_s", "1/sim_s", "higher"),
)

#: the three observer classes that cost the most, summed over the workloads
#: (seed 0: 3.1 s, 1.6 s, 1.4 s); the trace file has every class
OBSERVER_CLASSES = (
    "OrderHasher",
    "ReplicationStreamChecker",
    "ReplicationLivenessChecker",
)

#: exact counts and host rates of single layers: (name, unit, better)
COUNTS = (
    ("sim.scheduler.events", "count", "lower"),
    ("sim.scheduler.events_per_op", "1/op", "lower"),
    ("sim.scheduler.events_per_s", "1/s", "higher"),  # host, untraced run
    ("sim.scheduler.timer_wheel_hits", "count", "higher"),
    ("sim.scheduler.freelist_reuses", "count", "higher"),
    ("sim.scheduler.compactions", "count", "lower"),
    ("sim.network.msgs_per_op", "1/op", "lower"),
    ("sim.network.dropped", "count", "lower"),
    ("sim.network.duplicates", "count", "lower"),
    ("sim.shared_memory.ops_per_op", "1/op", "lower"),
    ("sim.trace.records_per_op", "1/op", "lower"),
    ("sim.trace.evicted", "count", "lower"),
    ("crypto.serialize.calls_per_op", "1/op", "lower"),
    ("crypto.serialize.hit_ratio", "ratio", "higher"),
    ("crypto.signatures.verify_hit_ratio", "ratio", "higher"),
    ("crypto.signatures.hmac_per_op", "1/op", "lower"),
    ("crypto.signatures.signs_per_op", "1/op", "lower"),
    ("consensus.batch_mean", "count", "higher"),
    ("consensus.batches_flushed", "count", "lower"),
    ("consensus.window_mean_occupancy", "count", "higher"),
    ("consensus.proposal_stalls", "count", "lower"),
    ("consensus.view_changes", "count", "lower"),
    ("consensus.state_transfers", "count", "lower"),
    ("consensus.noop_slots", "count", "lower"),
    ("consensus.peak_slot_state", "count", "lower"),
    ("consensus.client.retransmissions", "count", "lower"),
    ("consensus.client.peak_backlog", "count", "lower"),
    # launch - due: how late the open-loop generator ran
    ("consensus.client.release_lag_p99_s", "sim_s", "lower"),
    # the harness's own from-send latency, beside sim_lat_p99_s from due
    ("consensus.client.sim_lat_from_send_p99_s", "sim_s", "lower"),
    ("faults.restarts", "count", "lower"),
    ("faults.chaos.cells_per_s.srb-uni", "1/s", "higher"),  # host
    ("faults.chaos.cells_per_s.minbft-pipelined", "1/s", "higher"),
    ("faults.chaos.cells_per_s.pbft", "1/s", "higher"),
    ("faults.chaos.cells_per_s.service", "1/s", "higher"),
    ("faults.chaos.cells_per_s.attack", "1/s", "higher"),
    ("service.admission.reject_ratio", "ratio", "lower"),
    ("mc.explorer.schedules", "count", "lower"),
    ("mc.explorer.transitions", "count", "lower"),
    ("mc.explorer.transitions_per_schedule", "count", "lower"),
    ("mc.explorer.sleep_pruned", "count", "higher"),
)

#: about the measurement itself
BENCH = (
    ("bench.wall_s", "s", "lower"),  # untraced wall_s, information only
    ("bench.raw_wall_s", "s", "lower"),  # the same before calibration
    # mean reference-kernel time / nominal: > 1 when the machine ran slow
    ("bench.speed_factor", "ratio", "lower"),
    ("bench.import_s", "s", "lower"),  # `import repro`, outside wall_s
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),  # traced / untraced wall_s
    ("bench.other_share", "ratio", "lower"),  # traced wall no span covers
    ("bench.entry_points_missing", "count", "lower"),
)


def layer_metrics() -> tuple:
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    out += [(f"observers.{cls}.self_s", "s", "lower") for cls in OBSERVER_CLASSES]
    out.append((f"{OTHER}.self_s", "s", "lower"))
    out.append((f"{TRACER}.self_s", "s", "lower"))
    out.append((f"{CALIBRATION}.self_s", "s", "lower"))
    return tuple(out)


PER_LAYER = (*layer_metrics(), *COUNTS, *EXACT, *BENCH)

UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}
BETTER = {name: better for name, _unit, better, *_ in (*END_TO_END, *PER_LAYER)}
BOUNDS = {name: bound for name, _u, _b, bound in END_TO_END}
BOUNDS.update({name: 0.0 for name, _u, _b in EXACT})


def manifest() -> dict:
    """The contents of ``BENCHMARK.json`` (exactly the contract's keys)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
