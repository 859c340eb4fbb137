"""The six workloads. Each drives ``repro`` through public entry points only
and returns what it measured on the simulated clock, its exact counts, its
correctness checks and a behaviour witness; host timing is the caller's job
(:mod:`child`).

Sizes are *per nominal second*: a run of ``--seconds S`` does ``S`` times
the work below, so ``--seconds 10`` is the committed size and ``--seconds 1``
(``--quick``) a tenth of it. The factors are 0.75 of the sizes the issue
measured (10,000 requests, 600 values, 4,000 rounds, 60 + 10 campaign seeds),
scaled together so 136 driver runs fit the contract's cap; the exhaustive
model-checking workload cannot shrink and stays whole from ``--seconds 10``.

Every workload calls ``h.tick()`` where it can pause without changing what
runs (between slices of a run, chunks of a campaign, factory calls), so the
harness can time its speed-calibration kernel there; see :mod:`child`.

Modules are imported, not names: :func:`layers.install` rebinds module
attributes, and a name imported here beforehand would bypass the wrapper.
"""

from __future__ import annotations

import hashlib
import json

from repro.consensus import harness as consensus_harness
from repro.consensus import safety as consensus_safety
from repro.core import directionality, rounds, srb, srb_from_uni, uni_from_sm
from repro.crypto import serialize as crypto_serialize
from repro.faults import attacks, chaos
from repro.mc import explorer as mc_explorer
from repro.mc import fixtures as mc_fixtures
from repro.sim import adversary as sim_adversary
from repro.sim import runner as sim_runner
from repro.workloads import generator, load

from probes import BroadcastProbe, LoadProbe, RoundProbe, percentile

# -- sizes per nominal second ------------------------------------------------
LOAD_REQUESTS_PER_S = 750
LOAD_RATE = 20.0  # offered Poisson rate, simulated req/s (open loop)
LOAD_SLICE_EVENTS = 1_000  # 0.03-0.1 s of host time between ticks
SRB_VALUES_PER_S = 45
UNI_ROUNDS_PER_S = 300
CHAOS_SEEDS_PER_S = 4.5
ATTACK_SEEDS_PER_S = 0.8
CHAOS_CHUNK = 3  # seeds per sweep call: 0.04-0.3 s of host time between ticks
MC_SCHEDULES_PER_S = 252
MC_SCHEDULES_FULL = 2520

CHAOS_PROTOCOLS = ("srb-uni", "minbft-pipelined", "pbft", "service")
#: srb-equivocate is left out: at this commit it reports an integrity
#: violation on 20 of seeds 0..299 (first at seed 44), and a workload may not
#: contain operations that fail before any change is made.
EXCLUDED_ATTACKS = ("srb-equivocate",)

TRACE_RETENTION = 50_000


def _size(per_second: float, seconds: float) -> int:
    return max(1, round(per_second * seconds))


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _crypto_counts(stats: dict, ops: int) -> dict:
    """The crypto layer metrics from a ``CryptoStats.as_dict()``-shaped dict."""
    calls = stats["serialize_hits"] + stats["serialize_misses"]
    verifies = stats["verify_hits"] + stats["verify_misses"]
    return {
        "crypto.serialize.calls_per_op": _ratio(calls, ops),
        "crypto.serialize.hit_ratio": _ratio(stats["serialize_hits"], calls),
        "crypto.signatures.verify_hit_ratio": _ratio(stats["verify_hits"], verifies),
        "crypto.signatures.hmac_per_op": _ratio(stats["hmac_ops"], ops),
        "crypto.signatures.signs_per_op": _ratio(stats["signs"], ops),
    }


def _crypto_since(before: dict) -> dict:
    after = crypto_serialize.crypto_stats().as_dict()
    return {k: after[k] - before[k] for k in after}


def _consensus_counts(stats: dict | None) -> dict:
    """The pipeline counters of a merged ``consensus_stats()`` dict."""
    stats = stats or {}
    hist = stats.get("batch_size_hist") or {}
    batches = sum(hist.values())
    return {
        "consensus.batch_mean": _ratio(
            sum(int(k) * v for k, v in hist.items()), batches),
        "consensus.batches_flushed": stats.get("batches_flushed", 0),
        "consensus.window_mean_occupancy": _ratio(
            stats.get("window_occupancy_sum", 0), stats.get("window_samples", 0)),
        "consensus.proposal_stalls": stats.get("proposal_stalls", 0),
        "consensus.state_transfers": stats.get("state_transfers", 0),
        "consensus.noop_slots": stats.get("noop_slots", 0),
    }


def _sim_counts(sim, events: int) -> dict:
    """Scheduler / network / memory / trace counters of one finished system."""
    sched = sim.scheduler
    return {
        "sim.scheduler.events": events,
        "sim.scheduler.timer_wheel_hits": sched.timer_wheel_hits,
        "sim.scheduler.freelist_reuses": sched.freelist_reuses,
        "sim.scheduler.compactions": sched.compactions + sched.wheel_compactions,
        "sim.network.msgs": sim.network.messages_sent,
        "sim.network.dropped": len(sim.network.withheld),
        "sim.network.duplicates": sim.network.duplicates_delivered,
        "sim.shared_memory.ops": sim.memory.ops_linearized,
        "sim.trace.records": sim.trace.total_recorded,
        "sim.trace.evicted": sim.trace.evicted,
    }


# -- minbft_load / pbft_load -------------------------------------------------


def _load(h, protocol: str) -> dict:
    n_requests = _size(LOAD_REQUESTS_PER_S, h.seconds)
    f, n_clients = 1, 4
    n = 2 * f + 1 if protocol == "minbft" else 3 * f + 1

    def build():
        arrivals = generator.open_loop_arrivals(
            n_requests, seed=h.seed, rate=LOAD_RATE, kind="uniform-kv")
        per_client = load.split_arrivals(arrivals, n_clients)
        hasher = load.OrderHasher()
        probe = LoadProbe(per_client, first_client_pid=n)
        safety = consensus_safety.ReplicationStreamChecker(
            correct_replicas=range(n), fail_fast=True)
        liveness = consensus_safety.ReplicationLivenessChecker(
            gst=0.0, request_bound=500.0, fault_free_replicas=range(n),
            fault_free_clients=range(n, n + n_clients), f=f)
        builder = getattr(consensus_harness, f"build_{protocol}_system")
        sim, replicas, clients = builder(
            f=f, n_clients=n_clients, app="kv", seed=h.seed,
            req_timeout=25.0, retry_timeout=40.0,
            client_arrivals=per_client,
            replica_options=dict(
                checkpoint_interval=8, window_size=16, batching=True,
                batch_policy="adaptive", batch_delay=0.2),
            client_options=dict(max_outstanding=8),
            observers=(hasher, probe, safety, liveness),
            trace_retention=TRACE_RETENTION,
        )
        return sim, replicas, clients, hasher, probe, safety, liveness

    sim, replicas, clients, hasher, probe, safety, liveness = h.build(build)
    crypto0 = crypto_serialize.crypto_stats().as_dict()
    # run_to_quiescence, in slices so the harness can tick between them
    events, limit = 0, max(60 * n_requests, 200_000)
    while True:
        stats = sim.run(max_events=LOAD_SLICE_EVENTS)
        events += stats.events_processed
        h.tick()
        if stats.exhausted or events >= limit:
            break
    safety_report = safety.finish(expected_ops=None)
    liveness_report = liveness.finish(stats.end_time)

    completed = sum(len(c.results) for c in clients)
    lags = sorted(probe.release_lags)
    from_send = sorted(probe.from_send)
    counts = {
        **_sim_counts(sim, events),
        **_crypto_counts(_crypto_since(crypto0), completed),
        **_consensus_counts(stats.consensus),
        "consensus.view_changes": max(r.view_changes_completed for r in replicas),
        "consensus.peak_slot_state": max(r.slot_state_size() for r in replicas),
        "consensus.client.retransmissions": sum(c.retransmissions for c in clients),
        "consensus.client.peak_backlog": max(c.peak_backlog for c in clients),
        "consensus.client.release_lag_p99_s": percentile(lags, 0.99) if lags else 0.0,
        "consensus.client.sim_lat_from_send_p99_s": (
            percentile(from_send, 0.99) if from_send else 0.0),
    }
    return {
        "size": {"requests": n_requests, "rate_per_sim_s": LOAD_RATE,
                 "clients": n_clients, "replicas": n},
        "op": "request that reached its f+1 reply quorum",
        "attempted": n_requests,
        "ok": completed,
        "checks": {
            "quiescent": stats.exhausted,
            "safety_ok": safety_report.ok,
            "liveness_ok": not liveness_report.violations,
            "all_completed": completed == n_requests == len(probe.latencies),
            "no_typed_failures": probe.typed_failures == 0
            and not any(c.failures for c in clients),
        },
        "sim": probe.summary(),
        "counts": counts,
        "witness": {
            "order_hash": hasher.hexdigest(),
            "events": events,
            "messages": sim.network.messages_sent,
            "completed": completed,
        },
    }


def minbft_load(h) -> dict:
    return _load(h, "minbft")


def pbft_load(h) -> dict:
    return _load(h, "pbft")


# -- shared-memory workloads: the transports poll forever, so the run is
# driven in simulated-time slices until the last op is observed ---------------

_SLICE = 100.0
_MAX_SLICES = 100_000


def _run_until(h, sim, done) -> int:
    events = 0
    for _ in range(_MAX_SLICES):
        if done():
            break
        events += sim.run(
            until=sim.now + _SLICE, max_events=50_000_000).events_processed
        h.tick()
    return events


def srb_sm_burst(h) -> dict:
    n, t, sender = 7, 3, 0
    values = _size(SRB_VALUES_PER_S, h.seconds)
    expected = values * n

    def build():
        sim, procs, _scheme = srb_from_uni.build_sm_srb_system(
            n=n, t=t, sender=sender, seed=h.seed)
        checker = sim.attach_observer(
            srb.SRBStreamChecker(sender, range(n), fail_fast=True))
        hasher = sim.attach_observer(load.OrderHasher())
        probe = sim.attach_observer(BroadcastProbe(sender))
        for i in range(values):
            sim.at(0.5 * i, lambda i=i: procs[sender].broadcast(("v", i)))
        return sim, checker, hasher, probe

    sim, checker, hasher, probe = h.build(build)
    crypto0 = crypto_serialize.crypto_stats().as_dict()
    events = _run_until(h, sim, lambda: len(checker.deliveries) >= expected)
    report = checker.finish()

    delivered = len(probe.latencies)
    return {
        "size": {"values": values, "n": n, "t": t, "gap_sim_s": 0.5},
        "op": "bcast_deliver at a correct process",
        "attempted": expected,
        "ok": min(delivered, expected),
        "checks": {
            "srb_ok": report.ok,
            "all_delivered": delivered == expected == len(report.deliveries),
            "no_network": sim.network.messages_sent == 0,
        },
        "sim": probe.summary(),
        "counts": {
            **_sim_counts(sim, events),
            **_crypto_counts(_crypto_since(crypto0), delivered),
        },
        "witness": {
            "order_hash": hasher.hexdigest(),
            "events": events,
            "memory_ops": sim.memory.ops_linearized,
            "delivered": delivered,
        },
    }


class Chat(rounds.RoundProcess):
    """The round-chatter process of ``benchmarks/bench_uni_from_sm.py``:
    every process runs ``nrounds`` labelled rounds back to back."""

    def __init__(self, transport, nrounds: int) -> None:
        super().__init__(transport)
        self.nrounds = nrounds

    def on_round_start(self) -> None:
        self.rounds.begin_round(("m", self.pid, 1), label=("r", 1))

    def on_round_complete(self, label) -> None:
        r = label[1]
        if r < self.nrounds:
            self.rounds.begin_round(("m", self.pid, r + 1), label=("r", r + 1))


def uni_sm_rounds(h) -> dict:
    n, transport = 5, "swmr"
    nrounds = _size(UNI_ROUNDS_PER_S, h.seconds)
    expected = n * nrounds

    def build():
        cls = uni_from_sm.ALL_SM_TRANSPORTS[transport]
        procs = [Chat(cls(), nrounds) for _ in range(n)]
        checker = directionality.DirectionalityStreamChecker(
            range(n), fail_fast=True)
        hasher = load.OrderHasher()
        probe = RoundProbe()
        sim = sim_runner.Simulation(
            procs, sim_adversary.ReliableAsynchronous(0.0, 3.0), seed=h.seed,
            trace_retention=TRACE_RETENTION,
            observers=(checker, hasher, probe))
        for obj in uni_from_sm.build_objects_for(transport, n):
            sim.memory.register(obj)
        return sim, checker, hasher, probe

    sim, checker, hasher, probe = h.build(build)
    crypto0 = crypto_serialize.crypto_stats().as_dict()
    events = _run_until(h, sim, lambda: len(probe.latencies) >= expected)
    report = checker.finish()

    completed = len(probe.latencies)
    return {
        "size": {"rounds_per_process": nrounds, "n": n, "transport": transport},
        "op": "completed round at one process",
        "attempted": expected,
        "ok": min(completed, expected),
        "checks": {
            "unidirectional": report.is_unidirectional,
            "all_rounds_ended": completed == expected,
            "no_network": sim.network.messages_sent == 0,
        },
        "sim": probe.summary(),
        "counts": {
            **_sim_counts(sim, events),
            **_crypto_counts(_crypto_since(crypto0), completed),
        },
        "witness": {
            "order_hash": hasher.hexdigest(),
            "events": events,
            "memory_ops": sim.memory.ops_linearized,
            "rounds": completed,
        },
    }


# -- chaos_campaign ----------------------------------------------------------


def _sum_stats(results, *path) -> int:
    total = 0
    for r in results:
        node = r.stats
        for key in path:
            node = (node or {}).get(key)
        if isinstance(node, (int, float)):
            total += node
    return total


def chaos_campaign(h) -> dict:
    base = 1000 * h.seed
    chaos_seeds = range(base, base + _size(CHAOS_SEEDS_PER_S, h.seconds))
    attack_seeds = range(base, base + _size(ATTACK_SEEDS_PER_S, h.seconds))
    attack_names = [a for a in sorted(attacks.ATTACKS)
                    if a not in EXCLUDED_ATTACKS]

    # protocol-major like one chaos_sweep over all four, but a few seeds a
    # call, so each protocol is timed and the harness can tick in between
    results, timing = [], {}

    def sweep(key, fn, seeds):
        n, spent = timing.get(key, (0, 0.0))
        for i in range(0, len(seeds), CHAOS_CHUNK):
            t0 = h.clock()
            cells = fn(seeds[i:i + CHAOS_CHUNK])
            spent += h.clock() - t0
            h.tick()
            n += len(cells)
            results.extend(cells)
        timing[key] = (n, spent)

    for protocol in CHAOS_PROTOCOLS:
        sweep(protocol,
              lambda seeds, p=protocol: chaos.chaos_sweep((p,), seeds=seeds),
              chaos_seeds)
    for attack in attack_names:
        sweep("attack",
              lambda seeds, a=attack: chaos.attack_sweep((a,), seeds=seeds),
              attack_seeds)

    ok = sum(1 for r in results if r.ok)
    crypto = {k: _sum_stats(results, "crypto", k)
              for k in crypto_serialize.crypto_stats().as_dict()}
    consensus: dict = {}
    for r in results:
        for key, value in (r.stats.get("consensus") or {}).items():
            if isinstance(value, dict):
                bucket = consensus.setdefault(key, {})
                for k, v in value.items():
                    bucket[k] = bucket.get(k, 0) + v
            elif isinstance(value, (int, float)):
                consensus[key] = consensus.get(key, 0) + value
    counts = {
        # no public surface reports a cell's event, trace-record or
        # shared-memory-op count: the traced run's span counts fill these
        "sim.scheduler.events": None,
        "sim.shared_memory.ops": None,
        "sim.trace.records": None,
        "sim.scheduler.timer_wheel_hits": _sum_stats(
            results, "simcore", "timer_wheel_hits"),
        "sim.scheduler.freelist_reuses": _sum_stats(
            results, "simcore", "freelist_reuses"),
        "sim.scheduler.compactions": _sum_stats(results, "simcore", "compactions")
        + _sum_stats(results, "simcore", "wheel_compactions"),
        "sim.network.msgs": _sum_stats(results, "messages_sent"),
        "sim.network.dropped": _sum_stats(results, "dropped"),
        "sim.network.duplicates": _sum_stats(results, "duplicates"),
        **_crypto_counts(crypto, len(results)),
        **_consensus_counts(consensus),
        "consensus.view_changes": _sum_stats(results, "view_changes"),
        "faults.restarts": _sum_stats(results, "restarts"),
        "service.admission.reject_ratio": _ratio(
            _sum_stats(results, "service", "shed_total"),
            _sum_stats(results, "service", "pumped")),
    }
    return {
        "size": {"chaos_seeds": len(chaos_seeds), "attack_seeds": len(attack_seeds),
                 "protocols": list(CHAOS_PROTOCOLS), "attacks": attack_names,
                 "first_seed": base},
        "op": "cell with ok=True",
        "attempted": len(results),
        "ok": ok,
        "checks": {"all_cells_ok": ok == len(results)},
        "sim": {},
        "counts": counts,
        "cells": timing,
        "failures": [f"{r.protocol} seed {r.seed}: "
                     f"{(r.violations + r.liveness_violations)[:1]}"
                     for r in results if not r.ok][:10],
        "witness": {
            "cells": len(results),
            "ok": ok,
            "stats_hash": _digest(
                [(r.protocol, r.seed, r.ok, r.stats) for r in results]),
            "messages": _sum_stats(results, "messages_sent"),
        },
    }


# -- mc_equivocation ---------------------------------------------------------


def mc_equivocation(h) -> dict:
    """Exhaustive (DPOR) exploration of ``minbft-equivocation``; the seed is
    ignored. Below the full size the search is cut at ``max_schedules``."""
    system = mc_fixtures.get_system("minbft-equivocation")
    wanted = min(MC_SCHEDULES_FULL, _size(MC_SCHEDULES_PER_S, h.seconds))
    full = wanted == MC_SCHEDULES_FULL
    options = dict(system.options)
    if not full:
        options["max_schedules"] = wanted

    crypto0 = crypto_serialize.crypto_stats().as_dict()
    result = mc_explorer.explore(
        h.setup_call(system.factory, "mc.factory"),
        check=system.check, **options)

    ok = max(result.schedules - len(result.violations), 0)
    return {
        "size": {"schedules": wanted, "exhaustive": full, "dpor": True},
        "op": "complete schedule",
        "attempted": wanted,
        "ok": min(ok, wanted),
        "checks": {
            "all_schedules": result.schedules == wanted,
            "no_violations": not result.violations,
            "complete": result.complete == full,
            "none_truncated": result.truncated == 0,
        },
        "sim": {},
        "counts": {
            # controlled mode exposes no event/message/record counters
            "sim.scheduler.events": None,
            "sim.network.msgs": None,
            "sim.shared_memory.ops": None,
            "sim.trace.records": None,
            **_crypto_counts(_crypto_since(crypto0), max(result.schedules, 1)),
            "mc.explorer.schedules": result.schedules,
            "mc.explorer.transitions": result.transitions,
            "mc.explorer.transitions_per_schedule": _ratio(
                result.transitions, result.schedules),
            "mc.explorer.sleep_pruned": result.sleep_pruned,
        },
        "witness": {
            "schedules": result.schedules,
            "transitions": result.transitions,
            "sleep_pruned": result.sleep_pruned,
            "max_depth": result.max_depth,
            "violations": len(result.violations),
        },
    }


RUNNERS = {
    "minbft_load": minbft_load,
    "pbft_load": pbft_load,
    "srb_sm_burst": srb_sm_burst,
    "uni_sm_rounds": uni_sm_rounds,
    "chaos_campaign": chaos_campaign,
    "mc_equivocation": mc_equivocation,
}
