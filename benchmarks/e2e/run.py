"""Whole-system wall-clock ledger: six workloads, end to end and by layer.

Two ways to run it, both from the repository root:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload (the form ``BENCHMARK.json`` declares). The last
    stdout line is one JSON object ``{correct, attempted, failed, metrics}``:
    every end-to-end metric with ``--trace 0``, every per-layer metric with
    ``--trace 1`` (which runs the workload twice, untraced then traced, so
    host rates and the tracing overhead are measured against a clean run).

``python3 benchmarks/e2e/run.py [--seed N] [--reps R] [--trace] [--quick] [--out F]``
    The ledger: every workload ``R`` times (default 3), interleaved
    round-robin so drift is shared, plus one traced repetition each with
    ``--trace``; prints every metric by name with its unit and writes the
    ledger to ``F`` (default ``benchmarks/e2e/out/ledger.json``) for
    ``compare.py``. ``--quick`` is one repetition at a tenth of the size.

Every repetition is a fresh single-threaded child process (``child.py``),
one at a time, started with ``sys.executable`` and ``PYTHONHASHSEED=0`` and
pinned to one CPU. The exit code is non-zero if any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

#: ``--seed`` is folded onto these 32 input seeds. Each was run at this commit
#: on all six workloads with no failed operation. An unvalidated seed can trip
#: a latent protocol bug, which the benchmark must not report as somebody's
#: regression: of seeds 0..33, 18 makes fault-free ``pbft_load`` diverge
#: (replicas 1 and 3 execute different requests in slot 1280) and 29 makes one
#: ``chaos_campaign`` cell miss a delivery (srb-uni, cell seed 29021).
INPUT_SEEDS = tuple(s for s in range(34) if s not in (18, 29))
CHILD_TIMEOUT_S = 170
WITNESS_FILE = os.path.join(HERE, "witnesses.json")


class BenchmarkError(Exception):
    pass


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One repetition in a fresh interpreter; returns the child's JSON."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchmarkError(f"no src/repro under {ROOT}: nothing to measure")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload}: child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- metrics of one repetition ------------------------------------------------


def end_to_end_metrics(child: dict) -> dict:
    return {
        "setup_s": child["setup_s"],
        "ops_per_s": child["ok"] / child["wall_s"],
        "peak_rss_mb": child["peak_rss_mb"],
    }


def exact_metrics(child: dict) -> dict:
    return {name: child["exact"].get(name, 0) for name, _u, _b in metrics.EXACT}


def per_layer_metrics(untraced: dict, traced: dict) -> dict:
    """Every per-layer metric: counts and host rates from the untraced
    repetition, self times and call counts from the traced one."""
    ops = max(untraced["ok"], 1)
    wall = untraced["wall_s"]
    counts = {name: traced["span_counts"][name] if value is None else value
              for name, value in untraced["counts"].items()}
    events = counts.get("sim.scheduler.events", 0)
    out = {name: 0 for name, _u, _b in metrics.PER_LAYER}
    out.update({k: v for k, v in counts.items() if k in out})
    out.update(traced["layers"])
    out.update(exact_metrics(untraced))
    out.update({
        "sim.scheduler.events_per_op": events / ops,
        "sim.scheduler.events_per_s": events / wall,
        "sim.network.msgs_per_op": counts.get("sim.network.msgs", 0) / ops,
        "sim.shared_memory.ops_per_op": counts.get("sim.shared_memory.ops", 0) / ops,
        "sim.trace.records_per_op": counts.get("sim.trace.records", 0) / ops,
        "bench.wall_s": wall,
        "bench.raw_wall_s": untraced["raw_wall_s"],
        "bench.speed_factor": untraced["speed_factor"],
        "bench.import_s": untraced["import_s"],
        "bench.traced_wall_s": traced["wall_s"],
        "bench.trace_overhead_ratio": traced["wall_s"] / wall,
        "bench.other_share": traced["layers"]["other.self_s"] / traced["wall_s"],
        "bench.entry_points_missing": len(traced["entry_points_missing"]),
    })
    for name, cell in untraced["cells"].items():
        out[f"faults.chaos.cells_per_s.{name}"] = cell["cells"] / cell["wall_s"]
    return out


def with_units(values: dict) -> dict:
    return {name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items()}


# -- behaviour witness ----------------------------------------------------------


def witness_key(workload: str, seed: int, seconds: float) -> str:
    return f"{workload}/{seed}/{seconds:g}"


def load_witnesses() -> dict:
    try:
        with open(WITNESS_FILE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def witness_note(child: dict) -> str:
    """Compare with the committed witness: reported, never failed, because
    later changes may alter behaviour on purpose but may not edit this file."""
    key = witness_key(child["workload"], child["seed"], child["seconds"])
    committed = load_witnesses().get(key)
    if committed is None:
        return f"witness {key}: none committed"
    if committed == child["witness"]:
        return f"witness {key}: same as committed"
    return (f"witness {key}: BEHAVIOUR CHANGED - committed {json.dumps(committed)}"
            f" now {json.dumps(child['witness'])}")


def record_witness(child: dict) -> None:
    store = load_witnesses()
    key = witness_key(child["workload"], child["seed"], child["seconds"])
    store[key] = child["witness"]
    with open(WITNESS_FILE, "w") as fh:
        json.dump(store, fh, indent=0, sort_keys=True)
        fh.write("\n")


def print_failures(children: list[dict], indent: str = "") -> None:
    for child in children:
        for check, passed in child["checks"].items():
            if not passed:
                print(f"{indent}CHECK FAILED {child['workload']}: {check}")
    for line in children[0]["failures"]:
        print(f"{indent}FAILED OP {line}")


# -- one run of one workload (the BENCHMARK.json command) ------------------------


def driver_run(args) -> int:
    seed = INPUT_SEEDS[args.seed % len(INPUT_SEEDS)]
    untraced = run_child(args.workload, seed, args.seconds, trace=False)
    children = [untraced]
    if args.trace:
        traced = run_child(args.workload, seed, args.seconds, trace=True)
        children.append(traced)
        values = per_layer_metrics(untraced, traced)
        print(f"trace: {traced['trace_file']}")
    else:
        values = end_to_end_metrics(untraced)
    same = all(c["witness"] == untraced["witness"] for c in children)
    if not same:
        print("CHECK FAILED: the traced run's witness differs from the untraced")
    print_failures(children)
    correct = same and all(c["correct"] for c in children)
    print(f"{args.workload} seed {args.seed} -> input set {seed}; "
          f"size {json.dumps(untraced['size'])}; wall_s {untraced['wall_s']:.3f}")
    print(witness_note(untraced))
    if args.record_witness:
        record_witness(untraced)
    print(json.dumps({
        "correct": correct,
        "attempted": untraced["attempted"],
        "failed": untraced["failed"] if correct else max(untraced["failed"], 1),
        "metrics": with_units(values),
    }))
    return 0 if correct else 1


# -- the ledger -------------------------------------------------------------------


def environment() -> dict:
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "load_1min": load1,
        # another busy process on a 2-core box shares caches with the child
        "noisy": load1 is not None and load1 > 1.0,
        "commit": commit,
    }


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def ledger_run(args) -> int:
    seconds = 1.0 if args.quick else float(args.seconds)
    reps = 1 if args.quick else args.reps
    seed = INPUT_SEEDS[args.seed % len(INPUT_SEEDS)]
    env = environment()
    if env["noisy"]:
        print(f"WARNING: 1-min load average {env['load_1min']:.2f} > 1.0; "
              "host-clock numbers are flagged noisy")
    names = list(metrics.WORKLOADS)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(reps):
        for name in names:  # round-robin: drift is shared by all workloads
            child = run_child(name, seed, seconds, trace=False)
            runs[name].append(child)
            print(f"rep {rep + 1}/{reps} {name}: wall_s {child['wall_s']:.3f}",
                  file=sys.stderr)
    traced = {name: run_child(name, seed, seconds, trace=True)
              for name in names} if args.trace else {}

    ledger = {"schema": 1, "env": env, "seed": seed, "seconds": seconds,
              "reps": reps, "workloads": {}}
    all_correct = True
    for name in names:
        first = runs[name][0]
        children = runs[name] + ([traced[name]] if name in traced else [])
        same = all(c["witness"] == first["witness"] for c in children)
        correct = same and all(c["correct"] for c in children)
        all_correct = all_correct and correct
        e2e = {metric: summarize([end_to_end_metrics(c)[metric] for c in runs[name]])
               for metric, *_ in metrics.END_TO_END}
        exact = exact_metrics(first)
        if not correct:
            exact["fail_ratio"] = 1.0
        entry = {
            "size": first["size"], "op": first["op"],
            "attempted": first["attempted"], "failed": first["failed"],
            "correct": correct, "witness": first["witness"],
            "wall_s": summarize([c["wall_s"] for c in runs[name]]),
            "end_to_end": e2e, "exact": exact,
        }
        print(f"\n== {name}: {first['attempted']} x {first['op']}; "
              f"size {json.dumps(first['size'])}")
        if not same:
            print("  REPETITIONS DISAGREE ON THE WITNESS")
        print_failures(children, indent="  ")
        print(f"  {witness_note(first)}")
        print(f"  {'wall_s':44s} {entry['wall_s']['median']:14.6g} s   "
              "(information: ops_per_s rescaled)")
        for metric, s in e2e.items():
            print(f"  {metric:44s} {s['median']:14.6g} {metrics.UNITS[metric]:8s}"
                  f" min {s['min']:.6g} max {s['max']:.6g} n {s['n']}")
        for metric, value in exact.items():
            print(f"  {metric:44s} {value:14.6g} {metrics.UNITS[metric]}")
        if name in traced:
            layer = per_layer_metrics(first, traced[name])
            entry["per_layer"] = layer
            entry["trace_file"] = traced[name]["trace_file"]
            for metric, value in layer.items():
                if metric not in exact:
                    print(f"  {metric:44s} {value:14.6g} {metrics.UNITS[metric]}")
        ledger["workloads"][name] = entry

    out = args.out or os.path.join(HERE, "out", "ledger.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(ledger, fh, indent=1)
        fh.write("\n")
    print(f"\nledger written to {out}; "
          f"{'all checks passed' if all_correct else 'CORRECTNESS CHECKS FAILED'}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(metrics.WORKLOADS),
                    help="run this one workload once (omit for the ledger)")
    ap.add_argument("--seed", type=int, default=0,
                    help="reaches only the input generators")
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                    help="nominal size: every op count scales with it")
    ap.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                    choices=(0, 1), help="also run with the span wrappers")
    ap.add_argument("--reps", type=int, default=3, help="ledger repetitions")
    ap.add_argument("--quick", action="store_true",
                    help="ledger smoke: 1 repetition at one-tenth size")
    ap.add_argument("--out", help="ledger file")
    ap.add_argument("--record-witness", action="store_true",
                    help="store this run's witness in witnesses.json")
    ap.add_argument("--write-manifest", action="store_true",
                    help="regenerate BENCHMARK.json from metrics.py and exit")
    args = ap.parse_args(argv)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(metrics.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    try:
        return driver_run(args) if args.workload else ledger_run(args)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
