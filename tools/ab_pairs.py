#!/usr/bin/env python3
"""Parent-vs-change measurement in interleaved pairs.

    tools/ab_pairs.py <parent-checkout> <change-checkout> \\
        --workload W [W ...] | all  --pairs N [--seed S] [--claim METRIC:WORKLOAD]

Runs the ``BENCHMARK.json`` command (read from the change checkout) once in
each checkout per pair, alternating which side goes first so a slow minute
on the box lands on both sides, and prints for every end-to-end metric: each
side's median, the change relative to the parent, how many pairs the change
won (ties count for neither), and the parent's own interquartile spread.
Several workloads (``all``: every one ``BENCHMARK.json`` declares) run one
after the other and the output ends with one table, a row per workload and
metric: the "no workload worse" evidence of a PR is one command.
Against the bound ``BENCHMARK.json`` fixes for the metric the verdict is
``worse`` (change's median worse than the parent's by more than the bound),
``unresolved`` (the parent's spread is itself wider than the bound, so the
runs cannot tell) or ``within``. A gain may be claimed only with >= 10
pairs, >= 9/10 of them won, and medians further apart than the parent's
spread (``gain?`` says whether this table would support one).
``--claim ops_per_s:pbft_load`` turns the table into a verdict: the exit
status is non-zero unless that row reads ``gain? yes`` and no row of any
workload reads ``worse`` (without it only failed operations and failed
checks set the exit status).

Every run's raw values are printed too, so a report can list them all, each
with the 1-minute load average (``os.getloadavg()[0]``) the box showed when
the run started. A pair is marked ``noisy`` when either side started above
``BUSY_LOAD`` and the summary lists the noisy pairs: on a 2-CPU box a
co-tenant moves the calibrated ``setup_s`` of an untouched builder by tens
of percent, so a verdict resting on noisy pairs is to be re-run, not
reported.

Each workload's block also shows the ``witness …`` line the benchmark prints
(``same as committed``, ``BEHAVIOUR CHANGED …``) once per side. If any run
of the change prints another note than the parent's first run, the workload
is marked ``BEHAVIOUR DIFFERS`` and the exit status is non-zero: "no
behaviour change" is part of the same command as the speed verdict.

Nothing is imported from either checkout; the benchmark's stdout is the only
interface: its last line (``{"correct", "attempted", "failed", "metrics"}``)
and the ``witness …`` line before it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
from pathlib import Path

#: A run that starts with the 1-minute load average above this shared the
#: box. The ledger flags a run that starts above 1.0 — from a cold start. Here
#: runs follow each other, and the one pinned benchmark child of the previous
#: run alone holds the average at 0.95-1.08 on an otherwise idle box, so the
#: same rule is 1.0 of our own plus a quarter of a CPU of somebody else's.
BUSY_LOAD = 1.25


def run_once(checkout: Path, manifest: dict, workload: str, seed: int) -> dict:
    cmd = [
        *manifest["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(
        cmd, cwd=checkout, capture_output=True, text=True, check=True
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["witness"] = next(
        (line for line in lines if line.startswith("witness ")), None
    )
    return result


def spread(values: list[float]) -> float:
    """Distance between the quartiles (0 with fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(metric: dict, parent: list[float],
              change: list[float]) -> tuple[str, str, bool]:
    """One table row, its verdict against the bound, and whether the row
    would support a claimed gain."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (c_med - p_med)  # > 0: the change is better
    rel = gain / p_med if p_med else 0.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    iqr = spread(parent)
    rel_iqr = iqr / p_med if p_med else 0.0
    if rel < -metric["bound"]:
        verdict = "worse"
    elif rel_iqr > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "within"
    pairs = len(parent)
    claimable = pairs >= 10 and wins >= 0.9 * pairs and gain > iqr
    return (
        f"{metric['name']:<12} parent {p_med:>12.6g}  change {c_med:>12.6g} "
        f"{metric['unit']:<4} {rel:+7.1%}  wins {wins}/{pairs} "
        f"(losses {losses})  parent IQR {iqr:.4g} ({rel_iqr:.1%})  "
        f"bound {metric['bound']:.0%}  {verdict}  gain? {'yes' if claimable else 'no'}"
    ), verdict, claimable


def measure(sides: dict[str, Path], manifest: dict, workload: str,
            pairs: int, seed: int) -> tuple[dict[str, tuple], bool, bool]:
    """Run one workload's pairs; its :func:`summarize` rows by metric name,
    whether the change failed more operations, or any check, than the parent,
    and whether a run of the change printed another witness note."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    noisy: list[int] = []
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            load = os.getloadavg()[0]
            busy = load > BUSY_LOAD
            if busy and pair not in noisy:
                noisy.append(pair)
            result = run_once(sides[side], manifest, workload, seed)
            runs[side].append(result)
            values = "  ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()
            )
            print(f"{workload} pair {pair:>2} {side:<6} load={load:.2f}"
                  f"{' noisy' if busy else ''} "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {values}",
                  flush=True)

    print(f"\n{workload} seed {seed}: {pairs} interleaved pairs "
          "(percentages: change relative to parent, + is better)")
    rows = {}
    for metric in manifest["end_to_end"]:
        series = {
            side: [r["metrics"][metric["name"]]["value"] for r in results]
            for side, results in runs.items()
        }
        row = summarize(metric, series["parent"], series["change"])
        rows[metric["name"]] = row
        print(row[0])
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    incorrect = {
        side: sum(1 for r in rs if not r["correct"]) for side, rs in runs.items()
    }
    print(f"failed operations: parent {failed['parent']}, change {failed['change']}; "
          f"runs with a failed check: parent {incorrect['parent']}, "
          f"change {incorrect['change']}")
    notes = {side: [r.get("witness") for r in rs] for side, rs in runs.items()}
    for side, side_notes in notes.items():
        for note in dict.fromkeys(side_notes):  # each distinct note once
            print(f"{side:<6} {note or 'no witness line'}")
    differs = any(note != notes["parent"][0] for note in notes["change"])
    if differs:
        print(f"{workload}: BEHAVIOUR DIFFERS between parent and change")
    print(f"noisy pairs (a side started with load > {BUSY_LOAD:g}): "
          f"{', '.join(map(str, noisy)) if noisy else 'none'}"
          f"{' - re-run on an idle box before reporting' if noisy else ''}\n",
          flush=True)
    worse = failed["change"] > failed["parent"] or bool(incorrect["change"])
    return rows, worse, differs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, nargs="+",
                    help="one or more BENCHMARK.json workload names, or 'all'")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--claim", metavar="METRIC:WORKLOAD",
                    help="exit non-zero unless this row reads 'gain? yes' "
                         "and no row reads 'worse'")
    args = ap.parse_args(argv)

    manifest = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload
    if workloads == ["all"]:
        workloads = [w["name"] for w in manifest["workloads"]]
    claim = tuple(args.claim.split(":")) if args.claim else None
    if claim is not None and not (
        len(claim) == 2 and claim[1] in workloads
        and claim[0] in [m["name"] for m in manifest["end_to_end"]]
    ):
        ap.error(f"--claim {args.claim}: not an end-to-end metric of a "
                 "workload this command runs")
    sides = {"parent": args.parent, "change": args.change}
    table: dict[tuple[str, str], tuple] = {}
    bad = False
    differ = []
    for workload in workloads:
        rows, worse, differs = measure(
            sides, manifest, workload, args.pairs, args.seed)
        table.update({(name, workload): row for name, row in rows.items()})
        bad = bad or worse or differs
        if differs:
            differ.append(workload)
    if len(workloads) > 1:
        print(f"summary, seed {args.seed}, {args.pairs} pairs per workload:")
        print("\n".join(f"{workload:<16} {text}"
                        for (_, workload), (text, _, _) in table.items()))
    print("witness notes: " + (f"BEHAVIOUR DIFFERS on {', '.join(differ)}"
                               if differ else "same on both sides"))
    if claim is not None:
        worse_rows = [f"{name}:{workload}" for (name, workload), row
                      in table.items() if row[1] == "worse"]
        met = table[claim][2] and not worse_rows
        print(f"claim {args.claim}: {'met' if met else 'NOT MET'} "
              f"(gain? {'yes' if table[claim][2] else 'no'}; "
              f"worse: {', '.join(worse_rows) or 'none'})")
        bad = bad or not met
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
