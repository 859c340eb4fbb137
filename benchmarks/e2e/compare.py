"""Compare two ledgers written by ``run.py``: ``compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate. Per workload and end-to-end metric it
prints both medians with min/max and n, the ratio B/A with its base, and a
verdict:

``better`` / ``within`` / ``worse``
    B's median against A's, by the bound ``metrics.py`` fixes for the metric
    (``setup_s`` also gets 0.05 s absolute). Simulated-clock metrics and
    ``fail_ratio`` are exact per seed: their bound is 0.
``unresolved``
    the spread of either side (max - min over its median) is wider than the
    bound, or a side has a single repetition, so the bound cannot be judged.

The behaviour witness is reported as equal or not. The exit code is non-zero
on any ``worse`` or on a raised ``fail_ratio``; this is the tool for the
same-code agreement check and for every later before/after.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402


def verdict(name: str, a: dict, b: dict) -> str:
    """``a``/``b``: ``{"median", "min", "max", "n"}`` of base and candidate."""
    bound = metrics.BOUNDS[name]
    base, cand = a["median"], b["median"]
    worse_by = cand - base if metrics.BETTER[name] == "lower" else base - cand
    allowed = bound * abs(base)
    if name == "setup_s":
        allowed = max(allowed, metrics.SETUP_ABS_FLOOR_S)
    if bound > 0:  # host clock: the bound means nothing without a spread
        if min(a["n"], b["n"]) < 2:
            return "unresolved"
        if max(s["max"] - s["min"] for s in (a, b)) > allowed:
            return "unresolved"
    if worse_by > allowed:
        return "worse"
    if -worse_by > allowed:
        return "better"
    return "within"


def exact_summary(value: float) -> dict:
    return {"median": value, "min": value, "max": value, "n": 1}


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print the table; returns the number of regressions."""
    regressions = 0
    for side, ledger in (("A", a), ("B", b)):
        env = ledger["env"]
        print(f"{side}: commit {env['commit']} seed {ledger['seed']} "
              f"seconds {ledger['seconds']:g} reps {ledger['reps']} "
              f"python {env['python']} nproc {env['nproc']} "
              f"load {env['load_1min']}{' NOISY' if env['noisy'] else ''}",
              file=out)
    if (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
        print("NOTE: different seed or size: exact metrics and witnesses "
              "are not comparable", file=out)
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            print(f"\n{name}: missing from B", file=out)
            regressions += 1
            continue
        same = wa["witness"] == wb["witness"]
        print(f"\n{name}: witness {'equal' if same else 'DIFFERS'}", file=out)
        rows = [(m, wa["end_to_end"][m], wb["end_to_end"][m])
                for m, *_ in metrics.END_TO_END]
        rows += [(m, exact_summary(wa["exact"][m]), exact_summary(wb["exact"][m]))
                 for m, *_ in metrics.EXACT]
        for metric, sa, sb in rows:
            v = verdict(metric, sa, sb)
            if v == "worse" or (
                    metric == "fail_ratio" and sb["median"] > sa["median"]):
                regressions += 1
                v = "worse"
            ratio = (f"{sb['median'] / sa['median']:.4f}x of {sa['median']:.6g}"
                     if sa["median"] else "base is 0")
            print(f"  {metric:24s} A {sa['median']:12.6g} "
                  f"[{sa['min']:.6g}..{sa['max']:.6g}] n={sa['n']}  "
                  f"B {sb['median']:12.6g} [{sb['min']:.6g}..{sb['max']:.6g}] "
                  f"n={sb['n']}  {ratio:32s} {metrics.UNITS[metric]:8s} {v}",
                  file=out)
    print(f"\n{regressions} regression(s)", file=out)
    return regressions


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path) as fh:
            ledgers.append(json.load(fh))
    return 1 if compare(*ledgers) else 0


if __name__ == "__main__":
    sys.exit(main())
