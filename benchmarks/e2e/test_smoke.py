"""Smoke test of the end-to-end ledger: ``python -m pytest benchmarks/e2e -q``.

Not part of tier-1 (``testpaths = ["tests"]``): it spawns two quick ledgers
(one repetition at a tenth of the size, traced) and takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
        timeout=600)


@pytest.fixture(scope="module")
def quick_ledgers(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    ledgers = []
    for i in (1, 2):
        path = str(out / f"quick{i}.json")
        proc = run(os.path.join(HERE, "run.py"), "--quick", "--trace",
                   "--out", path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(path) as fh:
            ledgers.append((path, json.load(fh), proc.stdout))
    return ledgers


def test_manifest_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert manifest == metrics.manifest()
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in manifest["end_to_end"] + manifest["per_layer"])
    assert len(manifest["per_layer"]) <= 128
    assert "setup_s" in {m["name"] for m in manifest["end_to_end"]}


def test_every_declared_metric_is_printed_with_its_unit(quick_ledgers):
    _path, ledger, stdout = quick_ledgers[0]
    assert list(ledger["workloads"]) == list(metrics.WORKLOADS)
    for name, unit in metrics.UNITS.items():
        assert NAME.match(name) and UNIT.match(unit)
        printed = re.findall(
            rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(?:\s|$)",
            stdout, flags=re.M)
        assert len(printed) == len(metrics.WORKLOADS), name


def test_two_quick_runs_agree_exactly_and_compare_clean(quick_ledgers):
    (path1, one, _), (path2, two, _) = quick_ledgers
    host_clock = {n for n, unit in metrics.UNITS.items()
                  if unit in ("s", "1/s", "MiB") or n.startswith("bench.")}
    for name in metrics.WORKLOADS:
        a, b = one["workloads"][name], two["workloads"][name]
        assert a["correct"] and b["correct"]
        assert a["witness"] == b["witness"]
        assert a["exact"] == b["exact"]
        for metric in a["per_layer"]:
            if metric not in host_clock:
                assert a["per_layer"][metric] == b["per_layer"][metric], metric
    proc = run(os.path.join(HERE, "compare.py"), path1, path2)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_driver_form_prints_one_result_object():
    for trace, declared in (("0", metrics.END_TO_END), ("1", metrics.PER_LAYER)):
        proc = run(os.path.join(HERE, "run.py"), "--workload", "uni_sm_rounds",
                   "--seed", "3", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m[0] for m in declared}
