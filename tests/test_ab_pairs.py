"""``tools/ab_pairs.py --claim``: a PR's evidence is one command with a verdict."""

from __future__ import annotations

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def _run(monkeypatch, tmp_path, ops_per_s, argv):
    """``main(argv)`` with the benchmark replaced by ``ops_per_s[workload][side]``,
    a per-run jitter on top so the parent has a spread to clear."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    jitter = itertools.cycle([0.0, 1.0, 2.0])

    def run_once(checkout, manifest, workload, seed):
        side = "parent" if checkout.name == "parent" else "change"
        value = {"setup_s": 1.0, "peak_rss_mb": 100.0,
                 "ops_per_s": ops_per_s[workload][side] + next(jitter)}
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {k: {"value": v} for k, v in value.items()}}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    return ab_pairs.main([str(tmp_path / "parent"), str(tmp_path), *argv])


FASTER = {"pbft_load": {"parent": 800.0, "change": 900.0},
          "minbft_load": {"parent": 1500.0, "change": 1500.0}}
COLLATERAL = {"pbft_load": {"parent": 800.0, "change": 900.0},
              "minbft_load": {"parent": 1500.0, "change": 1000.0}}
ARGS = ["--workload", "pbft_load", "minbft_load", "--pairs", "10"]


def test_claim_met_exits_zero(monkeypatch, tmp_path, capsys):
    assert _run(monkeypatch, tmp_path, FASTER,
                [*ARGS, "--claim", "ops_per_s:pbft_load"]) == 0
    assert "claim ops_per_s:pbft_load: met" in capsys.readouterr().out


def test_claim_on_a_row_without_a_gain_exits_nonzero(monkeypatch, tmp_path, capsys):
    assert _run(monkeypatch, tmp_path, FASTER,
                [*ARGS, "--claim", "ops_per_s:minbft_load"]) == 1
    assert "NOT MET (gain? no; worse: none)" in capsys.readouterr().out
    # ... and too few pairs support no claim however large the gap
    assert _run(monkeypatch, tmp_path, FASTER, [
        "--workload", "pbft_load", "--pairs", "9", "--claim", "ops_per_s:pbft_load",
    ]) == 1


def test_a_worse_row_anywhere_fails_the_claim(monkeypatch, tmp_path, capsys):
    assert _run(monkeypatch, tmp_path, COLLATERAL,
                [*ARGS, "--claim", "ops_per_s:pbft_load"]) == 1
    assert "worse: ops_per_s:minbft_load" in capsys.readouterr().out
    # without --claim the exit status is about failed operations only
    assert _run(monkeypatch, tmp_path, COLLATERAL, ARGS) == 0


def test_claim_must_name_a_row_of_this_run(monkeypatch, tmp_path):
    for claim in ("ops_per_s:srb_sm_burst", "wall_s:pbft_load", "ops_per_s"):
        with pytest.raises(SystemExit):
            _run(monkeypatch, tmp_path, FASTER, [*ARGS, "--claim", claim])


def test_manifest_metrics_are_the_ones_faked_here():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in manifest["end_to_end"]] == [
        "setup_s", "ops_per_s", "peak_rss_mb"]
