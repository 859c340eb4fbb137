"""``tools/ab_pairs.py --claim``: a PR's evidence is one command with a verdict."""

from __future__ import annotations

import importlib.util
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def _run(monkeypatch, tmp_path, ops_per_s, argv, witness=None):
    """``main(argv)`` with the benchmark replaced by ``ops_per_s[workload][side]``,
    a per-run jitter on top so the parent has a spread to clear, and the
    witness line by ``witness[side]`` (none printed without it)."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    jitter = itertools.cycle([0.0, 1.0, 2.0])

    def run_once(checkout, manifest, workload, seed):
        side = "parent" if checkout.name == "parent" else "change"
        value = {"setup_s": 1.0, "peak_rss_mb": 100.0,
                 "ops_per_s": ops_per_s[workload][side] + next(jitter)}
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {k: {"value": v} for k, v in value.items()},
                "witness": (witness or {}).get(side)}

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


SAME = "witness pbft_load/0/10: same as committed"
CHANGED = "witness pbft_load/0/10: BEHAVIOUR CHANGED - committed {} now {}"


def test_witness_note_shown_once_per_side(monkeypatch, tmp_path, capsys):
    argv = ["--workload", "pbft_load", "--pairs", "10", "--claim", "ops_per_s:pbft_load"]
    assert _run(monkeypatch, tmp_path, FASTER, argv,
                witness={"parent": SAME, "change": SAME}) == 0
    out = capsys.readouterr().out
    assert out.count(f"parent {SAME}") == out.count(f"change {SAME}") == 1
    assert "witness notes: same on both sides" in out


def test_a_witness_note_that_differs_fails_the_run(monkeypatch, tmp_path, capsys):
    for argv in (ARGS, [*ARGS, "--claim", "ops_per_s:pbft_load"]):
        assert _run(monkeypatch, tmp_path, FASTER, argv,
                    witness={"parent": SAME, "change": CHANGED}) == 1
        out = capsys.readouterr().out
        assert "pbft_load: BEHAVIOUR DIFFERS between parent and change" in out
        assert "witness notes: BEHAVIOUR DIFFERS on pbft_load, minbft_load" in out


def test_run_once_reads_the_witness_line(monkeypatch, tmp_path):
    stdout = f"cell size\n{SAME}\n" + json.dumps({"correct": True, "metrics": {}})

    monkeypatch.setattr(ab_pairs.subprocess, "run",
                        lambda *a, **k: SimpleNamespace(stdout=stdout))
    manifest = {"command": ["true"], "run_seconds": 1}
    result = ab_pairs.run_once(tmp_path, manifest, "pbft_load", 0)
    assert result["witness"] == SAME and result["correct"] is True


def test_manifest_metrics_are_the_ones_faked_here():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in manifest["end_to_end"]] == [
        "setup_s", "ops_per_s", "peak_rss_mb"]
