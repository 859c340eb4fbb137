"""Cross-commit behaviour pin: hashes computed once, held constant.

Every other tier-1 determinism test compares two runs of the *same*
commit; nothing else notices a change that alters behaviour identically in
both. These constants were computed at the commit *before* the replica-core
/ cell-runner refactor and must survive every behaviour-preserving change
after it. A legitimate behaviour change re-pins them in the same commit
and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.chaos import attack_sweep, chaos_sweep
from repro.workloads.load import run_pipeline_load

ORDER_HASH = {
    "minbft": "9262806c7accdc3d177884864d7a5b3b86293bc8f7dcbfe2171b5bb3bbcbbcc1",
    "pbft": "37e943d9511031f5dfc9e9c8d60ddc91308a0f46e90d1cf13c7dd0df5a7c67e6",
}
CHAOS_STATS_HASH = (
    "137fc73b5e7ec4717e60a4471dc87bdb695fba9c64ebce1a86d135adc7d921b2"
)


@pytest.mark.parametrize("protocol", sorted(ORDER_HASH))
def test_pipeline_load_order_hash_is_pinned(protocol):
    result = run_pipeline_load(protocol, n_requests=400, rate=20.0, seed=3)
    assert result.order_hash == ORDER_HASH[protocol]


def test_chaos_and_attack_cell_stats_are_pinned():
    cells = chaos_sweep(
        ("srb-uni", "minbft", "minbft-pipelined", "pbft", "service"),
        seeds=range(2),
    ) + attack_sweep(seeds=range(1))
    assert len(cells) == 21 and all(r.ok for r in cells)
    blob = json.dumps(
        [(r.protocol, r.seed, r.ok, r.stats) for r in cells],
        sort_keys=True, default=repr,
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == CHAOS_STATS_HASH
