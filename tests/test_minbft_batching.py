"""Tests for MinBFT request batching, windowing, and their interaction."""

from __future__ import annotations

import pytest

from repro.consensus import build_minbft_system, check_replication
from repro.consensus.minbft import MinBFTReplica
from repro.consensus.replica import proposal_requests


def with_batching(**extra):
    def factory(pid, **kwargs):
        return MinBFTReplica(batching=True, **extra, **kwargs)
    return factory


class TestProposalHelpers:
    def test_single_request_passthrough(self):
        req = ("REQUEST", 5, 1, ("add", 1), "sig")
        assert proposal_requests(req) == [req]

    def test_batch_unpacks(self):
        r1 = ("REQUEST", 5, 1, ("add", 1), "sig")
        r2 = ("REQUEST", 6, 1, ("add", 2), "sig")
        assert proposal_requests(("BATCH", r1, r2)) == [r1, r2]


class TestBatching:
    def test_multi_client_batched_run(self):
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=4, ops_per_client=4, seed=1,
            replica_factory=with_batching(),
        )
        sim.run(until=8000.0)
        n = len(reps)
        rep = check_replication(
            sim.trace, range(n),
            expected_ops={n + c: 4 for c in range(4)},
        )
        rep.assert_ok()
        assert all(r.commits_executed == 16 for r in reps)

    def test_batching_uses_fewer_slots(self):
        def run(batching):
            factory = with_batching() if batching else None
            sim, reps, clients = build_minbft_system(
                f=1, n_clients=4, ops_per_client=3, seed=2,
                replica_factory=factory,
            )
            sim.run(until=8000.0)
            n = len(reps)
            check_replication(
                sim.trace, range(n),
                expected_ops={n + c: 3 for c in range(4)},
            ).assert_ok()
            return max(r.exec_next - 1 for r in reps), sim.network.messages_sent

        slots_b, msgs_b = run(True)
        slots_u, msgs_u = run(False)
        assert slots_b < slots_u
        assert msgs_b < msgs_u

    def test_batched_primary_crash_failover(self):
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=2, ops_per_client=4, seed=3,
            replica_factory=with_batching(checkpoint_interval=2),
            req_timeout=20.0, retry_timeout=60.0,
        )
        sim.crash_at(0, 1.0)
        sim.run(until=12000.0)
        n = len(reps)
        rep = check_replication(
            sim.trace, [1, 2], expected_ops={n: 4, n + 1: 4}
        )
        rep.assert_ok()
        assert reps[1].app.digest() == reps[2].app.digest()

    def test_batched_and_unbatched_states_agree(self):
        """Both modes produce the same final app state for a fixed workload."""
        digests = []
        for batching in (False, True):
            factory = with_batching() if batching else None
            sim, reps, clients = build_minbft_system(
                f=1, n_clients=2, ops_per_client=5, app="bank", seed=4,
                replica_factory=factory,
            )
            sim.run(until=8000.0)
            n = len(reps)
            check_replication(
                sim.trace, range(n),
                expected_ops={n: 5, n + 1: 5},
            ).assert_ok()
            digests.append(reps[0].app.digest())
        assert digests[0] == digests[1]


class TestWindowing:
    def test_window_stall_and_resume(self):
        """Proposals stall at the window edge and resume on execution
        progress; a batch deadline firing against a full window re-queues
        the requests instead of dropping them."""
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=4, ops_per_client=6, seed=21,
            replica_factory=with_batching(
                window_size=1, batch_policy="adaptive"
            ),
            client_options=dict(max_outstanding=4),
        )
        sim.run(until=8000.0)
        n = len(reps)
        check_replication(
            sim.trace, range(n),
            expected_ops={n + c: 6 for c in range(4)},
        ).assert_ok()
        primary = reps[0]
        assert primary.proposal_stalls > 0
        assert not primary._batch_stalled  # drained at quiescence, not wedged
        assert all(r.commits_executed == 24 for r in reps)

    def test_window_smaller_than_checkpoint_interval(self):
        """The window base anchors on the execution frontier as well as the
        stable checkpoint, so ``window < checkpoint_interval`` cannot
        deadlock (classic checkpoint-anchored watermarks require the
        opposite inequality)."""
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=2, ops_per_client=8, seed=22,
            replica_factory=with_batching(
                window_size=2, checkpoint_interval=6, batch_policy="adaptive"
            ),
            client_options=dict(max_outstanding=4),
        )
        sim.run(until=8000.0)
        n = len(reps)
        check_replication(
            sim.trace, range(n),
            expected_ops={n: 8, n + 1: 8},
        ).assert_ok()
        assert all(r.commits_executed == 16 for r in reps)

    def test_batch_spanning_view_change(self):
        """Batch slots proposed by the old primary but not yet executed are
        carried through the view change and execute exactly once."""
        sim, reps, clients = build_minbft_system(
            f=1, n_clients=3, ops_per_client=5, app="bank", seed=23,
            replica_factory=with_batching(
                window_size=8, checkpoint_interval=4, batch_policy="adaptive"
            ),
            client_options=dict(max_outstanding=2),
            req_timeout=20.0, retry_timeout=60.0,
        )
        # crash with the first batches on the wire and the rest of the
        # workload still unreleased: already-proposed slots commit on the
        # backups' f+1 quorum, everything after must cross the view change
        sim.crash_at(0, 0.6)
        sim.run(until=12000.0)
        n = len(reps)
        check_replication(
            sim.trace, [1, 2],
            expected_ops={n + c: 5 for c in range(3)},
        ).assert_ok()
        assert reps[1].view >= 1
        assert reps[1].app.digest() == reps[2].app.digest()
