"""Tests for the Byzantine behavior library."""

from __future__ import annotations

from repro.sim import (
    BabblerProcess,
    ByzantineWrapper,
    Process,
    Simulation,
    drop_to,
    equivocate_by_destination,
    mutate_kind,
)
from repro.types import Message


class Collector(Process):
    def __init__(self):
        super().__init__()
        self.got = []

    def on_message(self, src, msg):
        self.got.append((src, msg))


class Announcer(Process):
    """The 'correct protocol' being wrapped: broadcasts one VALUE message."""

    def on_start(self):
        self.ctx.broadcast(("VALUE", "truth"), include_self=False)


class TestStandaloneByzantine:
    def test_silent_sends_nothing(self):
        from repro.sim import SilentProcess

        c = Collector()
        sim = Simulation([SilentProcess(), c], seed=0)
        sim.run_to_quiescence()
        assert c.got == []

    def test_babbler_sends_junk(self):
        c0, c1 = Collector(), Collector()
        sim = Simulation([BabblerProcess(rounds=3, fanout=2), c0, c1], seed=1)
        sim.run(until=100.0)
        junk = c0.got + c1.got
        assert junk and all(m[1][0] == "JUNK" for m in junk)


class TestWrapper:
    def _run(self, filt, n=3, seed=2):
        collectors = [Collector() for _ in range(n - 1)]
        wrapped = ByzantineWrapper(Announcer(), filt)
        sim = Simulation([wrapped, *collectors], seed=seed)
        sim.declare_byzantine(0)
        sim.run_to_quiescence()
        return collectors

    def test_drop_to_selective_silence(self):
        c1, c2 = self._run(drop_to(1))
        assert c1.got == []
        assert c2.got == [(0, ("VALUE", "truth"))]

    def test_mutate_kind(self):
        c1, c2 = self._run(mutate_kind("VALUE", lambda body: ("lie",)))
        assert c1.got == [(0, ("VALUE", "lie"))]
        assert c2.got == [(0, ("VALUE", "lie"))]

    def test_mutate_other_kinds_untouched(self):
        c1, c2 = self._run(mutate_kind("OTHER", lambda body: ("lie",)))
        assert c1.got == [(0, ("VALUE", "truth"))]

    def test_equivocate_by_destination(self):
        filt = equivocate_by_destination(
            "VALUE", lambda dst, body: (f"for-{dst}",)
        )
        c1, c2 = self._run(filt)
        assert c1.got == [(0, ("VALUE", "for-1"))]
        assert c2.got == [(0, ("VALUE", "for-2"))]

    def test_wrapper_forwards_inbound_events(self):
        class EchoInner(Process):
            def on_message(self, src, msg):
                self.ctx.send(src, ("ECHO", msg))

        class Prober(Process):
            def __init__(self):
                super().__init__()
                self.got = []

            def on_start(self):
                self.ctx.send(0, ("PING",))

            def on_message(self, src, msg):
                self.got.append(msg)

        wrapped = ByzantineWrapper(EchoInner(), lambda s, d, m: m)
        prober = Prober()
        sim = Simulation([wrapped, prober], seed=3)
        sim.run_to_quiescence()
        assert prober.got == [("ECHO", ("PING",))]

    def test_message_dataclass_equivocation(self):
        class MsgAnnouncer(Process):
            def on_start(self):
                self.ctx.broadcast(Message("VALUE", "v"), include_self=False)

        filt = equivocate_by_destination("VALUE", lambda dst, body: f"{body}-{dst}")
        collectors = [Collector(), Collector()]
        wrapped = ByzantineWrapper(MsgAnnouncer(), filt)
        sim = Simulation([wrapped, *collectors], seed=4)
        sim.run_to_quiescence()
        assert collectors[0].got == [(0, Message("VALUE", "v-1"))]
        assert collectors[1].got == [(0, Message("VALUE", "v-2"))]


class TestHostedStats:
    def test_wrapper_behind_channel_still_counts_in_consensus_stats(self):
        """A plain wrapper hosted in a reliable channel is two interposers
        deep; the merged pipeline counters must still reach its replica."""
        from repro.consensus import build_minbft_system
        from repro.faults.chaos import DEFAULT_CHANNEL
        from repro.sim import bare

        sim, replicas, _ = build_minbft_system(
            f=1, n_clients=1, ops_per_client=3, seed=0,
            reliable=dict(DEFAULT_CHANNEL),
            replica_wrapper=lambda pid, r: (
                ByzantineWrapper(r, lambda s, d, m: m) if pid == 1 else r
            ),
        )
        sim.run(until=300.0)
        assert bare(sim.process(1)) is replicas[1]
        own = sum(r.consensus_stats()["commits_executed"] for r in replicas)
        assert own == 9
        assert sim.collect_consensus_stats()["commits_executed"] == own


class TestForgedTagsOnTheWire:
    def test_replica_sending_str_tags_is_rejected_not_fatal(self):
        """A Byzantine MinBFT replica rewrites the tag of every UI it sends
        to a ``str``: correct replicas count each as malformed, and the run
        goes on to serve every client (a tag check that raised on the
        non-bytes tag used to end the run)."""
        from dataclasses import replace

        from repro.consensus import ReplicationStreamChecker, build_minbft_system
        from repro.consensus.minbft import USIG_WRAP

        def str_tag(body):
            message, ui = body
            att = replace(ui.attestation, tag=ui.attestation.tag.hex())
            return message, replace(ui, attestation=att)

        checker = ReplicationStreamChecker([0, 1])
        sim, replicas, clients = build_minbft_system(
            f=1, n_clients=2, ops_per_client=3, seed=0, observers=[checker],
            replica_wrapper=lambda pid, r: (
                ByzantineWrapper(r, mutate_kind(USIG_WRAP, str_tag))
                if pid == 2 else r
            ),
        )
        sim.declare_byzantine(2)
        sim.run_to_quiescence()
        assert [len(c.results) for c in clients] == [3, 3]
        checker.finish(expected_ops={c.pid: 3 for c in clients}).assert_ok()
        assert all(replicas[pid].malformed_rejects > 0 for pid in (0, 1))
