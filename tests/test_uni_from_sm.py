"""Tests for §3.2 over every shared-memory primitive (SWMR/PEATS/sticky)."""

from __future__ import annotations

import pytest

from repro.core.directionality import (
    ZERO_DIRECTIONAL,
    DirectionalityStreamChecker,
    check_directionality,
)
from repro.core.rounds import (
    MessagePassingRoundTransport,
    RoundProcess,
    SharedMemoryRoundTransport,
)
from repro.core.uni_from_sm import (
    ALL_SM_TRANSPORTS,
    History,
    PEATSRoundTransport,
    StickyChainRoundTransport,
    SWMRRoundTransport,
    build_objects_for,
)
from repro.errors import ConfigurationError
from repro.sim import Process, ReliableAsynchronous, Simulation
from repro.workloads.load import OrderHasher

TRANSPORT_NAMES = sorted(ALL_SM_TRANSPORTS)


class Chat(RoundProcess):
    def __init__(self, transport, nrounds=2):
        super().__init__(transport)
        self.nrounds = nrounds

    def on_round_start(self):
        self.rounds.begin_round(("m", self.pid, 1), label=("r", 1))

    def on_round_complete(self, label):
        r = label[1]
        if r < self.nrounds:
            self.rounds.begin_round(("m", self.pid, r + 1), label=("r", r + 1))


def run(name, n=4, seed=0, nrounds=2, min_d=0.01, max_d=1.5, until=300.0):
    cls = ALL_SM_TRANSPORTS[name]
    procs = [Chat(cls(), nrounds) for _ in range(n)]
    sim = Simulation(procs, ReliableAsynchronous(min_d, max_d), seed=seed)
    for obj in build_objects_for(name, n):
        sim.memory.register(obj)
    sim.run(until=until)
    return sim, procs


class TestUnidirectionality:
    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    def test_transport_is_unidirectional(self, name):
        sim, procs = run(name, seed=1)
        rep = check_directionality(sim.trace, range(4))
        assert rep.is_unidirectional
        assert rep.pairs_checked > 0
        assert len(sim.trace.events("round_end")) == 4 * 2

    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_adversarial_op_interleavings(self, name, seed):
        """Wide delay ranges produce wild interleavings; the guarantee must hold."""
        sim, procs = run(name, seed=seed, min_d=0.0, max_d=5.0, until=600.0)
        rep = check_directionality(sim.trace, range(4))
        rep.assert_unidirectional()

    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    def test_crashed_process_excluded(self, name):
        cls = ALL_SM_TRANSPORTS[name]
        procs = [Chat(cls(), 1) for _ in range(4)]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 1.0), seed=5)
        for obj in build_objects_for(name, 4):
            sim.memory.register(obj)
        sim.crash_at(3, 0.2)
        sim.run(until=300.0)
        rep = check_directionality(sim.trace, [0, 1, 2])
        assert rep.is_unidirectional
        # the survivors still finish their rounds (reads don't block on 3)
        ends = {e.pid for e in sim.trace.events("round_end")}
        assert {0, 1, 2} <= ends


class Window(RoundProcess):
    """Keeps ``width`` labelled rounds in flight until ``nrounds`` are done."""

    def __init__(self, transport, nrounds=12, width=3):
        super().__init__(transport)
        self.nrounds = nrounds
        self.width = width
        self.peak = 0

    def _begin(self, r):
        self.rounds.begin_round(("m", self.pid, r), label=("r", r))
        self.peak = max(self.peak, len(self.rounds.active_labels))

    def on_round_start(self):
        for r in range(1, self.width + 1):
            self._begin(r)

    def on_round_complete(self, label):
        if label[1] + self.width <= self.nrounds:
            self._begin(label[1] + self.width)


class _SlowLink(ReliableAsynchronous):
    """Messages between processes 0 and 1 take 50 time units."""

    def message_delay(self, src, dst, msg, now):
        if {src, dst} == {0, 1}:
            return 50.0
        return super().message_delay(src, dst, msg, now)


class TestConcurrentRounds:
    """§3.2's claim in the form the per-label engine relies on: the
    write-then-scan argument holds for each label with several rounds of a
    process in flight at once."""

    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    def test_sm_rounds_in_flight_stay_unidirectional(self, name):
        n, nrounds = 4, 12
        for seed in range(20):
            cls = ALL_SM_TRANSPORTS[name]
            procs = [Window(cls(), nrounds) for _ in range(n)]
            checker = DirectionalityStreamChecker(range(n))
            sim = Simulation(procs, ReliableAsynchronous(0.0, 3.0), seed=seed,
                             observers=(checker,))
            for obj in build_objects_for(name, n):
                sim.memory.register(obj)
            sim.run(until=2_000.0)
            rep = checker.finish()
            # unidirectional at least (a lucky trace may look bidirectional)
            assert rep.is_unidirectional, (seed, rep.unidirectional_violations)
            assert rep.rounds_checked == nrounds
            assert len(sim.trace.events("round_end")) == n * nrounds
            assert all(p.peak >= 3 for p in procs)

    def test_sticky_round_waits_for_its_chain_prefix(self):
        """Both processes' first cells land late, their second ones early:
        a scan stops at the unset first cell, so counting round 2 on its own
        cell's landing would end it at both without either's message."""

        class LateFirstCell(ReliableAsynchronous):
            def op_delays(self, pid, object_name, op, now):
                late = op == "write" and object_name.endswith("_0")
                return (10.0 if late else 0.1, 0.1)

        procs = [Window(StickyChainRoundTransport(), 2, width=2) for _ in range(2)]
        checker = DirectionalityStreamChecker(range(2))
        sim = Simulation(procs, LateFirstCell(), seed=0, observers=(checker,))
        for obj in build_objects_for("sticky", 2):
            sim.memory.register(obj)
        sim.run(until=100.0)
        checker.finish().assert_unidirectional()
        ends = sim.trace.events("round_end")
        assert len(ends) == 4 and all(e.time > 10.0 for e in ends)

    def test_mp_rounds_in_flight_stay_zero_directional(self):
        n, nrounds = 3, 6
        procs = [Window(MessagePassingRoundTransport(f=1), nrounds) for _ in range(n)]
        checker = DirectionalityStreamChecker(range(n))
        sim = Simulation(procs, _SlowLink(0.01, 1.0), seed=0, observers=(checker,))
        sim.run(until=40.0)
        assert all(p.peak >= 3 for p in procs)
        assert checker.finish().classify() == ZERO_DIRECTIONAL


_OWN_WRITES = {"append", "write", "out"}


class _SlowOwnWrites(ReliableAsynchronous):
    """Every own publish takes 3 time units to land; a read takes 0.1."""

    def op_delays(self, pid, object_name, op, now):
        return (3.0, 0.5) if op in _OWN_WRITES else (0.1, 0.1)


def _batch(name, args, before):
    """The entries one own publish adds, from its invoke's ``args``;
    ``before`` is how many its owner had published until then."""
    (value,) = args
    if name == "swmr":
        return value.since(before)
    if name == "peats":
        return value[2]
    return value


class TestOneOwnPublishInFlight:
    """Every shared-memory transport keeps at most one own publish
    outstanding, and the entries sent meanwhile ride on the next one."""

    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    def test_each_publish_carries_what_was_held_while_one_was_in_flight(self, name):
        n, nrounds = 3, 8
        procs = [Window(ALL_SM_TRANSPORTS[name](), nrounds) for _ in range(n)]
        sim = Simulation(procs, _SlowOwnWrites(), seed=0)
        for obj in build_objects_for(name, n):
            sim.memory.register(obj)
        sim.run(until=500.0)
        assert len(sim.trace.events("round_end")) == n * nrounds
        for pid in range(n):
            in_flight, held, published = None, [], 0
            for ev in sim.trace:
                if ev.pid != pid:
                    continue
                if ev.kind == "round_sent":
                    held.append((ev.field("round"), ev.field("payload")))
                elif ev.kind == "op_invoke" and ev.field("op") in _OWN_WRITES:
                    assert in_flight is None, (pid, ev.index)
                    in_flight = ev.field("handle")
                    batch = list(_batch(name, ev.field("args"), published))
                    assert batch == held, (pid, ev.index)
                    published += len(batch)
                    held = []
                elif ev.kind == "op_respond" and ev.field("handle") == in_flight:
                    in_flight = None
            assert (in_flight, held, published) == (None, [], nrounds)


class Ticker(RoundProcess):
    """Begins a round every 5 time units until time 60; each payload names
    the incarnation that sent it, so a reborn process's rounds are not
    taken for its earlier ones."""

    def on_round_start(self):
        self._tick()

    def _tick(self):
        self.rounds.begin_round(("m", self.pid, self.ctx.incarnation, self.ctx.now))
        if self.ctx.now < 60.0:
            self.ctx.set_timer(5.0, "tick")

    def on_timer(self, tag):
        if tag == "tick":
            self._tick()
        else:
            super().on_timer(tag)


class TestRestartedProcess:
    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    def test_peers_hear_a_restarted_process(self, name):
        """A reborn process's fresh transport continues its object after
        what the earlier incarnation published there, so its new rounds
        reach every peer and complete."""
        n, cls = 3, ALL_SM_TRANSPORTS[name]
        procs = [Ticker(cls()) for _ in range(n)]
        checker = DirectionalityStreamChecker(range(n))
        sim = Simulation(procs, ReliableAsynchronous(0.01, 1.0), seed=0,
                         observers=(checker,))
        for obj in build_objects_for(name, n):
            sim.memory.register(obj)
        sim.crash_at(2, 20.0)
        sim.restart_at(2, 30.0, factory=lambda: Ticker(cls()))
        sim.run(until=300.0)

        def reborn(ev):
            return ev.field("payload")[2] == 1

        sent = [ev.field("payload") for ev in sim.trace.events("round_sent", pid=2)
                if reborn(ev)]
        assert len(sent) >= 6
        for peer in (0, 1):
            heard = [ev.field("payload")
                     for ev in sim.trace.events("round_recv", pid=peer)
                     if ev.field("src") == 2 and reborn(ev)]
            assert sorted(heard) == sorted(sent), peer
        ends = [ev for ev in sim.trace.events("round_end", pid=2) if ev.time > 30.0]
        assert len(ends) == len(sent)
        assert checker.finish().is_unidirectional


class TestObjectSpecifics:
    def test_swmr_register_carries_history(self):
        sim, procs = run("swmr", nrounds=3, seed=6)
        reg0 = sim.memory.get("swmr0")
        history = reg0.execute(1, "read", ())
        assert len(history) == 3  # all three round entries retained

    def test_peats_single_space(self):
        objs = build_objects_for("peats", 5)
        assert len(objs) == 1

    def test_peats_policy_blocks_spoofing(self):
        from repro.errors import AccessDeniedError

        objs = build_objects_for("peats", 2)
        space = objs[0]
        with pytest.raises(AccessDeniedError):
            space.execute(0, "out", ((1, 1, ("r", 1), "spoof"),))

    def test_peats_scan_delivers_each_entry_once(self):
        """A scan offers only the tuples above what it had seen of their
        owner, not the whole space again."""

        class CountingPEATS(PEATSRoundTransport):
            delivers = 0

            def _deliver(self, label, src, payload):
                self.delivers += 1
                super()._deliver(label, src, payload)

        n, nrounds = 3, 6
        procs = [Window(CountingPEATS(), nrounds) for _ in range(n)]
        sim = Simulation(procs, ReliableAsynchronous(0.0, 3.0), seed=0)
        for obj in build_objects_for("peats", n):
            sim.memory.register(obj)
        sim.run(until=2_000.0)
        published = len(sim.trace.events("round_sent"))
        assert published == n * nrounds
        assert [p.rounds.delivers for p in procs] == [published] * n
        assert min(p.rounds.scans_completed for p in procs) > nrounds

    def test_sticky_capacity_enforced(self):
        t = StickyChainRoundTransport(capacity=1)
        procs = [Chat(t, 1), Chat(StickyChainRoundTransport(capacity=1), 1)]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 0.2), seed=7)
        for obj in StickyChainRoundTransport.build_objects(2, capacity=1):
            sim.memory.register(obj)
        sim.run(until=100.0)
        with pytest.raises(ConfigurationError, match="capacity"):
            procs[0].rounds.post("overflow")

    def test_full_sticky_chains_do_not_stall_the_scan(self):
        """Every chain written to capacity: a scan with nothing left to read
        ends at once, and the transport goes on scanning. Bounded by sim
        time, since a stalled scan never comes to rest."""
        n, nrounds = 5, 20
        procs = [Chat(StickyChainRoundTransport(capacity=nrounds), nrounds)
                 for _ in range(n)]
        sim = Simulation(procs, ReliableAsynchronous(0.0, 3.0), seed=0)
        for obj in StickyChainRoundTransport.build_objects(n, capacity=nrounds):
            sim.memory.register(obj)
        sim.run(until=5_000.0)
        scans = [p.rounds.scans_completed for p in procs]
        for p in procs:
            assert p.rounds.rounds_begun == nrounds and not p.rounds.active_labels
            assert set(p.rounds._seen_lengths.values()) == {nrounds}
            assert not p.rounds._scan_running
        sim.run(until=6_000.0)
        assert all(p.rounds.scans_completed > s for p, s in zip(procs, scans))

    def test_sticky_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            StickyChainRoundTransport(capacity=0)

    def test_unknown_transport_name(self):
        with pytest.raises(ConfigurationError):
            build_objects_for("nope", 3)


class _TupleSWMR(SWMRRoundTransport):
    """The register encoding before :class:`History`: a fresh tuple per write."""

    def _publish(self, batch):
        self._my_history.extend(batch)
        return self.host.ctx.invoke(
            self._log_name(self.host.pid), "write", tuple(self._my_history)
        )


def _run_swmr(cls, n, seed, nrounds=40):
    procs = [Chat(cls(), nrounds) for _ in range(n)]
    hasher = OrderHasher()
    sim = Simulation(procs, ReliableAsynchronous(0.0, 3.0), seed=seed,
                     observers=(hasher,))
    for obj in SWMRRoundTransport.build_objects(n):
        sim.memory.register(obj)
    sim.run(until=2_000.0)
    return sim, hasher


class TestSWMRHistory:
    """The register holds a shared-prefix :class:`History`, not a copy; the
    runs it gives are the runs the tuple encoding gave."""

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("seed", range(5))
    def test_history_encoding_matches_tuple_encoding(self, n, seed):
        sim_t, hash_t = _run_swmr(_TupleSWMR, n, seed)
        sim_h, hash_h = _run_swmr(SWMRRoundTransport, n, seed)
        recv = [
            [(e.pid, e.field("round"), e.field("src"))
             for e in sim.trace.events("round_recv")]
            for sim in (sim_t, sim_h)
        ]
        assert len(sim_h.trace.events("round_end")) == n * 40
        assert hash_h.hexdigest() == hash_t.hexdigest()
        assert recv[1] == recv[0]
        # a History is a value: it equals the tuple it stands for
        assert sim_h.trace.views_equal(sim_t.trace, range(n))

    def test_read_history_is_a_snapshot(self):
        procs = [Chat(SWMRRoundTransport(), 8) for _ in range(3)]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 1.5), seed=6)
        for obj in build_objects_for("swmr", 3):
            sim.memory.register(obj)
        reg0 = sim.memory.get("swmr0")
        while reg0.write_count < 3:
            sim.run(max_events=1)
        snap = reg0.execute(1, "read", ())
        assert type(snap) is History and len(snap) == 3
        entries = snap.since(0)
        sim.run(until=2_000.0)
        assert len(reg0.execute(1, "read", ())) == 8
        assert len(snap) == 3
        assert snap.since(0) == entries
        assert snap.since(1) == entries[1:]
        assert snap == tuple(entries)
        assert hash(snap) == hash(tuple(entries))
        assert repr(snap) == f"History({tuple(entries)!r})"


class _WriteOnce(Process):
    """A Byzantine register owner: writes one arbitrary value, then idles."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def on_start(self):
        self.ctx.invoke(f"swmr{self.pid}", "write", self.value)


class _HistorySubclass(History):
    __slots__ = ()


class TestSWMRByzantineValues:
    """Whatever a Byzantine owner writes, readers neither crash nor accept
    a value that is neither a :class:`History` nor a tuple."""

    def _recv_from_1(self, value):
        procs = [Chat(SWMRRoundTransport(), 1), _WriteOnce(value),
                 Chat(SWMRRoundTransport(), 1)]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 0.5), seed=9)
        for obj in build_objects_for("swmr", 3):
            sim.memory.register(obj)
        sim.run(until=200.0)
        assert {e.pid for e in sim.trace.events("round_end")} == {0, 2}
        return [(e.pid, e.field("round"), e.field("payload"))
                for e in sim.trace.events("round_recv") if e.field("src") == 1]

    forged = [(("r", 1), "forged")]

    @pytest.mark.parametrize("value", [
        _HistorySubclass(forged, 1),
        list(forged),
        None,
    ], ids=["history-subclass", "list", "none"])
    def test_non_history_non_tuple_is_ignored(self, value):
        assert self._recv_from_1(value) == []

    def test_tuple_of_entries_is_still_delivered(self):
        recv = self._recv_from_1(tuple(self.forged) + ("junk", (1, 2, 3)))
        assert sorted(recv) == [(0, ("r", 1), "forged"), (2, ("r", 1), "forged")]


class TestAlgorithmOneOverOtherObjects:
    """Composition: Algorithm 1 (SRB) runs unchanged over the SWMR and PEATS
    transports — the paper's 'all shared memory objects' claim, end to end."""

    @pytest.mark.parametrize("name", ["swmr", "peats"])
    def test_srb_over_variant(self, name):
        from repro.core.srb import check_srb
        from repro.core.srb_from_uni import SRBFromUnidirectional
        from repro.crypto import SignatureScheme

        n, t = 3, 1
        cls = ALL_SM_TRANSPORTS[name]
        scheme = SignatureScheme(n, seed=8)
        procs = [
            SRBFromUnidirectional(cls(), 0, t, scheme, scheme.signer(p))
            for p in range(n)
        ]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 0.5), seed=8)
        for obj in build_objects_for(name, n):
            sim.memory.register(obj)
        sim.at(0.5, lambda: procs[0].broadcast("portable"))
        sim.run(until=500.0)
        rep = check_srb(sim.trace, 0, range(n))
        rep.assert_ok()
        assert len(rep.deliveries) == n


def _write_entry_twice(name, sim, owner, entry):
    """Store ``entry`` in ``owner``'s object twice, as two publishes, the
    way a Byzantine owner could: straight into the object."""
    cls, batch = ALL_SM_TRANSPORTS[name], (entry,)
    if name == "swmr":
        writes = [(f"{cls.LOG_PREFIX}{owner}", "write", (batch + batch,))]
    elif name == "peats":
        writes = [(cls.LOG_PREFIX, "out", ((owner, seq, batch),)) for seq in (1, 2)]
    elif name == "sticky":
        writes = [(f"{cls.LOG_PREFIX}_{owner}_{k}", "write", (batch,)) for k in (0, 1)]
    else:
        writes = [(f"{cls.LOG_PREFIX}{owner}", "append", (batch,))] * 2
    for obj, op, args in writes:
        sim.memory.get(obj).execute(owner, op, args)


def _run_chat_to_rest(name, n, nrounds, seed=0):
    """Run ``Chat`` until every round has ended and no process has a scan
    or a publish in flight; returns the processes."""
    if name == "sticky":  # chains exactly as long as the run needs
        procs = [Chat(StickyChainRoundTransport(capacity=nrounds), nrounds)
                 for _ in range(n)]
        objects = StickyChainRoundTransport.build_objects(n, capacity=nrounds)
    else:
        procs = [Chat(ALL_SM_TRANSPORTS[name](), nrounds) for _ in range(n)]
        objects = build_objects_for(name, n)
    sim = Simulation(procs, ReliableAsynchronous(0.0, 3.0), seed=seed)
    for obj in objects:
        sim.memory.register(obj)

    def busy():
        return any(
            p.rounds.rounds_begun < nrounds or p.rounds.active_labels
            or p.rounds._scan_running or p.rounds._write is not None
            for p in procs
        )

    while busy():
        sim.run(max_events=1)
    return procs


class _RepublishingLog(SharedMemoryRoundTransport):
    """A Byzantine owner's log: every L1 and L2 entry it sends is published
    a second time, by the publish after the one that carried it."""

    def _send(self, label, payload):
        super()._send(label, payload)
        if payload[0] in ("L1", "L2"):
            super()._send(label, payload)


class TestDeliveryContract:
    """A shared-memory transport delivers each published entry once, by
    position; it keeps no record of what it delivered."""

    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    def test_repeated_entry_is_heard_again(self, name):
        n, entry = 3, (("r", 1), "twice")
        procs = [Chat(ALL_SM_TRANSPORTS[name](), 1), Process(),
                 Chat(ALL_SM_TRANSPORTS[name](), 1)]
        sim = Simulation(procs, ReliableAsynchronous(0.01, 0.5), seed=4)
        for obj in build_objects_for(name, n):
            sim.memory.register(obj)
        _write_entry_twice(name, sim, 1, entry)
        sim.run(until=200.0)
        for reader in (0, 2):
            heard = [(e.field("round"), e.field("payload"))
                     for e in sim.trace.events("round_recv", pid=reader)
                     if e.field("src") == 1]
            assert heard == [entry, entry], (name, reader)

    # the process's own state: rounds it began, entries it published
    OWN_STATE = {"_labels_used", "active_labels", "_my_history"}

    @pytest.mark.parametrize("name", TRANSPORT_NAMES)
    def test_state_does_not_grow_with_entries_read(self, name):
        """Ten times the rounds, the same container sizes: nothing the
        transport keeps grows with what it reads of other processes."""

        def sizes(nrounds):
            return [
                {attr: len(value) for attr, value in vars(p.rounds).items()
                 if isinstance(value, (set, dict, list, tuple))
                 and attr not in self.OWN_STATE}
                for p in _run_chat_to_rest(name, 5, nrounds)
            ]

        short = sizes(100)
        assert all("_seen_lengths" in s for s in short)
        assert sizes(1_000) == short

    def test_algorithm_one_hears_a_republished_proof_and_ignores_it(self):
        from repro.core.srb import SRBStreamChecker
        from repro.core.srb_from_uni import (
            SRBFromUnidirectional,
            build_sm_srb_system,
        )

        n, t, byz, messages = 5, 2, 4, ["a", "b", "c", "d"]
        correct = range(byz)

        def run(republish):
            def factory(pid, transport, scheme, signer):
                if pid == byz and republish:
                    transport = _RepublishingLog()
                return SRBFromUnidirectional(transport, 0, t, scheme, signer)

            sim, procs, _ = build_sm_srb_system(
                n, t, seed=3, process_factory=factory)
            if republish:
                sim.declare_byzantine(byz)
            for i, m in enumerate(messages):
                sim.at(0.5 + 0.3 * i, lambda m=m: procs[0].broadcast(m))
            sim.run(until=800.0)
            assert SRBStreamChecker(0, correct).consume(sim.trace).finish().ok
            delivered = {
                p: [(e.field("seq"), e.field("value"))
                    for e in sim.trace.events("bcast_deliver", pid=p)]
                for p in correct
            }
            return sim, delivered

        sim, delivered = run(republish=True)
        _, baseline = run(republish=False)
        assert delivered == baseline
        assert baseline[1] == [(k, m) for k, m in enumerate(messages, 1)]
        # the repeats were read: each of byz's proofs reached process 1 twice
        proofs = [(e.field("round"), e.field("payload"))
                  for e in sim.trace.events("round_recv", pid=1)
                  if e.field("src") == byz and e.field("payload")[0] in ("L1", "L2")]
        assert proofs and all(proofs.count(p) == 2 for p in proofs)
