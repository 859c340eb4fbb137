"""The active Byzantine attack campaign and its accountability converse.

Three claims, mirroring the paper's classification:

1. With *intact* trusted hardware, every protocol-aware attack in the
   library is absorbed at its minimal replication factor (n = 2f+1 for
   MinBFT/SRB, 3f+1 for PBFT) — safe, live, and conviction-free.
2. With *compromised* hardware (cloned trinket / extracted USIG key),
   MinBFT safety at n = 2f+1 demonstrably falls.
3. The fall is not silent: the accountability layer convicts exactly the
   culprit with a self-contained, independently replayable proof, and the
   surviving group recovers to a live, safe configuration in the same run.
"""

from __future__ import annotations

import pytest

from repro.consensus.forensics import ProofOfMisbehavior, verify_proof
from repro.consensus.harness import build_minbft_system, build_pbft_system
from repro.consensus.replica import REQUEST
from repro.consensus.safety import check_replication
from repro.consensus.usig import USIG, USIGVerifier
from repro.core.srb_from_uni import build_sm_srb_system
from repro.crypto import Signature, reset_crypto_caches
from repro.errors import ConfigurationError
from repro.faults.attacks import ATTACKS, attacks_for, get_attack
from repro.faults.chaos import (
    attack_sweep,
    run_attack,
    run_compromised_minbft_soak,
)
from repro.hardware.compromise import (
    ClonedTrinket,
    KeyExtractedUSIG,
    compromise_trinket,
    extract_usig_key,
)
from repro.hardware.trinc import TrincAuthority


class TestAttackRegistry:
    def test_registry_covers_all_three_protocols(self):
        protocols = {spec.protocol for spec in ATTACKS.values()}
        assert protocols == {"minbft", "pbft", "srb"}

    def test_attacks_for_partitions_registry(self):
        total = sum(
            len(attacks_for(p)) for p in ("minbft", "pbft", "srb")
        )
        assert total == len(ATTACKS)

    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown attack"):
            get_attack("no-such-attack")

    def test_attack_on_wrong_protocol_runner_rejected(self):
        # an attack cell is declared on its target's runner only: there is
        # no "minbft+pbft-equivocate" cell to run
        from repro.faults.chaos import run_chaos

        with pytest.raises(ConfigurationError, match="targets pbft"):
            run_chaos("minbft+pbft-equivocate", 0)


class TestAttackMatrix:
    """Intact hardware: every cell green, and non-vacuously so."""

    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_cell_green_and_struck(self, name):
        r = run_attack(name, seed=0)
        byz = r.stats["byzantine"]
        assert r.ok, f"{name}: {r.violations[:2]}"
        assert byz["attack"] == name
        assert byz["strikes"] > 0, (
            f"{name} never fired — the cell is vacuous, retune its spec"
        )

    def test_matrix_convicts_nobody_under_intact_hardware(self):
        # intact hardware cannot bind one counter to two messages, so the
        # audit-only accountability checker must find zero evidence
        for name in sorted(n for n, s in ATTACKS.items()
                           if s.protocol == "minbft"):
            r = run_attack(name, seed=0)
            forensics = r.stats["byzantine"]["forensics"]
            assert forensics["convicted"] == [], (
                f"{name}: false conviction {forensics['convicted']}"
            )
            assert forensics["uis_checked"] > 0  # the audit actually ran

    @pytest.mark.parametrize("seed", [44, 48, 61])
    @pytest.mark.parametrize("streaming", [True, False])
    def test_equivocating_sender_is_not_audited_as_correct(self, seed, streaming):
        """On these seeds every correct process delivers the sender's
        *alternate* value, in agreement — legal under a Byzantine sender
        (integrity binds a correct sender only). The cell used to audit the
        attacked sender as correct and report an integrity violation."""
        r = run_attack("srb-equivocate", seed=seed, streaming=streaming)
        assert r.ok, r.violations[:2]
        assert r.stats["deliveries"] > 0  # not the vacuous nobody-delivers case

    def test_sweep_axis_shape(self):
        results = attack_sweep(
            attacks=["equivocate-prepare", "srb-equivocate"], seeds=range(2)
        )
        assert len(results) == 4
        assert all(r.ok for r in results)
        protocols = {r.protocol for r in results}
        assert protocols == {
            "minbft+equivocate-prepare", "srb-uni+srb-equivocate"
        }


class TestCompromisedTrinket:
    def test_clone_equivocates_past_the_authority_check(self):
        authority = TrincAuthority(3, seed=0)
        genuine = authority.trinket(0)
        att_a = genuine.attest(1, "history-a")
        clone = compromise_trinket(genuine)
        clone.rollback(0)
        att_b = clone.attest(1, "history-b")
        # both attestations bind counter 1 and both verify: the fork the
        # fuse-backed counter exists to prevent
        assert authority.check(att_a, 0)
        assert authority.check(att_b, 0)
        assert att_a.seq == att_b.seq == 1
        assert att_a.message != att_b.message

    def test_fork_diverges_independently(self):
        authority = TrincAuthority(3, seed=0)
        clone = ClonedTrinket(authority, 0)
        twin = clone.fork()
        a = clone.attest(1, "left")
        b = twin.attest(1, "right")
        assert authority.check(a, 0) and authority.check(b, 0)
        assert clone.forks == 1

    def test_rollback_rejects_bad_target(self):
        clone = ClonedTrinket(TrincAuthority(3, seed=0), 0)
        with pytest.raises(ConfigurationError):
            clone.rollback(-1)


class TestKeyExtractedUSIG:
    def test_forged_uis_verify_and_constitute_proof(self):
        authority = TrincAuthority(3, seed=0)
        verifier = USIGVerifier(authority)
        usig = USIG(authority.trinket(0))
        honest_ui = usig.create_ui("hello")
        leaked = extract_usig_key(usig)
        forged = leaked.create_ui_at("goodbye", honest_ui.counter)
        assert verifier.verify_ui(honest_ui, "hello", 0)
        assert verifier.verify_ui(forged, "goodbye", 0)
        proof = ProofOfMisbehavior(
            culprit=0, counter=honest_ui.counter,
            first=("hello", honest_ui), second=("goodbye", forged),
        )
        assert verify_proof(proof, verifier)

    def test_extraction_continues_from_live_counter(self):
        authority = TrincAuthority(3, seed=0)
        usig = USIG(authority.trinket(1))
        usig.create_ui("a")
        usig.create_ui("b")
        leaked = KeyExtractedUSIG.from_usig(usig)
        ui = leaked.create_ui("c")
        assert ui.counter == 3
        assert leaked.forged == 0 and leaked.created == 1

    def test_forging_at_counter_zero_rejected(self):
        leaked = KeyExtractedUSIG(TrincAuthority(3, seed=0), 0)
        with pytest.raises(ConfigurationError):
            leaked.create_ui_at("x", 0)


class TestProofOfMisbehavior:
    def _proof(self):
        authority = TrincAuthority(3, seed=0)
        verifier = USIGVerifier(authority)
        leaked = KeyExtractedUSIG(authority, 0)
        a = leaked.create_ui_at("msg-a", 5)
        b = leaked.create_ui_at("msg-b", 5)
        return verifier, ProofOfMisbehavior(
            culprit=0, counter=5, first=("msg-a", a), second=("msg-b", b)
        )

    def test_valid_proof_verifies(self):
        verifier, proof = self._proof()
        assert verify_proof(proof, verifier)

    def test_same_message_twice_is_not_evidence(self):
        verifier, proof = self._proof()
        same = ProofOfMisbehavior(
            culprit=0, counter=5, first=proof.first, second=proof.first
        )
        assert not verify_proof(same, verifier)

    def test_wrong_culprit_rejected(self):
        verifier, proof = self._proof()
        reframed = ProofOfMisbehavior(
            culprit=1, counter=5, first=proof.first, second=proof.second
        )
        assert not verify_proof(reframed, verifier)

    def test_tampered_message_rejected(self):
        verifier, proof = self._proof()
        tampered = ProofOfMisbehavior(
            culprit=0, counter=5,
            first=("msg-TAMPERED", proof.first[1]), second=proof.second,
        )
        assert not verify_proof(tampered, verifier)

    def test_garbage_never_raises(self):
        verifier, _ = self._proof()
        for junk in (None, 42, "proof", ("a", "b"),
                     ProofOfMisbehavior(0, 5, ("m", None), ("n", None))):
            assert not verify_proof(junk, verifier)


class TestCompromisedSoak:
    """The acceptance arc: violate -> detect -> convict -> recover."""

    @pytest.fixture(scope="class")
    def soak(self):
        return run_compromised_minbft_soak(seed=0)

    def test_safety_demonstrably_violated(self, soak):
        assert soak["hw_equivocations"] >= 1
        assert soak["online_violations"], (
            "the cloned trinket never split the group — the planted "
            "violation is vacuous"
        )

    def test_exactly_the_culprit_convicted(self, soak):
        assert soak["convicted"] == [0]
        assert 0 in soak["detected_at"]

    def test_proof_is_independently_replayable(self, soak):
        proof = soak["proof"]
        assert isinstance(proof, ProofOfMisbehavior)
        assert proof.culprit == 0
        # replay against a fresh checker built only from the public
        # verifier: the proof is self-contained evidence
        assert verify_proof(proof, soak["verifier"])

    def test_group_recovers_to_live_safe_state(self, soak):
        # post-conviction the survivors re-formed and the final audit over
        # the correct replicas is clean, clients included
        assert soak["report"].ok, soak["report"].violations[:3]

    def test_forensics_stats_shape(self, soak):
        stats = soak["forensics"]
        assert stats["convicted"] == [0]
        assert stats["uis_checked"] > 0
        assert stats["distinct_bindings"] > 0
        # detection happened mid-run, not as a post-mortem
        assert 0.0 < soak["detected_at"][0] < 600.0


class TestHardenedHandlers:
    """Byzantine babble: malformed frames are counted, never fatal."""

    GARBAGE = [
        None,
        42,
        "BABBLE",
        (),
        ("PREPARE",),
        ("USIG", "half"),
        ("USIG", ("PREPARE", "v", None, ()), "not-a-ui"),
        ("COMMIT", 0, 1, ("REQUEST",), None),
        ("REQUEST", "x", -1, None, b"sig"),
        (b"\x00" * 8, 1, 2),
    ]

    def test_minbft_survives_babble(self):
        reset_crypto_caches()
        sim, replicas, _clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=1, seed=0
        )
        sim.run(until=50.0)
        target = replicas[1]
        before = target.commits_executed
        for junk in self.GARBAGE:
            target.on_message(0, junk)  # must not raise
        stats = target.consensus_stats()
        assert stats["malformed_rejects"] >= len(self.GARBAGE) - 2
        assert target.commits_executed == before

    def test_pbft_survives_babble(self):
        reset_crypto_caches()
        sim, replicas, _clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=1, seed=0
        )
        sim.run(until=50.0)
        target = replicas[1]
        for junk in self.GARBAGE:
            target.on_message(0, junk)
        stats = target.consensus_stats()
        assert stats["malformed_rejects"] > 0
        assert stats["convicted_rejects"] == 0

    @pytest.mark.parametrize("build", [build_minbft_system, build_pbft_system],
                             ids=["minbft", "pbft"])
    def test_unencodable_request_from_the_wire_is_dropped(self, build):
        # an int past the interpreter's str() digit limit made the encoder
        # raise ValueError, which ``verify`` ("returns False, never raises")
        # let through ``_valid_request`` and out of ``on_message``
        reset_crypto_caches()
        sim, replicas, clients = build(f=1, n_clients=1, ops_per_client=3, seed=0)
        n, byzantine = len(replicas), len(replicas) - 1
        client = clients[0].pid
        hostile = (REQUEST, client, 1, ("put", "k", 10 ** 5000),
                   Signature(client, b"\0" * 32))

        def spray():
            for dst in range(n):
                replicas[byzantine].ctx.send(dst, hostile)

        sim.declare_byzantine(byzantine)
        sim.at(0.2, spray)
        sim.at(30.0, spray)
        sim.run(until=2000.0)
        correct = [r for r in range(n) if r != byzantine]
        check_replication(sim.trace, correct, expected_ops={client: 3}).assert_ok()
        assert all(replicas[r].commits_executed == 3 for r in correct)
        assert clients[0].results == [1, 3, 6]
        for r in correct:  # and as a proposal, straight at the handler
            replicas[r].on_message(byzantine, hostile)
            assert replicas[r]._valid_proposal(("BATCH", hostile)) is False

    def test_srb_survives_babble(self):
        sim, procs, _scheme = build_sm_srb_system(n=3, t=1, sender=0, seed=0)
        sim.at(0.5, lambda: procs[0].broadcast("real"))
        sim.run(until=100.0)
        receiver = procs[1]
        for junk in self.GARBAGE:
            receiver.on_round_message("r", 0, junk)
        assert receiver.malformed_rejects > 0
        # forged artifacts with bad proofs land in the other bucket
        receiver.on_round_message(
            "r", 0, ("VAL", 9, "forged", None)
        )
        assert receiver.malformed_rejects + receiver.proof_rejects >= len(
            self.GARBAGE
        )

    def test_convicted_rejects_counted(self):
        reset_crypto_caches()
        sim, replicas, _clients = build_minbft_system(
            f=1, n_clients=1, ops_per_client=1, seed=0
        )
        sim.run(until=50.0)
        target = replicas[1]
        target.convict(0)
        # even a *genuinely signed* message from the culprit is refused:
        # its hardware is no longer trusted, so a valid UI proves nothing
        message = ("PREPARE", target.view, 99, ())
        ui = replicas[0].usig.create_ui(message)
        target.on_message(0, ("USIG", message, ui))
        assert target.consensus_stats()["convicted_rejects"] > 0

    @staticmethod
    def _quiet_pbft():
        reset_crypto_caches()
        sim, replicas, _clients = build_pbft_system(
            f=1, n_clients=1, ops_per_client=1, seed=0
        )
        sim.run(until=50.0)
        assert all(r.view == 0 and r.in_view_change is None for r in replicas)
        return sim, replicas

    @staticmethod
    def _convictions(sim, pid):
        return [
            ev.field("culprit")
            for ev in sim.trace.events("custom", pid=pid)
            if ev.field("event") == "convict"
        ]

    def test_pbft_convicting_the_primary_skips_convicted_views(self):
        sim, replicas = self._quiet_pbft()
        target = replicas[2]
        target.convict(1)  # a backup: the view stays
        assert target.in_view_change is None
        target.convict(0)  # the primary of view 0; view 1's is convicted too
        assert target.in_view_change == 2
        starts = [
            ev.field("new_view")
            for ev in sim.trace.events("custom", pid=2)
            if ev.field("event") == "view_change_start"
        ]
        assert starts == [2]
        assert self._convictions(sim, 2) == [1, 0]

    def test_pbft_convicted_backup_rejects_signed_messages(self):
        from repro.consensus.pbft import PREPARE, prep_domain
        from repro.crypto.serialize import content_hash

        _sim, replicas = self._quiet_pbft()
        target, culprit = replicas[1], replicas[3]
        digest = content_hash(("op",))
        sig = culprit.signer.sign(prep_domain(0, 99, digest, 3))
        message = (PREPARE, 0, 99, digest, 3, sig)
        target.on_message(3, message)
        assert target.consensus_stats()["convicted_rejects"] == 0
        target.convict(3)
        assert target.in_view_change is None  # 3 does not lead view 0
        target.on_message(3, message)
        assert target.consensus_stats()["convicted_rejects"] == 1

    def test_pbft_self_and_repeat_convictions_do_nothing(self):
        sim, replicas = self._quiet_pbft()
        primary, backup = replicas[0], replicas[1]
        primary.convict(0)
        assert self._convictions(sim, 0) == []
        assert primary.in_view_change is None
        backup.convict(0)
        backup.convict(0)
        assert self._convictions(sim, 1) == [0]
        assert backup.in_view_change == 1
