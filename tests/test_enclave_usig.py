"""Tests for the enclave-backed USIG and its use inside MinBFT."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.consensus.enclave_usig import (
    EnclaveUI,
    EnclaveUSIG,
    EnclaveUSIGVerifier,
    USIG_MEASUREMENT,
    usig_program,
)
from repro.crypto.serialize import crypto_stats
from repro.errors import ConfigurationError
from repro.hardware.enclave import EnclaveAuthority, EnclaveProgram


class _LyingCounter(int):
    """Equal to everything it is compared with."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = int.__hash__


@pytest.fixture
def parts():
    auth = EnclaveAuthority(2, seed=21)
    usig = EnclaveUSIG(auth.launch(0, usig_program()))
    return auth, usig, EnclaveUSIGVerifier(auth)


class TestEnclaveUSIG:
    def test_sequential_counters(self, parts):
        _, usig, verifier = parts
        u1, u2 = usig.create_ui("m1"), usig.create_ui("m2")
        assert (u1.counter, u2.counter) == (1, 2)
        assert verifier.verify_ui(u1, "m1", 0)
        assert verifier.verify_ui(u2, "m2", 0)

    def test_binding(self, parts):
        _, usig, verifier = parts
        ui = usig.create_ui("m")
        assert not verifier.verify_ui(ui, "other", 0)
        assert not verifier.verify_ui(ui, "m", 1)

    def test_counter_tamper_rejected(self, parts):
        _, usig, verifier = parts
        ui = usig.create_ui("m")
        forged = EnclaveUI(replica=0, counter=9, attestation=ui.attestation)
        assert not verifier.verify_ui(forged, "m", 0)

    def test_counter_must_be_an_exact_int(self, parts):
        _, usig, verifier = parts
        ui = usig.create_ui("m")
        lying = EnclaveUI(replica=0, counter=_LyingCounter(9),
                          attestation=ui.attestation)
        assert not verifier.verify_ui(lying, "m", 0)
        assert verifier.verify_ui(ui, "m", 0)

    def test_wrong_program_rejected(self):
        auth = EnclaveAuthority(1, seed=22)
        rogue = auth.launch(0, EnclaveProgram("rogue", 0,
                                              lambda c, h: (c + 1, ("UI", c + 1, h))))
        with pytest.raises(ConfigurationError):
            EnclaveUSIG(rogue)
        # even a hand-built UI over the rogue program's output fails the
        # measurement check
        out = rogue.invoke(b"h")
        verifier = EnclaveUSIGVerifier(auth)
        fake = EnclaveUI(replica=0, counter=1, attestation=out)
        assert not verifier.verify_ui(fake, b"h", 0)

    def test_junk(self, parts):
        _, usig, verifier = parts
        assert not verifier.verify_ui("junk", "m", 0)
        ui = usig.create_ui("m")
        for tag in (ui.attestation.tag.hex(), None):
            forged = replace(ui, attestation=replace(ui.attestation, tag=tag))
            assert not verifier.verify_ui(forged, "m", 0)
        assert verifier.verify_ui(ui, "m", 0)

    def test_create_and_check_count_two_hmacs(self, parts):
        _, usig, verifier = parts
        before = crypto_stats().hmac_ops
        assert verifier.verify_ui(usig.create_ui("m"), "m", 0)
        assert crypto_stats().hmac_ops - before == 2


class TestMinBFTOnEnclaves:
    def test_full_replication_run(self):
        """MinBFT with every replica's USIG hosted in an SGX-style enclave —
        the paper's 'SGX is in the trusted-log class', operational."""
        from repro.consensus import BFTClient, MinBFTReplica, check_replication, make_app
        from repro.crypto import SignatureScheme
        from repro.sim import ReliableAsynchronous, Simulation

        f, n_clients, ops = 1, 1, 4
        n = 2 * f + 1
        scheme = SignatureScheme(n + n_clients, seed=23)
        enclave_auth = EnclaveAuthority(n, seed=23)
        verifier = EnclaveUSIGVerifier(enclave_auth)
        replicas = [
            MinBFTReplica(
                n=n,
                usig=EnclaveUSIG(enclave_auth.launch(p, usig_program())),
                verifier=verifier,
                scheme=scheme,
                signer=scheme.signer(p),
                app=make_app("counter"),
                req_timeout=20.0,
            )
            for p in range(n)
        ]
        client = BFTClient(replicas=range(n), reply_quorum=f + 1,
                           ops=[("add", i + 1) for i in range(ops)],
                           retry_timeout=60.0)
        client.scheme = scheme
        client.signer = scheme.signer(n)
        sim = Simulation([*replicas, client],
                         ReliableAsynchronous(0.01, 0.5), seed=23)
        sim.run(until=3000.0)
        rep = check_replication(sim.trace, range(n), expected_ops={n: ops})
        rep.assert_ok()
        assert all(r.commits_executed == ops for r in replicas)

    def test_enclave_primary_crash_view_change(self):
        """The tamper-evident-log view change works over enclave UIs too."""
        from repro.consensus import BFTClient, MinBFTReplica, check_replication, make_app
        from repro.crypto import SignatureScheme
        from repro.sim import ReliableAsynchronous, Simulation

        f, ops = 1, 5
        n = 2 * f + 1
        scheme = SignatureScheme(n + 1, seed=24)
        enclave_auth = EnclaveAuthority(n, seed=24)
        verifier = EnclaveUSIGVerifier(enclave_auth)
        replicas = [
            MinBFTReplica(
                n=n,
                usig=EnclaveUSIG(enclave_auth.launch(p, usig_program())),
                verifier=verifier,
                scheme=scheme,
                signer=scheme.signer(p),
                app=make_app("counter"),
                req_timeout=20.0,
            )
            for p in range(n)
        ]
        client = BFTClient(replicas=range(n), reply_quorum=f + 1,
                           ops=[("add", 1)] * ops, retry_timeout=60.0)
        client.scheme = scheme
        client.signer = scheme.signer(n)
        sim = Simulation([*replicas, client],
                         ReliableAsynchronous(0.01, 0.5), seed=24)
        sim.crash_at(0, 2.0)
        sim.run(until=8000.0)
        rep = check_replication(sim.trace, [1, 2], expected_ops={n: ops})
        rep.assert_ok()
        assert all(r.view >= 1 for r in replicas[1:])
