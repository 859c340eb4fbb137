"""Tests for the SGX-like attested state machine."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import AttestationError, ConfigurationError
from repro.hardware.enclave import EnclaveAuthority, EnclaveOutput, EnclaveProgram


@pytest.fixture
def auth():
    return EnclaveAuthority(2, seed=13)


def counter_program():
    return EnclaveProgram("counter-v1", 0, lambda s, x: (s + x, s + x))


class TestExecution:
    def test_state_advances(self, auth):
        e = auth.launch(0, counter_program())
        assert e.invoke(3).output == 3
        assert e.invoke(4).output == 7
        assert e.seq == 2

    def test_outputs_verify(self, auth):
        e = auth.launch(0, counter_program())
        out = e.invoke(1)
        assert auth.check(out, 0)
        assert auth.check(out, 0, measurement="counter-v1")

    def test_measurement_pinning(self, auth):
        e = auth.launch(0, counter_program())
        out = e.invoke(1)
        assert not auth.check(out, 0, measurement="counter-v2")

    def test_wrong_device_rejected(self, auth):
        out = auth.launch(0, counter_program()).invoke(1)
        assert not auth.check(out, 1)

    def test_output_tamper_rejected(self, auth):
        out = auth.launch(0, counter_program()).invoke(1)
        forged = EnclaveOutput(out.device_id, out.measurement, out.seq,
                               out.input_hash, 999, out.tag)
        assert not auth.check(forged, 0)
        for tag in (out.tag.hex(), None):  # a tag that is not bytes at all
            assert not auth.check(replace(out, tag=tag), 0)

    def test_seq_tamper_rejected(self, auth):
        """Replay protection: the invocation number is signed."""
        out = auth.launch(0, counter_program()).invoke(1)
        forged = EnclaveOutput(out.device_id, out.measurement, 2,
                               out.input_hash, out.output, out.tag)
        assert not auth.check(forged, 0)

    def test_old_outputs_still_verify(self, auth):
        """Attestations are statements about history, not current state."""
        e = auth.launch(0, counter_program())
        o1 = e.invoke(1)
        e.invoke(2)
        assert auth.check(o1, 0)


class TestLaunch:
    def test_multiple_enclaves_per_device(self, auth):
        e1 = auth.launch(0, counter_program())
        e2 = auth.launch(0, EnclaveProgram("other", (), lambda s, x: (s, x)))
        o1, o2 = e1.invoke(1), e2.invoke(1)
        assert auth.check(o1, 0, "counter-v1") and auth.check(o2, 0, "other")

    def test_independent_histories(self, auth):
        e1 = auth.launch(0, counter_program())
        e2 = auth.launch(0, counter_program())
        e1.invoke(10)
        assert e2.seq == 0

    def test_empty_measurement_rejected(self):
        with pytest.raises(ConfigurationError):
            EnclaveProgram("", 0, lambda s, x: (s, x))

    def test_unknown_device(self, auth):
        with pytest.raises(ConfigurationError):
            auth.launch(5, counter_program())

    def test_program_without_step(self):
        p = EnclaveProgram("stub")
        auth = EnclaveAuthority(1)
        e = auth.launch(0, p)
        with pytest.raises(NotImplementedError):
            e.invoke(1)

    def test_unserializable_input(self, auth):
        e = auth.launch(0, counter_program())
        with pytest.raises(AttestationError):
            e.invoke(object())


class TestUSIGAsEnclave:
    """The USIG service expressed as an enclave program — the paper's point
    that SGX subsumes TrInc-style counters."""

    @staticmethod
    def usig_step(state, msg_hash):
        counter = state + 1
        return counter, ("UI", counter, msg_hash)

    def test_monotone_uis(self, auth):
        e = auth.launch(0, EnclaveProgram("usig-v1", 0, self.usig_step))
        o1 = e.invoke(b"m1")
        o2 = e.invoke(b"m2")
        assert o1.output[1] == 1 and o2.output[1] == 2
        assert auth.check(o1, 0, "usig-v1") and auth.check(o2, 0, "usig-v1")
