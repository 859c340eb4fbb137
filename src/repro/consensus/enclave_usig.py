"""USIG implemented on an SGX-style enclave instead of TrInc.

Section 2.1 of the paper groups Intel SGX / ARM TrustZone with A2M and
TrInc: same non-equivocation class, "more expressive computations". This
module makes that concrete: the USIG service MinBFT needs is a ~five-line
enclave program, and the resulting UIs are interchangeable with the
TrInc-backed ones — :class:`EnclaveUSIG` / :class:`EnclaveUSIGVerifier`
duck-type :class:`repro.consensus.usig.USIG` / ``USIGVerifier``, so a
MinBFT deployment can mix replicas using either hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..crypto.serialize import content_hash
from ..hardware.enclave import Enclave, EnclaveAuthority, EnclaveOutput, EnclaveProgram
from ..types import ProcessId, SeqNum

USIG_MEASUREMENT = "minbft-usig-v1"


def _usig_step(counter: int, message_hash: bytes) -> tuple[int, tuple]:
    """The entire trusted program: bind the hash to the next counter value."""
    counter += 1
    return counter, ("UI", counter, message_hash)


def usig_program() -> EnclaveProgram:
    return EnclaveProgram(USIG_MEASUREMENT, 0, _usig_step)


@dataclass(frozen=True, slots=True)
class EnclaveUI:
    """A UI certified by an enclave output instead of a TrInc attestation."""

    replica: ProcessId
    counter: SeqNum
    attestation: EnclaveOutput

    @property
    def digest(self) -> Any:
        """The message commitment this UI carries (authentic once verified)."""
        return self.attestation.output[2]

    def __repr__(self) -> str:
        return f"EnclaveUI(r{self.replica}#{self.counter})"


class EnclaveUSIG:
    """Create side: drop-in for :class:`repro.consensus.usig.USIG`."""

    def __init__(self, enclave: Enclave) -> None:
        if enclave.measurement != USIG_MEASUREMENT:
            from ..errors import ConfigurationError

            raise ConfigurationError(
                f"enclave runs {enclave.measurement!r}, expected "
                f"{USIG_MEASUREMENT!r}"
            )
        self._enclave = enclave
        self.created = 0

    @property
    def replica(self) -> ProcessId:
        return self._enclave.pid

    @property
    def counter(self) -> SeqNum:
        return self._enclave.seq

    def create_ui(self, message: Any) -> EnclaveUI:
        out = self._enclave.invoke(content_hash(message))
        self.created += 1
        _tag, counter, _h = out.output
        return EnclaveUI(replica=self.replica, counter=counter, attestation=out)


class EnclaveUSIGVerifier:
    """Check side: drop-in for :class:`repro.consensus.usig.USIGVerifier`."""

    def __init__(self, authority: EnclaveAuthority) -> None:
        self._authority = authority

    def verify_ui(self, ui: Any, message: Any, replica: ProcessId) -> bool:
        if not isinstance(ui, EnclaveUI):
            return False
        out = ui.attestation
        if not isinstance(out, EnclaveOutput):
            return False
        if not type(ui.replica) is type(ui.counter) is type(out.seq) is int:
            return False
        if ui.replica != replica:
            return False
        # the enclave's invocation number IS the counter: sequential, no gaps
        if out.seq != ui.counter:
            return False
        try:
            mh = content_hash(message)
        except Exception:
            return False
        if out.output != ("UI", ui.counter, mh):
            return False
        if out.input_hash != content_hash(mh):
            return False
        return self._authority.check(out, replica, USIG_MEASUREMENT)
