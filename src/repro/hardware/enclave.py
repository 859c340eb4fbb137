"""SGX/TrustZone-style enclaves: attested deterministic state machines.

Section 2.1: *"Intel SGX and ARM TrustZone are similar to A2M and TrInc
[for non-equivocation], though in addition they allow for more expressive
computations."* This module models exactly that increment of power: an
enclave runs an arbitrary deterministic program in isolation and attests
its outputs; the (possibly Byzantine) host controls only *which* inputs are
fed and *whether* outputs are delivered.

An :class:`EnclaveProgram` supplies a ``measurement`` (code identity, what
remote attestation pins), an initial state, and a pure
``step(state, inp) -> (state', output)``. Each invocation is attested with
a monotonically increasing invocation number, so a host can replay old
*attestations* but can never reorder or fork the enclave's execution
history without detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..crypto.serialize import content_hash
from ..crypto.signatures import Keyring
from ..errors import AttestationError, ConfigurationError
from ..types import ProcessId, SeqNum


class EnclaveProgram:
    """A deterministic program to run inside an enclave.

    Subclass or construct directly with callables. ``step`` must be pure:
    same (state, input) → same (state, output); the simulation cannot check
    purity but the determinism tests will catch violations.
    """

    def __init__(
        self,
        measurement: str,
        initial_state: Any = None,
        step: Callable[[Any, Any], tuple[Any, Any]] | None = None,
    ) -> None:
        if not measurement:
            raise ConfigurationError("enclave program needs a non-empty measurement")
        self.measurement = measurement
        self._initial_state = initial_state
        self._step = step

    def initial_state(self) -> Any:
        return self._initial_state

    def step(self, state: Any, inp: Any) -> tuple[Any, Any]:
        if self._step is None:
            raise NotImplementedError(
                f"program {self.measurement!r} defines no step function"
            )
        return self._step(state, inp)


@dataclass(frozen=True, slots=True)
class EnclaveOutput:
    """An attested enclave output.

    Binds: which device, which program (measurement), the invocation number
    ``seq``, a hash of the input, and the output value itself.
    """

    device_id: ProcessId
    measurement: str
    seq: SeqNum
    input_hash: bytes
    output: Any
    tag: bytes


class EnclaveAuthority:
    """Manufacturer of enclave-capable devices; public verifier of outputs."""

    def __init__(self, n: int, seed: int = 0) -> None:
        if n <= 0:
            raise ConfigurationError(f"need at least one device, got n={n}")
        self._keyring = Keyring("enclave", n, seed)

    @property
    def n(self) -> int:
        return self._keyring.n

    def launch(self, pid: ProcessId, program: EnclaveProgram) -> "Enclave":
        """Start ``program`` on ``pid``'s device.

        Unlike trinkets, a device may launch many enclaves (real SGX does);
        each launch is an independent attested history.
        """
        if pid not in self._keyring:
            raise ConfigurationError(f"no enclave device for pid {pid} (n={self.n})")
        return Enclave(self, pid, program)

    def _tag(self, pid: ProcessId, measurement: str, seq: SeqNum,
             input_hash: bytes, output: Any) -> bytes:
        return self._keyring.mac(
            pid, _output(pid, measurement, seq, input_hash, output))

    def check(self, out: Any, q: ProcessId,
              measurement: str | None = None) -> bool:
        """Verify an :class:`EnclaveOutput` from device ``q``.

        Pass ``measurement`` to additionally pin the program identity (what
        real remote attestation does).
        """
        o = out
        if not isinstance(o, EnclaveOutput):
            return False
        if o.device_id != q or q not in self._keyring:
            return False
        if measurement is not None and o.measurement != measurement:
            return False
        if not isinstance(o.seq, int) or o.seq < 1:
            return False
        return self._keyring.check(q, lambda: _output(
            q, o.measurement, o.seq, o.input_hash, o.output), o.tag)


def _output(pid: ProcessId, measurement: str, seq: SeqNum, input_hash: bytes,
            output: Any) -> tuple:
    """What an :class:`EnclaveOutput`'s tag binds."""
    return ("enclave", pid, measurement, seq, input_hash, content_hash(output))


class Enclave:
    """A running attested state machine on one device."""

    __slots__ = ("_authority", "_pid", "_program", "_state", "_seq", "invocations")

    def __init__(self, authority: EnclaveAuthority, pid: ProcessId,
                 program: EnclaveProgram) -> None:
        self._authority = authority
        self._pid = pid
        self._program = program
        self._state = program.initial_state()
        self._seq: SeqNum = 0
        self.invocations = 0

    @property
    def pid(self) -> ProcessId:
        return self._pid

    @property
    def measurement(self) -> str:
        return self._program.measurement

    @property
    def seq(self) -> SeqNum:
        """Number of invocations so far."""
        return self._seq

    def invoke(self, inp: Any) -> EnclaveOutput:
        """Run one step on ``inp``; returns the attested output.

        The host cannot roll the enclave back: state advances before the
        attestation is released, and ``seq`` is part of what is signed.
        """
        try:
            ih = content_hash(inp)
        except Exception as exc:
            raise AttestationError(f"enclave input not serializable: {inp!r}") from exc
        new_state, output = self._program.step(self._state, inp)
        self._state = new_state
        self._seq += 1
        self.invocations += 1
        tag = self._authority._tag(
            self._pid, self._program.measurement, self._seq, ih, output
        )
        return EnclaveOutput(
            device_id=self._pid,
            measurement=self._program.measurement,
            seq=self._seq,
            input_hash=ih,
            output=output,
            tag=tag,
        )
