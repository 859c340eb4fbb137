"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with one ``except`` clause. Subpackages
raise the most specific subclass that applies; nothing in the library raises
bare ``Exception`` or ``ValueError`` for domain errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A simulation or protocol was configured inconsistently.

    Examples: a resilience bound is violated at construction time
    (``n <= 2f`` for a protocol requiring ``n >= 2f+1``), duplicate process
    ids, or an adversary attached to the wrong network.
    """


class SimulationError(ReproError):
    """The simulator itself was driven incorrectly.

    Examples: scheduling an event in the past, running a finished
    simulation, or re-entrant calls into the scheduler.
    """


class AccessDeniedError(ReproError):
    """A process invoked a hardware or shared-memory operation its ACL forbids."""

    def __init__(self, pid: int, object_name: str, operation: str) -> None:
        self.pid = pid
        self.object_name = object_name
        self.operation = operation
        super().__init__(
            f"process {pid} may not perform {operation!r} on {object_name!r}"
        )


class AttestationError(ReproError):
    """A trusted-hardware attestation request was invalid.

    Raised for example when a TrInc ``Attest`` is called with a sequence
    number not greater than the last attested one; note the paper's
    interface *returns null* in that case — the library mirrors that by
    returning ``None`` from the public API and reserves this exception for
    genuinely malformed calls (negative counters, oversized payloads).
    """


class SignatureError(ReproError):
    """A signature operation failed structurally (not a mere verification failure).

    Verification of a *well-formed but wrong* signature returns ``False``;
    this exception signals misuse, e.g. signing with a revoked signer.
    """


class RetriesExhausted(ReproError):
    """A client gave up on a request after its retry budget ran dry.

    Surfaced instead of retrying forever: unbounded client retries are the
    amplification loop that turns a transient outage into a metastable one.
    """

    def __init__(self, req_id: int, attempts: int) -> None:
        self.req_id = req_id
        self.attempts = attempts
        super().__init__(
            f"request {req_id} abandoned after {attempts} attempts"
        )


class PropertyViolation(ReproError):
    """A trace checker found a violation of a specified property.

    Carries the property name and a human-readable witness so tests and
    benchmark harnesses can report precisely which guarantee failed.
    """

    def __init__(self, prop: str, witness: str) -> None:
        self.prop = prop
        self.witness = witness
        super().__init__(f"property {prop!r} violated: {witness}")
