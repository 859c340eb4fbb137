"""Simulated unforgeable transferable signatures.

A :class:`SignatureScheme` hands out one :class:`Signer` capability per
process, exactly once; a Byzantine process holds its own signer only and
cannot forge another's signature. Verification needs only the scheme and
the claimed signer id, so signatures are *transferable*, which the L1/L2
proofs of the paper's Algorithm 1 rely on.

Keys and tags live in a :class:`Keyring`, the one root of trust that
TrInc, A2M and the enclaves of :mod:`repro.hardware` share: HMAC-SHA256
over a canonical serialization, keyed per process from ``(domain, seed)``,
so runs are deterministic across platforms.

Hot path: the L1/L2 proof pyramids (and PBFT's all-to-all phases) carry
the *same* signatures to every process. So each scheme keeps a bounded
verdict memo keyed by ``(signer, tag, *parts of the signed tuple)`` under
the rules of :class:`~repro.crypto.serialize.IdentityMemo` (exact-typed
scalars; compound parts by pinned identity once the encoder has proven
them deeply immutable), probed *before* encoding anything: a signature is
HMAC-verified once per scheme, after which a check is a dict probe.
Whatever the memo cannot admit verifies uncached, so cached and uncached
verify are extensionally identical (``tests/test_memo_poisoning.py``).
Malformed tags (wrong type or length) are cheap-rejected before any
serialization or HMAC. All activity is counted in
:data:`repro.crypto.serialize.STATS`.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import SignatureError
from ..types import ProcessId
from .serialize import (
    STATS,
    IdentityMemo,
    caching_enabled,
    canonical_bytes,
)

TAG_LENGTH = hashlib.sha256().digest_size
"""Length of every genuine signature tag (HMAC-SHA256 output, 32 bytes)."""


@dataclass(frozen=True, slots=True)
class Signature:
    """A transferable signature: ``signer`` claims authorship of a payload.

    The payload itself is *not* embedded; protocols carry ``(value,
    signature)`` pairs and verification recomputes the tag from the value.
    ``tag`` is an HMAC output, opaque to protocols.
    """

    signer: ProcessId
    tag: bytes

    def __repr__(self) -> str:
        return f"Signature(signer={self.signer}, tag={self.tag[:4].hex()}…)"


class Keyring:
    """The per-process keys of one root of trust, and all that touches them.

    Keys derive from ``(domain, seed)``: two keyrings of one domain and
    seed mint identical tags, and keyrings of different domains or seeds
    reject each other's. Key bytes never leave the keyring; holders ask
    for a tag over a statement (:meth:`mac`) or whether a tag is genuine
    (:meth:`check`).
    """

    __slots__ = ("n", "_keys")

    def __init__(self, domain: str, n: int, seed: int) -> None:
        self.n = n
        root = hashlib.sha256(f"repro-{domain}|{seed}".encode()).digest()
        self._keys: dict[ProcessId, bytes] = {
            pid: hashlib.sha256(root + pid.to_bytes(8, "big")).digest()
            for pid in range(n)
        }

    def __contains__(self, pid: Any) -> bool:
        try:
            return pid in self._keys
        except TypeError:  # an unhashable "pid"
            return False

    def mac(self, pid: ProcessId, statement: Any) -> bytes:
        """``pid``'s tag of ``statement``: HMAC-SHA256 over its canonical
        encoding. Raises :class:`SignatureError` on a statement that does
        not encode (before counting an HMAC)."""
        body = canonical_bytes(statement)
        STATS.hmac_ops += 1
        return hmac.new(self._keys[pid], body, hashlib.sha256).digest()

    def check(self, pid: ProcessId, statement: Callable[[], Any],
              tag: Any) -> bool:
        """Whether ``tag`` is ``pid``'s tag of ``statement()``.

        Never raises: a statement that cannot be built or encoded (it is
        built here, under the guard, because hashing a wire value can
        raise) and a tag that is not bytes-like both read as forged.
        """
        try:
            return hmac.compare_digest(self.mac(pid, statement()), tag)
        except Exception:
            return False


class Signer:
    """Capability to sign on behalf of one process.

    Instances are only constructed by :meth:`SignatureScheme.signer` and hold
    a reference to the scheme's private key table rather than key bytes, so
    even introspection-free "honest but curious" protocol code cannot leak a
    key through a trace.
    """

    __slots__ = ("_scheme", "_pid", "_revoked")

    def __init__(self, scheme: "SignatureScheme", pid: ProcessId) -> None:
        self._scheme = scheme
        self._pid = pid
        self._revoked = False

    @property
    def pid(self) -> ProcessId:
        return self._pid

    def sign(self, value: Any) -> Signature:
        """Produce a signature of ``value`` by this signer's process."""
        if self._revoked:
            raise SignatureError(f"signer for process {self._pid} was revoked")
        return self._scheme._sign(self._pid, value)

    def revoke(self) -> None:
        """Disable this capability (used by tests modeling key compromise recovery)."""
        self._revoked = True


class SignatureScheme:
    """Deterministic signature scheme for one simulation.

    Parameters
    ----------
    n:
        Number of processes; signer ids are ``0..n-1``.
    seed:
        Seed mixed into every per-process key. Two schemes with the same
        ``(n, seed)`` produce identical signatures, keeping simulations
        reproducible; schemes with different seeds reject each other's
        signatures, modeling distinct PKIs.
    """

    def __init__(self, n: int, seed: int = 0) -> None:
        if n <= 0:
            raise SignatureError(f"scheme needs at least one process, got n={n}")
        self._keyring = Keyring("pki", n, seed)
        self._issued: set[ProcessId] = set()
        # (signer, tag, *parts of the signed tuple) -> bool; one HMAC per
        # unique signature transferred through this scheme's proofs
        self._verdicts = IdentityMemo(1 << 13)
        self.memo = IdentityMemo(1 << 13)
        """Protocol-layer verdict memo (verified L1/L2 proofs, proposal
        validity, …), scoped to this scheme so every run starts cold."""

    @property
    def n(self) -> int:
        return self._keyring.n

    def signer(self, pid: ProcessId) -> Signer:
        """Issue the signing capability for ``pid``; valid at most once per pid.

        The once-only rule catches simulation wiring bugs where two process
        objects believe they are the same principal.
        """
        if pid not in self._keyring:
            raise SignatureError(f"no such process id {pid} (n={self.n})")
        if pid in self._issued:
            raise SignatureError(f"signer for process {pid} already issued")
        self._issued.add(pid)
        return Signer(self, pid)

    def _sign(self, pid: ProcessId, value: Any) -> Signature:
        STATS.signs += 1
        return Signature(signer=pid, tag=self._keyring.mac(pid, value))

    def verify(self, value: Any, signature: Signature) -> bool:
        """Check that ``signature`` is a valid signature of ``value``.

        Returns ``False`` (never raises) for wrong signers, tampered values,
        foreign-scheme signatures, and structurally odd tags — protocols
        treat all of these identically as "invalid signature".

        Tags that are not 32-byte byte strings are rejected before any
        serialization or HMAC work (no genuine tag has another shape).
        Verdicts are memoized per ``(signer, tag, *value)`` when ``value``
        is exactly a ``tuple`` — every signed domain is — under the rules of
        :class:`~repro.crypto.serialize.IdentityMemo`, so relayed proofs cost
        one HMAC per unique signature and a repeated check costs a dict
        probe, not an encoding. Anything else verifies uncached.
        """
        if not isinstance(signature, Signature):
            return False
        tag = signature.tag
        if not isinstance(tag, (bytes, bytearray)) or len(tag) != TAG_LENGTH:
            STATS.cheap_rejects += 1
            return False
        if signature.signer not in self._keyring:
            return False
        caching = caching_enabled()
        parts = None
        if caching and type(value) is tuple:
            parts = (signature.signer, bytes(tag), *value)
            verdict = self._verdicts.get(parts)
            if verdict is not None:
                STATS.verify_hits += 1
                return verdict
        try:
            expected = self._keyring.mac(signature.signer, value)
        except SignatureError:
            return False
        if caching:
            STATS.verify_misses += 1
        verdict = hmac.compare_digest(expected, tag)
        if parts is not None:
            self._verdicts.put(parts, verdict)
        return verdict

    def verify_from(self, signer: ProcessId, value: Any, signature: Any) -> bool:
        """Whether ``signature`` is ``signer``'s signature of ``value``.

        The signed-envelope check every protocol handler applies to an
        untrusted field: it is a :class:`Signature`, it names the expected
        signer, and it verifies — short-circuiting in that order, so a
        mislabelled envelope costs no serialization or HMAC work.
        """
        return (
            isinstance(signature, Signature)
            and signature.signer == signer
            and self.verify(value, signature)
        )

    def verify_signed(self, pair: Any, expected_signer: ProcessId | None = None) -> bool:
        """Verify a ``(value, Signature)`` pair as carried in protocol messages.

        Convenience used by protocol code: checks the pair shape, then
        :meth:`verify_from` against ``expected_signer`` (default: whoever
        the signature itself names).
        """
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        value, signature = pair
        if expected_signer is None:
            expected_signer = getattr(signature, "signer", None)
        return self.verify_from(expected_signer, value, signature)
