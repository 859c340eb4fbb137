"""Simulated cryptography: canonical serialization and unforgeable signatures.

The paper assumes *unforgeable transferable signatures* (Section 2). This
package provides a deterministic, dependency-free simulation with the same
interface contract:

- :func:`repro.crypto.serialize.canonical_bytes` — stable byte encoding of
  the immutable values protocols exchange, so signatures commit to content.
- :class:`repro.crypto.signatures.SignatureScheme` — issues per-process
  :class:`~repro.crypto.signatures.Signer` capabilities; holding a signer is
  the simulation's model of holding a private key. Verification requires
  only the scheme and the claimed signer id (transferability).

The whole stack is memoized for the hot path (identity-keyed encoding
cache, per-scheme signature-verdict memo) with counters in :data:`STATS`;
:func:`caching_disabled` / :func:`set_caching` restore the uncached
reference behavior for baselines, and :func:`reset_crypto_caches` gives
each chaos run a cold, deterministic cache state.
"""

from .serialize import (
    STATS,
    BoundedCache,
    CryptoStats,
    IdentityMemo,
    caching_disabled,
    caching_enabled,
    canonical_bytes,
    content_hash,
    crypto_stats,
    reset_crypto_caches,
    set_caching,
)
from .signatures import TAG_LENGTH, Signature, SignatureScheme, Signer

__all__ = [
    "canonical_bytes",
    "content_hash",
    "crypto_stats",
    "caching_disabled",
    "caching_enabled",
    "reset_crypto_caches",
    "set_caching",
    "BoundedCache",
    "IdentityMemo",
    "CryptoStats",
    "STATS",
    "Signature",
    "SignatureScheme",
    "Signer",
    "TAG_LENGTH",
]
