"""Canonical, deterministic serialization of protocol values.

Signatures must commit to message *content*, so the library needs a stable
byte encoding for every value protocols exchange. The encoding here is a
small, self-describing tag-length-value format over the closed set of types
the protocols use: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``tuple``/``list`` (encoded identically — protocols treat both as
sequences), frozen dataclasses, ``frozenset`` (sorted by element encoding),
and ``dict`` (sorted by key encoding).

The format is injective on this domain: distinct values produce distinct
bytes, so a signature over :func:`canonical_bytes` is a commitment to the
value itself. This property is exercised by hypothesis tests.

Serialization is the floor every crypto operation stands on — one
Algorithm-1 broadcast serializes the same proof structures at every relay
hop — so the encoder is built for the hot path:

- **iterative spine** — the encoder walks sequences and dataclasses with an
  explicit stack of open containers instead of Python recursion (deep proof
  pyramids stay cheap; sets and maps, whose elements must be encoded
  separately for sorting, recurse and so share the cache). The exact types
  nearly every protocol value is made of (``str``, ``bytes``, ``int``,
  ``tuple``) are dispatched first, lengths below 256 and the small ints
  protocols count with come from tables;
- **identity-keyed memoization** — the simulator passes message objects by
  reference, so the *same* proof tuple reaches every process; encodings are
  kept in a bounded LRU keyed by object identity. Four rules make identity
  keys sound, here and in every table built on them: (1) only values the
  encoder has proven *deeply immutable* are stored — lists, dicts,
  bytearrays, non-frozen dataclasses, and anything containing one never
  are, so a cache can never observe a stale value; (2) the entry pins its
  value, so an id can only be recycled after the entry is evicted; (3)
  every hit re-checks ``is``; (4) a scalar is never looked up by ``==``
  alone (``True == 1``, ``bytearray(b) == b``): it is re-encoded, or keyed
  by exact type and value;
- **digest memoization** — :func:`content_hash` keeps its own identity LRU
  under the same rules;
- **verdict memoization** — :class:`IdentityMemo` applies them to the
  argument tuples of protocol validators (proof and proposal checks) and
  to the parts of a signed tuple
  (:meth:`~repro.crypto.signatures.SignatureScheme.verify`), so a verdict
  lookup is a dict probe and never an encoding. The
  encoding deliberately erases distinctions validators make with
  ``isinstance`` (tuple vs list, dataclass class identity, bytes vs
  bytearray), so a verdict memo keyed on the bytes would let a Byzantine
  look-alike poison the genuine value's entry; a look-alike is a different
  object and never shares one keyed on identity.

Caching changes performance only: cached and uncached encodings are
extensionally identical (hypothesis-tested), and :func:`caching_disabled`
restores the uncached behavior for baselines and A/B benchmarks. All cache
and HMAC activity is counted in the module-global :data:`STATS`
(:class:`CryptoStats`), which the chaos harness snapshots per run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from ..errors import SignatureError

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_SEQ = b"L"
_TAG_SET = b"E"
_TAG_MAP = b"M"
_TAG_DATACLASS = b"C"


# ---------------------------------------------------------------------------
# Stats and cache plumbing
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CryptoStats:
    """Counters for the crypto hot path (serialization, hashing, HMAC).

    One module-global instance (:data:`STATS`) counts process-wide; the
    chaos harness resets it at the start of each run and snapshots it into
    ``ChaosResult.stats["crypto"]``, so per-run numbers are a pure function
    of the run (identical between serial and parallel sweeps).

    ``hmac_ops`` counts every HMAC-SHA256 actually computed — signature
    signing and verification misses, plus the attestations and checks of
    the trusted hardware (TrInc, A2M, enclaves) — the hardware-cost proxy
    behind the benchmark's ``crypto.signatures.hmac_per_op``.
    """

    serialize_hits: int = 0
    serialize_misses: int = 0
    hash_hits: int = 0
    hash_misses: int = 0
    verify_hits: int = 0
    verify_misses: int = 0
    cheap_rejects: int = 0
    hmac_ops: int = 0
    signs: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def snapshot(self) -> "CryptoStats":
        return CryptoStats(**self.as_dict())

    def reset(self) -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, 0)


STATS = CryptoStats()
"""Process-global crypto counters; see :class:`CryptoStats`."""


class BoundedCache:
    """A small LRU: plain dict speed on hit, bounded memory on miss floods.

    Used for every memo table in the crypto stack (encodings, digests,
    verification verdicts, protocol-level proof memos). Entries are evicted
    least-recently-*used* first.
    """

    __slots__ = ("_data", "maxsize")

    def __init__(self, maxsize: int = 1 << 14) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._data: OrderedDict = OrderedDict()
        self.maxsize = maxsize

    def get(self, key: Any, default: Any = None) -> Any:
        data = self._data
        entry = data.get(key, default)
        if entry is not default:
            data.move_to_end(key)
        return entry

    def put(self, key: Any, value: Any) -> None:
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)


#: parts an :class:`IdentityMemo` keys by ``(type, value)``: immutable, and
#: only the *exact* type — ``True == 1`` and ``bytearray(b) == b`` hash
#: alike, and a subclass may override ``__eq__``
_VALUE_KEYED = frozenset({type(None), bool, int, str, bytes})


class IdentityMemo:
    """Verdict memo keyed on *which objects* were checked, not on their bytes.

    A validator's verdict is a pure function of its arguments' content and
    exact types, and the simulator passes messages by reference, so one
    proof reaches every process as the same object: ``get``/``put`` take
    the argument tuple and a lookup is a dict probe, never a serialization.
    The identity rules (see the module docstring) hold per part: a compound
    part is admitted only once the encoder has proven it deeply immutable
    (``put`` runs the encoder if it has not seen the object yet), the entry
    pins every part, a hit re-checks ``is``, and scalars are keyed by exact
    type and value. Anything else — a list, a ``bytearray``, whatever holds
    one, a bare ``float`` or ``int`` subclass, garbage the encoder rejects —
    is never stored, so a value mutated after its check gets the verdict of
    its current content. A structurally equal but distinct object is a
    miss: it is validated once in full and then admitted under its own
    identity. Parts that are all exact scalars — a signed domain tuple such
    as ``(signer, tag, "PBFT-PREPARE", view, seq, digest, src)`` — need none
    of the per-part work: the key is the parts themselves beside their types.
    """

    __slots__ = ("_entries",)

    def __init__(self, maxsize: int = 1 << 13) -> None:
        self._entries = BoundedCache(maxsize)  # key -> (parts, verdict)

    @staticmethod
    def _key(parts: tuple) -> tuple:
        """``(types, values)``: the exact type of every part, and each part
        itself when its type is value-keyed, its ``id`` otherwise. A key
        whose values *are* ``parts`` (no compound among them: the common
        case, decided without a Python-level loop) needs no ``is`` re-check
        and no immutability proof."""
        types = tuple(map(type, parts))
        if _VALUE_KEYED.issuperset(types):
            return types, parts
        return types, tuple(
            [p if t in _VALUE_KEYED else id(p) for t, p in zip(types, parts)]
        )

    def get(self, parts: tuple, default: Any = None) -> Any:
        if not _caching_enabled:
            return default
        key = self._key(parts)
        entry = self._entries.get(key)
        if entry is None:
            return default
        pinned, verdict = entry
        if key[1] is not parts:
            for was, now, tp in zip(pinned, parts, key[0]):
                if was is not now and tp not in _VALUE_KEYED:
                    return default
        return verdict

    def put(self, parts: tuple, verdict: Any) -> None:
        if not _caching_enabled:
            return
        key = self._key(parts)
        if key[1] is not parts:
            for p, tp in zip(parts, key[0]):
                if tp not in _VALUE_KEYED and not _proven_immutable(p):
                    return
        self._entries.put(key, (parts, verdict))

    def __len__(self) -> int:
        return len(self._entries)


#: entries of each identity LRU below, sized by reuse distance: the puts
#: between a key's last touch and its next hit (a hit closer than the size
#: always survives). At seed 0 of the benchmark workloads
#: (``tools/cache_reuse.py``) every encoding hit of srb_sm_burst,
#: minbft_load, mc_equivocation and chaos_campaign comes within 1,156 puts,
#: pbft_load's within 19,918 with a p99 of 4,703, and every digest hit
#: within 2,517. Older entries only pin values no one reads again.
_IDENTITY_LRU_ENTRIES = 1 << 12
_ENCODING_CACHE = BoundedCache(_IDENTITY_LRU_ENTRIES)  # id(value) -> (value, bytes)
_DIGEST_CACHE = BoundedCache(_IDENTITY_LRU_ENTRIES)  # id(value) -> (value, sha256)
_caching_enabled = True


def caching_enabled() -> bool:
    """Whether the crypto memo layer is active (see :func:`set_caching`)."""
    return _caching_enabled


def set_caching(enabled: bool) -> bool:
    """Enable/disable all crypto caches; returns the previous setting.

    Disabling restores the uncached reference behavior (every call
    serializes and HMACs from scratch) — the reference the cached paths are
    tested against. Existing entries are kept but not consulted.
    """
    global _caching_enabled
    previous = _caching_enabled
    _caching_enabled = bool(enabled)
    return previous


@contextmanager
def caching_disabled() -> Iterator[None]:
    """Context manager: run a block with the uncached reference behavior."""
    previous = set_caching(False)
    try:
        yield
    finally:
        set_caching(previous)


def reset_crypto_caches() -> None:
    """Drop all cached encodings/digests and zero :data:`STATS`.

    The chaos harness calls this at the start of every run so per-run cache
    counters — and therefore whole ``ChaosResult``s — are identical whether
    the sweep runs serially or across worker processes.
    """
    _ENCODING_CACHE.clear()
    _DIGEST_CACHE.clear()
    STATS.reset()


def crypto_stats() -> CryptoStats:
    """A snapshot copy of the process-global :data:`STATS`."""
    return STATS.snapshot()


# ---------------------------------------------------------------------------
# The encoder
# ---------------------------------------------------------------------------


#: strings/bytes shorter than this are cheaper to re-encode than to cache
_SCALAR_CACHE_MIN = 64

_pack_length = struct.Struct(">Q").pack
_pack_float = struct.Struct(">d").pack
#: the length prefix of every length below 256: nearly all of them
_LENGTH = tuple(map(_pack_length, range(256)))
#: whole encodings of the ints protocols count with (views, slots, pids, …)
_SMALL_INT = {
    i: _TAG_INT + _LENGTH[len(str(i))] + str(i).encode("ascii")
    for i in range(-16, 1025)
}


def _dataclass_frozen(tp: type) -> bool:
    params = getattr(tp, "__dataclass_params__", None)
    return bool(params is not None and params.frozen)


def _cached_encoding(value: Any) -> Optional[bytes]:
    entry = _ENCODING_CACHE.get(id(value))
    if entry is not None and entry[0] is value:
        return entry[1]
    return None


def _proven_immutable(value: Any) -> bool:
    """Whether the encoder has proven ``value`` deeply immutable (encoding it
    now if it has not met this object, or has since evicted it)."""
    if _cached_encoding(value) is not None:
        return True
    try:
        canonical_bytes(value)
    except Exception:
        # attacker-built values: whatever the encoder cannot finish (foreign
        # types, a dataclass that lost a field, …) is mutable for all we know
        return False
    return _cached_encoding(value) is not None


_type_name = type.__dict__["__name__"].__get__
"""The name of a type, read from its own slot: a metaclass cannot
override this read the way it can override ``tp.__name__``."""


def _unencodable(v: Any) -> SignatureError:
    """A ``str`` UTF-8 cannot carry (a lone surrogate) or an ``int`` past the
    interpreter's ``str()`` digit limit (whose ``repr`` raises as well):
    outside the domain like any foreign type, and reachable from the wire."""
    return SignatureError(
        f"cannot canonically serialize this {_type_name(type(v))}: "
        + ("too many digits" if isinstance(v, int) else ascii(str.__str__(v)))
    )


def _encode(value: Any, out: bytearray) -> bool:
    """Append ``value``'s canonical encoding to ``out``.

    Returns True when ``value`` is *deeply immutable* — the gate for both
    encoding and digest memoization. The walk is iterative over the
    sequence/dataclass spine: ``children`` iterates the open container,
    ``frames`` holds the containers around it, and ``immutable`` is the
    open container's verdict so far. ``frozenset`` and ``dict`` elements
    must be encoded separately (their byte encodings are what gets sorted)
    and go through nested :func:`_encode` calls. The exact types nearly
    every protocol value is made of (short ``str`` / ``bytes``, ``int``,
    ``tuple``) are tested first, by ``type``; subclass instances take the
    ``issubclass`` half of the same branches and are read through their
    base type's own slots (``int.__repr__``, ``str.encode``,
    ``tuple.__iter__``, ``dict.items``, …), never through a method the
    value can override, so a subclass encodes exactly like its base value.
    """
    caching = _caching_enabled
    frames: list = []  # (children, container, start, immutable) of the enclosing ones
    children = iter((value,))
    container, start, immutable = None, 0, True
    while True:
        for v in children:
            tp = type(v)
            if (tp is str or tp is bytes) and len(v) < _SCALAR_CACHE_MIN:
                if tp is str:
                    try:
                        v = v.encode("utf-8")
                    except ValueError:
                        raise _unencodable(v) from None
                    out += _TAG_STR
                else:
                    out += _TAG_BYTES
                out += _LENGTH[len(v)]
                out += v
            elif tp is int or (tp is not bool and issubclass(tp, int)):
                small = _SMALL_INT.get(v) if tp is int else None
                if small is not None:
                    out += small
                    continue
                try:
                    body = b"%d" % v if tp is int else int.__repr__(v).encode("ascii")
                except ValueError:
                    raise _unencodable(v) from None
                n = len(body)
                out += _TAG_INT
                out += _LENGTH[n] if n < 256 else _pack_length(n)
                out += body
            elif tp is tuple or tp is list or issubclass(tp, (tuple, list)):
                if caching:
                    cached = _cached_encoding(v)
                    if cached is not None:
                        out += cached
                        continue
                frames.append((children, container, start, immutable))
                if tp is tuple or tp is list:
                    children, n = iter(v), len(v)
                else:
                    base = tuple if issubclass(tp, tuple) else list
                    children, n = base.__iter__(v), base.__len__(v)
                container, start = v, len(out)
                immutable = tp is tuple or not issubclass(tp, list)
                out += _TAG_SEQ
                out += _LENGTH[n] if n < 256 else _pack_length(n)
                break
            elif v is None:
                out += _TAG_NONE
            elif v is True:
                out += _TAG_TRUE
            elif v is False:
                out += _TAG_FALSE
            elif issubclass(tp, float):
                out += _TAG_FLOAT
                out += _pack_float(v)
            elif issubclass(tp, (str, bytes, bytearray)):
                # long strings are worth an identity-cache entry of their
                # own: payloads embedded in relayed proofs re-encode at every
                # signature check otherwise (str and bytes are immutable)
                soft = issubclass(tp, bytearray)
                base = str if issubclass(tp, str) else bytearray if soft else bytes
                big = caching and not soft and base.__len__(v) >= _SCALAR_CACHE_MIN
                if big:
                    cached = _cached_encoding(v)
                    if cached is not None:
                        out += cached
                        continue
                if base is str:
                    try:
                        body = str.encode(v, "utf-8")
                    except ValueError:
                        raise _unencodable(v) from None
                    encoded = _TAG_STR
                else:
                    body = base.__getitem__(v, slice(None))
                    encoded = _TAG_BYTES
                n = len(body)
                encoded += (_LENGTH[n] if n < 256 else _pack_length(n)) + body
                out += encoded
                if big:
                    _ENCODING_CACHE.put(id(v), (v, encoded))
                if soft:
                    immutable = False
            elif issubclass(tp, frozenset):
                if caching:
                    cached = _cached_encoding(v)
                    if cached is not None:
                        out += cached
                        continue
                mark = len(out)
                hard = True
                items = []
                for item in frozenset.__iter__(v):
                    body = bytearray()
                    hard &= _encode(item, body)
                    items.append(bytes(body))
                items.sort()
                out += _TAG_SET
                out += _pack_length(len(items))
                for item in items:
                    out += _pack_length(len(item))
                    out += item
                if not hard:
                    immutable = False
                elif caching:
                    _ENCODING_CACHE.put(id(v), (v, bytes(out[mark:])))
            elif issubclass(tp, dict):
                # dicts are mutable: encode (through the cache for the
                # elements) but neither store nor allow any enclosing
                # container to be stored
                pairs = []
                for key, val in dict.items(v):
                    kbody = bytearray()
                    _encode(key, kbody)
                    vbody = bytearray()
                    _encode(val, vbody)
                    pairs.append((bytes(kbody), bytes(vbody)))
                pairs.sort()
                out += _TAG_MAP
                out += _pack_length(len(pairs))
                for k, val in pairs:
                    out += _pack_length(len(k))
                    out += k
                    out += _pack_length(len(val))
                    out += val
                immutable = False
            elif dataclasses.is_dataclass(v) and not isinstance(v, type):
                if caching:
                    cached = _cached_encoding(v)
                    if cached is not None:
                        out += cached
                        continue
                fields = dataclasses.fields(v)
                frames.append((children, container, start, immutable))
                children = iter([getattr(v, f.name) for f in fields])
                container, start = v, len(out)
                immutable = _dataclass_frozen(tp)
                name = tp.__qualname__.encode("utf-8")
                out += _TAG_DATACLASS
                out += _pack_length(len(name))
                out += name
                out += _pack_length(len(fields))
                break
            else:
                # named, not shown: a foreign value's repr is its own code
                raise SignatureError(
                    f"cannot canonically serialize value of type {_type_name(tp)}"
                )
        else:
            # ``children`` ran out: the open container is complete
            if not frames:
                return immutable
            if immutable:
                if caching:
                    _ENCODING_CACHE.put(
                        id(container), (container, bytes(out[start:]))
                    )
                children, container, start, immutable = frames.pop()
            else:
                children, container, start, _ = frames.pop()


def canonical_bytes(value: Any) -> bytes:
    """Encode ``value`` into its canonical byte representation.

    Raises :class:`~repro.errors.SignatureError` for values outside the
    supported domain (arbitrary objects, an ``int`` past the interpreter's
    ``str()`` digit limit, a ``str`` UTF-8 cannot carry).
    Identical to the uncached reference encoding for every value; repeated
    calls on the same (immutable) object are O(1) via the identity LRU.
    """
    if _caching_enabled:
        cached = _cached_encoding(value)
        if cached is not None:
            STATS.serialize_hits += 1
            return cached
    out = bytearray()
    _encode(value, out)
    STATS.serialize_misses += 1
    return bytes(out)


def content_hash(value: Any) -> bytes:
    """SHA-256 digest of :func:`canonical_bytes`; used as a compact commitment."""
    if _caching_enabled:
        entry = _DIGEST_CACHE.get(id(value))
        if entry is not None and entry[0] is value:
            STATS.hash_hits += 1
            return entry[1]
    digest = hashlib.sha256(canonical_bytes(value)).digest()
    STATS.hash_misses += 1
    # pin the digest only for values the encoder proved deeply immutable
    # (their encoding is in the cache); scalars hash cheaply anyway
    if _caching_enabled and _cached_encoding(value) is not None:
        _DIGEST_CACHE.put(id(value), (value, digest))
    return digest
