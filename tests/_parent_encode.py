"""The encoder as it stood before the kernel rewrite, kept as a test oracle.

``encode`` is a verbatim transcription of ``repro.crypto.serialize._encode``
at the parent of the commit that replaced its body (exact-type fast paths,
length and small-int tables, an iterator walk instead of a value stack). It
is not importable from ``src/``: it exists so that
``tests/test_serialize.py`` can compare the shipped kernel with it — bytes,
immutability verdict, the ids admitted to the encoding LRU and the
exceptions — over generated values. It carries its own LRU and its own
enabled flag so a comparison never shares state with the code under test.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Optional

from repro.crypto import serialize
from repro.crypto.serialize import BoundedCache
from repro.errors import SignatureError

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

_SCALAR_CACHE_MIN = 64

# id(value) -> (value, bytes), sized like the shipped LRU so that a comparison
# of the ids the two admit stays like for like once either one evicts
ENCODING_CACHE = BoundedCache(serialize._ENCODING_CACHE.maxsize)
caching_enabled = True


def _encode_length(out: bytearray, n: int) -> None:
    out += struct.pack(">Q", n)


def _dataclass_frozen(tp: type) -> bool:
    params = getattr(tp, "__dataclass_params__", None)
    return bool(params is not None and params.frozen)


class _Frame:
    __slots__ = ("value", "start", "immutable")

    def __init__(self, value: Any, start: int, immutable: bool) -> None:
        self.value = value
        self.start = start
        self.immutable = immutable


class _End:
    __slots__ = ()


_END = _End()


def _cached_encoding(value: Any) -> Optional[bytes]:
    entry = ENCODING_CACHE.get(id(value))
    if entry is not None and entry[0] is value:
        return entry[1]
    return None


def encode(value: Any, out: bytearray) -> bool:
    root = _Frame(None, 0, True)
    frames = [root]
    stack = [value]
    while stack:
        v = stack.pop()
        if v is _END:
            frame = frames.pop()
            if frame.immutable:
                if caching_enabled:
                    ENCODING_CACHE.put(
                        id(frame.value), (frame.value, bytes(out[frame.start:]))
                    )
            else:
                frames[-1].immutable = False
            continue
        if v is None:
            out += _TAG_NONE
        elif v is True:
            out += _TAG_TRUE
        elif v is False:
            out += _TAG_FALSE
        elif isinstance(v, int):
            body = str(v).encode("ascii")
            out += _TAG_INT
            _encode_length(out, len(body))
            out += body
        elif isinstance(v, float):
            out += _TAG_FLOAT
            out += struct.pack(">d", v)
        elif isinstance(v, str):
            big = len(v) >= _SCALAR_CACHE_MIN
            if big and caching_enabled:
                cached = _cached_encoding(v)
                if cached is not None:
                    out += cached
                    continue
            start = len(out)
            body = v.encode("utf-8")
            out += _TAG_STR
            _encode_length(out, len(body))
            out += body
            if big and caching_enabled:
                ENCODING_CACHE.put(id(v), (v, bytes(out[start:])))
        elif isinstance(v, (bytes, bytearray)):
            big = len(v) >= _SCALAR_CACHE_MIN and not isinstance(v, bytearray)
            if big and caching_enabled:
                cached = _cached_encoding(v)
                if cached is not None:
                    out += cached
                    continue
            start = len(out)
            out += _TAG_BYTES
            _encode_length(out, len(v))
            out += bytes(v)
            if big and caching_enabled:
                ENCODING_CACHE.put(id(v), (v, bytes(out[start:])))
            if isinstance(v, bytearray):
                frames[-1].immutable = False
        elif isinstance(v, (tuple, list)):
            if caching_enabled:
                cached = _cached_encoding(v)
                if cached is not None:
                    out += cached
                    continue
            frames.append(_Frame(v, len(out), not isinstance(v, list)))
            out += _TAG_SEQ
            _encode_length(out, len(v))
            stack.append(_END)
            stack.extend(reversed(v))
        elif isinstance(v, frozenset):
            if caching_enabled:
                cached = _cached_encoding(v)
                if cached is not None:
                    out += cached
                    continue
            start = len(out)
            immutable = True
            encoded = []
            for item in v:
                body = bytearray()
                immutable &= encode(item, body)
                encoded.append(bytes(body))
            encoded.sort()
            out += _TAG_SET
            _encode_length(out, len(encoded))
            for item in encoded:
                _encode_length(out, len(item))
                out += item
            if immutable:
                if caching_enabled:
                    ENCODING_CACHE.put(id(v), (v, bytes(out[start:])))
            else:
                frames[-1].immutable = False
        elif isinstance(v, dict):
            items = []
            for key, val in v.items():
                kbody = bytearray()
                encode(key, kbody)
                vbody = bytearray()
                encode(val, vbody)
                items.append((bytes(kbody), bytes(vbody)))
            items.sort()
            out += _TAG_MAP
            _encode_length(out, len(items))
            for k, val in items:
                _encode_length(out, len(k))
                out += k
                _encode_length(out, len(val))
                out += val
            frames[-1].immutable = False
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            if caching_enabled:
                cached = _cached_encoding(v)
                if cached is not None:
                    out += cached
                    continue
            frames.append(_Frame(v, len(out), _dataclass_frozen(type(v))))
            name = type(v).__qualname__.encode("utf-8")
            out += _TAG_DATACLASS
            _encode_length(out, len(name))
            out += name
            fields = dataclasses.fields(v)
            _encode_length(out, len(fields))
            stack.append(_END)
            for f in reversed(fields):
                stack.append(getattr(v, f.name))
        else:
            raise SignatureError(
                f"cannot canonically serialize value of type {type(v).__name__}: {v!r}"
            )
    return root.immutable
