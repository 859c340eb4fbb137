"""The encoder kernel against its predecessor: a pinned corpus and a differential.

``repro.crypto.serialize._encode`` was rewritten for speed (exact-type fast
paths, length and small-int tables, an iterator walk). Its bytes are what
every signature and digest in the repository commits to, so two things hold
it in place:

- a corpus covering every tag and every table / threshold boundary, whose
  concatenated encodings hash to a constant computed **at the parent
  commit**, with the old kernel;
- a hypothesis differential against :mod:`tests._parent_encode`, a verbatim
  transcription of the old kernel: same bytes, same immutability verdict,
  same ids admitted to the encoding LRU in the same order, same exceptions.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.srb_from_uni import copy_domain, l1_domain, val_domain
from repro.crypto import serialize
from repro.crypto.serialize import (
    caching_disabled,
    canonical_bytes,
    reset_crypto_caches,
)
from repro.crypto.signatures import SignatureScheme
from repro.errors import SignatureError

from . import _parent_encode as parent


@pytest.fixture(autouse=True)
def _cold_caches():
    reset_crypto_caches()
    parent.ENCODING_CACHE.clear()
    yield
    reset_crypto_caches()
    parent.ENCODING_CACHE.clear()


@dataclass(frozen=True)
class Frozen:
    a: Any
    b: Any


@dataclass(frozen=True, slots=True)
class FrozenSlots:
    a: Any


@dataclass
class Soft:
    a: Any
    b: Any


@dataclass(frozen=True)
class Empty:
    pass


Pair = namedtuple("Pair", "left right")


class MyInt(int):
    pass


class MyStr(str):
    pass


class MyBytes(bytes):
    pass


# -- the pinned corpus --------------------------------------------------------------


def _l2_proof() -> tuple:
    """An Algorithm-1 L2 proof: signatures inside tuples inside tuples."""
    scheme = SignatureScheme(4, seed=7)
    signers = [scheme.signer(i) for i in range(4)]
    sender, k, m = 0, 1, "payload"

    def l1(builder):
        copies = tuple(
            (j, signers[j].sign(copy_domain(sender, k, m))) for j in (1, 2)
        )
        return (builder, copies, signers[builder].sign(l1_domain(sender, k, m)))

    sig_s = signers[sender].sign(val_domain(sender, k, m))
    return ("L2", k, m, sig_s, tuple(l1(b) for b in (1, 2)))


def corpus() -> list:
    deep: Any = "leaf"
    for level in range(200):
        deep = [level, deep] if level % 3 == 0 else (deep, level)
    l2 = _l2_proof()
    return [
        # every tag
        None, True, False, 0, -1, 1.5, 0.0, -0.0, float("inf"), 1e300, "", "s",
        b"", b"b", bytearray(b"ba"), (), [], (1,), [1], frozenset(), {},
        frozenset({1, "1", b"1", (1,)}), {"k": 1, 2: "v", (3,): [4]},
        Frozen(1, "x"), Soft(1, "x"), Empty(), FrozenSlots((1, 2)),
        # the scalar-cache threshold (64) in characters and in bytes
        *["s" * n for n in (63, 64, 65)], *[b"b" * n for n in (63, 64, 65)],
        *["é" * n for n in (63, 64)], *["\U0001d518" * n for n in (63, 64)],
        bytearray(b"x" * 63), bytearray(b"x" * 64),
        # the length table (256)
        *["s" * n for n in (255, 256)], *[b"b" * n for n in (255, 256, 70_000)],
        *[tuple(range(n)) for n in (255, 256)], list(range(256)),
        frozenset(range(256)), {i: i for i in range(256)},
        # the small-int table and what lies either side of it
        *range(-17, 1026), 2 ** 70, -(2 ** 70), 10 ** 254, 10 ** 255, -(10 ** 300),
        # look-alikes the isinstance chain encodes like their base type
        MyInt(7), MyInt(2 ** 70), MyStr("s"), MyStr("s" * 64), MyBytes(b"b"),
        MyBytes(b"b" * 64), Pair(1, (2, 3)), (MyInt(1), True, 1, 1.0),
        # nested proofs, as the protocols build them
        l2, (l2, l2), list(l2), ("MINBFT-REQ", 3, 1, ("put", "k", "v" * 64)),
        ("PBFT-PREPARE", 0, 1024, hashlib.sha256(b"d").digest(), 3),
        # containers in containers, mutable ones at depth
        (1, (2, [3, (4, [5])])), (frozenset({(1, 2), (3,)}), {"a": (1, [2])}),
        (Frozen(Soft(1, 2), (3,)), Soft(Frozen(1, 2), [3])),
        frozenset({Frozen(1, 2), Frozen(1, (2,))}), {"k": frozenset({1, 2})},
        ((), ((), ((), ())), [[], [[]]]), (Frozen(bytearray(b"x"), 1),), deep,
    ]


CORPUS_SHA256 = "c861197eab1ba02abd02d11c313af8f18e471ca8db167f2eae3728ec94122d7d"


def corpus_digest() -> str:
    h = hashlib.sha256()
    for value in corpus():
        h.update(canonical_bytes(value))
    return h.hexdigest()


def test_corpus_encodes_as_at_the_parent():
    assert corpus_digest() == CORPUS_SHA256
    assert corpus_digest() == CORPUS_SHA256  # now through a warm cache
    with caching_disabled():
        assert corpus_digest() == CORPUS_SHA256


# -- the differential ---------------------------------------------------------------

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-20, 1030)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.text(min_size=60, max_size=70)
    | st.text(alphabet="é\U0001d518", min_size=60, max_size=70)
    | st.binary(max_size=8)
    | st.binary(min_size=60, max_size=70)
    | st.binary(min_size=250, max_size=260)
    | st.builds(bytearray, st.binary(max_size=70))
    | st.builds(MyInt, st.integers())
    | st.builds(MyStr, st.text(max_size=70))
    | st.builds(MyBytes, st.binary(max_size=70))
    | st.sampled_from([10 ** 254, 10 ** 255, object(), int, 1j])
)
hashable = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 1030) | st.text(max_size=4)
    | st.binary(max_size=4),
    lambda children: st.tuples(children, children)
    | st.frozensets(children, max_size=3)
    | st.builds(Frozen, children, children),
    max_leaves=6,
)
values = st.recursive(
    scalars | hashable,
    lambda children: st.tuples(children)
    | st.tuples(children, children, children)
    | st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(hashable, children, max_size=3)
    | st.builds(Frozen, children, children)
    | st.builds(FrozenSlots, children)
    | st.builds(Soft, children, children)
    | st.builds(Pair, children, children),
    max_leaves=14,
)


def _run(encode, value):
    out = bytearray()
    try:
        flag = encode(value, out)
    except Exception as exc:  # noqa: BLE001 - the exception is the observation
        return type(exc), None
    return bytes(out), flag


def _admitted(cache) -> list:
    return list(cache._data)


class TestAgainstTheParentKernel:
    @given(values)
    @settings(max_examples=400, deadline=None)
    def test_same_bytes_verdict_admissions_and_exceptions(self, value):
        reset_crypto_caches()
        parent.ENCODING_CACHE.clear()
        for _ in range(2):  # cold, then through whatever was admitted
            old = _run(parent.encode, value)
            new = _run(serialize._encode, value)
            assert new == old
            assert _admitted(serialize._ENCODING_CACHE) == _admitted(
                parent.ENCODING_CACHE
            )

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_same_with_caching_disabled(self, value):
        parent.caching_enabled = False
        try:
            with caching_disabled():
                assert _run(serialize._encode, value) == _run(parent.encode, value)
        finally:
            parent.caching_enabled = True
        assert not _admitted(serialize._ENCODING_CACHE)
        assert not _admitted(parent.ENCODING_CACHE)

    def test_corpus_values_one_by_one(self):
        values = corpus()
        reset_crypto_caches()  # building the proofs signed through the encoder
        for value in values:
            old = _run(parent.encode, value)
            assert _run(serialize._encode, value) == old, repr(value)[:80]
        assert _admitted(serialize._ENCODING_CACHE) == _admitted(
            parent.ENCODING_CACHE
        )

    @pytest.mark.parametrize("scalar", [10 ** 5000, -(10 ** 5000), "lone \ud800"],
                             ids=["huge-int", "huge-negative-int", "surrogate"])
    def test_the_one_deliberate_difference(self, scalar):
        # an int past the ``str()`` digit limit, or a ``str`` UTF-8 cannot
        # carry, raised ValueError out of the old kernel; it is a
        # SignatureError now, like every other value outside the domain
        for value in (scalar, ("x", scalar), [((1, 2), scalar)], Frozen(1, scalar)):
            assert issubclass(_run(parent.encode, value)[0], ValueError)
            assert _run(serialize._encode, value) == (SignatureError, None)
            assert _admitted(serialize._ENCODING_CACHE) == _admitted(
                parent.ENCODING_CACHE
            )

    def test_shared_subtrees_hit_alike(self):
        inner = ("shared", (1, 2), "s" * 64)
        value = (inner, [inner, (inner,)], Frozen(inner, inner))
        for _ in range(2):
            assert _run(serialize._encode, value) == _run(parent.encode, value)
            assert _admitted(serialize._ENCODING_CACHE) == _admitted(
                parent.ENCODING_CACHE
            )

    def test_failure_midway_admits_the_same_prefix(self):
        value = ((1, 2), ("ok", (3,)), object(), (4,))
        assert _run(parent.encode, value) == (SignatureError, None)
        assert _run(serialize._encode, value) == (SignatureError, None)
        admitted = _admitted(serialize._ENCODING_CACHE)
        assert admitted == _admitted(parent.ENCODING_CACHE) and len(admitted) == 3
