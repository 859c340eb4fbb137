"""The crypto cache layer: cached behavior must equal the uncached reference.

The caches are identity-keyed (the verdict memos higher up key scalars by
exact type and value and everything else by identity), so the
property at stake is *extensional equality*: for every value, the cached
``canonical_bytes``/``content_hash``/``verify`` return exactly what the
uncached reference returns — including the adversarial look-alikes
(``True`` vs ``1``, ``0`` vs ``0.0``) whose Python ``==`` would poison a
value-keyed cache.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.serialize import (
    BoundedCache,
    IdentityMemo,
    caching_disabled,
    caching_enabled,
    canonical_bytes,
    content_hash,
    crypto_stats,
    reset_crypto_caches,
)
from repro.crypto.signatures import TAG_LENGTH, Signature, SignatureScheme

values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.text(min_size=64, max_size=80)  # above the scalar-cache threshold
    | st.binary(max_size=8),
    lambda children: st.tuples(children, children)
    | st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)

# the cases a value-keyed (rather than identity-keyed) cache would conflate
LOOKALIKES = [True, 1, 1.0, False, 0, 0.0, -0.0, (True,), (1,), (1.0,)]


class TestCachedEqualsUncached:
    @given(values)
    @settings(max_examples=200)
    def test_canonical_bytes_extensional(self, v):
        with caching_disabled():
            reference = canonical_bytes(v)
        assert canonical_bytes(v) == reference
        # and again, now that the value may sit in the cache
        assert canonical_bytes(v) == reference

    @given(values)
    @settings(max_examples=100)
    def test_content_hash_extensional(self, v):
        with caching_disabled():
            reference = content_hash(v)
        assert content_hash(v) == reference
        assert content_hash(v) == hashlib.sha256(canonical_bytes(v)).digest()

    def test_lookalikes_stay_distinct_through_cache(self):
        # warm the cache with every value, then re-encode: each must keep
        # its own encoding even though many compare Python-equal
        encodings = [canonical_bytes(v) for v in LOOKALIKES]
        assert [canonical_bytes(v) for v in LOOKALIKES] == encodings
        # note list.index uses ==, which is exactly the conflation at stake
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(1) != canonical_bytes(1.0)
        assert canonical_bytes((True,)) != canonical_bytes((1,))

    def test_mutated_list_reencodes(self):
        # mutable containers must never be served from the cache
        inner = [1, 2]
        v = (inner, "x")
        first = canonical_bytes(v)
        inner.append(3)
        assert canonical_bytes(v) != first
        with caching_disabled():
            assert canonical_bytes(v) == canonical_bytes(([1, 2, 3], "x"))

    def test_mutated_bytearray_reencodes(self):
        buf = bytearray(b"a" * 100)
        v = (bytes(b"ctx"), buf)
        first = canonical_bytes(v)
        buf[0] = ord("b")
        assert canonical_bytes(v) != first


class TestStatsAndControls:
    def test_serialize_hit_counted(self):
        reset_crypto_caches()
        v = ("hit", 1, 2)
        canonical_bytes(v)
        before = crypto_stats().serialize_hits
        canonical_bytes(v)
        assert crypto_stats().serialize_hits == before + 1

    def test_caching_disabled_restores_flag(self):
        assert caching_enabled()
        with caching_disabled():
            assert not caching_enabled()
        assert caching_enabled()

    def test_reset_zeroes_stats(self):
        canonical_bytes(("something", 42))
        reset_crypto_caches()
        s = crypto_stats()
        assert s.serialize_misses == 0 and s.hmac_ops == 0

    def test_bounded_cache_evicts_oldest(self):
        c = BoundedCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)
        assert len(c) == 2
        assert c.get("a") is None
        assert c.get("c") == 3


class TestIdentityMemo:
    """The four identity rules, on the helper itself (the protocol-level
    consequences are in ``tests/test_memo_poisoning.py``)."""

    def test_same_object_hits_equal_object_misses(self):
        memo = IdentityMemo()
        a, b = tuple([1, "x"]), tuple([1, "x"])
        assert a == b and a is not b
        memo.put(("kind", a, 7), "verdict")
        assert memo.get(("kind", a, 7)) == "verdict"
        assert memo.get(("kind", b, 7)) is None
        assert memo.get(("kind", a, 8), "miss") == "miss"

    def test_scalars_are_keyed_by_exact_type_and_value(self):
        memo = IdentityMemo()
        memo.put((1, b"ab", "s", None), "exact")
        # equal by value but built apart: scalars are not keyed by identity
        assert memo.get((int("1"), bytes(bytearray(b"ab")), "".join("s"), None)) == "exact"
        for lookalike in [(True, b"ab", "s", None), (1.0, b"ab", "s", None),
                          (1, bytearray(b"ab"), "s", None)]:
            assert lookalike == (1, b"ab", "s", None)  # and yet:
            assert memo.get(lookalike) is None

    def test_all_scalar_parts_take_the_flat_key(self):
        memo = IdentityMemo()
        parts = ("kind", 1, True, None, b"ab")
        types, values = memo._key(parts)
        assert values is parts  # no per-part rewrite, nothing to re-check
        assert types == (str, int, bool, type(None), bytes)
        memo.put((1, True), "int-bool")
        memo.put((1, 1), "int-int")
        memo.put((True, 1), "bool-int")
        assert len(memo) == 3
        assert memo.get((1, True)) == "int-bool"
        assert memo.get((1, 1)) == "int-int"
        assert memo.get((True, 1)) == "bool-int"
        assert memo.get((True, True)) is None
        assert memo.get((1, 1.0)) is None and memo.get((1.0, 1)) is None

    def test_a_compound_part_takes_the_identity_key(self):
        memo = IdentityMemo()
        op = tuple(["add", 1])
        types, values = memo._key(("kind", 7, op))
        assert types == (str, int, tuple) and values == ("kind", 7, id(op))
        # an id is an int, and so is a scalar part: the types tell them apart
        memo.put(("kind", 7, op), "compound")
        assert memo.get(("kind", 7, id(op))) is None
        memo.put(("kind", 7, id(op)), "scalar")
        assert memo.get(("kind", 7, op)) == "compound"
        assert memo.get(("kind", 7, id(op))) == "scalar"

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_float_is_never_stored(self, zero):
        memo = IdentityMemo()
        memo.put(("kind", 0), "exact")
        memo.put(("kind", zero), "float")
        assert len(memo) == 1
        assert memo.get(("kind", zero)) is None
        assert memo.get(("kind", 0)) == "exact"
        assert memo.get(("kind", False)) is None

    @pytest.mark.parametrize("part", [
        [1, 2], (1, [2]), bytearray(b"x"), (bytearray(b"x"),), {"k": 1}, 1.5,
        object(), (object(),), type("SoftInt", (int,), {})(3),
        (10 ** 5000,),  # past the int -> str digit limit: the encoder raises
    ], ids=["list", "nested-list", "bytearray", "nested-bytearray", "dict",
            "float", "object", "nested-object", "int-subclass", "huge-int"])
    def test_only_encoder_proven_immutable_parts_are_admitted(self, part):
        memo = IdentityMemo()
        memo.put(("kind", part), True)  # never raises, never stores
        assert len(memo) == 0
        assert memo.get(("kind", part)) is None

    def test_entry_pins_its_parts(self):
        import gc
        import weakref
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Pinned:  # tuples cannot be weakly referenced
            x: int

        memo = IdentityMemo(maxsize=1)
        part = Pinned(1)
        alive = weakref.ref(part)
        memo.put((part,), True)
        del part
        reset_crypto_caches()  # drop the encoder's own pin
        gc.collect()
        assert alive() is not None  # so its id cannot be recycled while stored
        memo.put((tuple([3]),), True)  # evicts
        gc.collect()
        assert alive() is None

    def test_hit_rechecks_identity(self):
        memo = IdentityMemo()
        a, b = tuple([1]), tuple([2])
        memo.put((a,), "about a")
        # forge what pinning rules out: b's key leading to a's entry
        memo._entries.put(memo._key((b,)), memo._entries.get(memo._key((a,))))
        assert memo.get((b,)) is None
        assert memo.get((a,)) == "about a"

    def test_bounded_and_disabled(self):
        memo = IdentityMemo(maxsize=3)
        parts = [tuple([i]) for i in range(10)]
        for p in parts:
            memo.put((p,), True)
        assert len(memo) == 3 and memo.get((parts[0],)) is None
        with caching_disabled():
            assert memo.get((parts[-1],)) is None
            memo.put((parts[0],), True)
        assert memo.get((parts[-1],)) is True and memo.get((parts[0],)) is None


class TestVerifyCache:
    def test_verify_cached_equals_uncached(self, scheme4):
        signer = scheme4.signer(1)
        msg = ("vote", 7, "value")
        sig = signer.sign(msg)
        with caching_disabled():
            reference = (
                scheme4.verify(msg, sig),
                scheme4.verify(("vote", 7, "other"), sig),
                scheme4.verify(msg, Signature(signer=2, tag=sig.tag)),
            )
        assert reference == (True, False, False)
        for _ in range(2):  # second pass is served from the cache
            assert scheme4.verify(msg, sig) is True
            assert scheme4.verify(("vote", 7, "other"), sig) is False
            assert scheme4.verify(msg, Signature(signer=2, tag=sig.tag)) is False

    def test_verify_hit_skips_hmac(self, scheme4):
        reset_crypto_caches()
        signer = scheme4.signer(0)
        msg = ("m", 1)
        sig = signer.sign(msg)
        assert scheme4.verify(msg, sig)
        ops = crypto_stats().hmac_ops
        assert scheme4.verify(msg, sig)
        assert crypto_stats().hmac_ops == ops  # hit: no new HMAC
        assert crypto_stats().verify_hits >= 1

    @given(st.binary(max_size=64).filter(lambda b: len(b) != TAG_LENGTH))
    @settings(max_examples=50)
    def test_malformed_tag_lengths_rejected(self, tag):
        scheme = SignatureScheme(3, seed=5)
        reset_crypto_caches()
        sig = Signature(signer=0, tag=tag)
        assert scheme.verify(("m",), sig) is False
        assert crypto_stats().cheap_rejects >= 1
        assert crypto_stats().hmac_ops == 0  # rejected before any HMAC

    @pytest.mark.parametrize(
        "tag", ["not-bytes", 123, None, ("t",), b"", b"short",
                b"x" * (TAG_LENGTH + 1)]
    )
    def test_malformed_tags_return_false_never_raise(self, scheme4, tag):
        assert scheme4.verify("msg", Signature(signer=0, tag=tag)) is False

    def test_bytearray_tag_of_right_length_still_verifies(self, scheme4):
        signer = scheme4.signer(3)
        sig = signer.sign("payload")
        assert scheme4.verify(
            "payload", Signature(signer=3, tag=bytearray(sig.tag))
        )
