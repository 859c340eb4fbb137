"""Unit + property tests for canonical serialization."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.usig import USIG, USIGVerifier
from repro.crypto import SignatureScheme
from repro.crypto.serialize import caching_disabled, canonical_bytes, content_hash
from repro.errors import SignatureError
from repro.hardware.trinc import TrincAuthority


@dataclass(frozen=True)
class Point:
    x: int
    y: int


@dataclass(frozen=True)
class Point3:
    x: int
    y: int
    z: int


class TestBasicEncoding:
    def test_none(self):
        assert canonical_bytes(None) == b"N"

    def test_booleans_distinct_from_ints(self):
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(False) != canonical_bytes(0)

    def test_int_zero_vs_negative(self):
        assert canonical_bytes(0) != canonical_bytes(-0 - 1)

    def test_large_ints(self):
        big = 2**200
        assert canonical_bytes(big) != canonical_bytes(big + 1)

    def test_str_bytes_distinct(self):
        assert canonical_bytes("ab") != canonical_bytes(b"ab")

    def test_tuple_list_equivalent(self):
        assert canonical_bytes((1, 2)) == canonical_bytes([1, 2])

    def test_nested_structures(self):
        v1 = ("a", (1, 2), {"k": (3,)})
        v2 = ("a", (1, 2), {"k": (3, None)})
        assert canonical_bytes(v1) != canonical_bytes(v2)

    def test_dict_order_independent(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_frozenset_order_independent(self):
        assert canonical_bytes(frozenset([1, 2, 3])) == canonical_bytes(
            frozenset([3, 1, 2])
        )

    def test_dataclass_fields_encoded(self):
        assert canonical_bytes(Point(1, 2)) != canonical_bytes(Point(2, 1))

    def test_dataclass_type_name_encoded(self):
        class Fake:
            pass

        assert canonical_bytes(Point(1, 2)) != canonical_bytes(Point3(1, 2, 0))

    def test_unsupported_type_raises(self):
        with pytest.raises(SignatureError):
            canonical_bytes(object())

    def test_unsupported_nested_raises(self):
        with pytest.raises(SignatureError):
            canonical_bytes((1, object()))

    def test_content_hash_is_32_bytes(self):
        assert len(content_hash(("x", 1))) == 32

    def test_float_encoding(self):
        assert canonical_bytes(1.5) != canonical_bytes(1.25)
        assert canonical_bytes(1.0) != canonical_bytes(1)


# -- the injectivity-critical cases: container boundaries -----------------------


class TestBoundaryConfusion:
    """Values that naive encodings confuse must stay distinct."""

    def test_tuple_nesting(self):
        assert canonical_bytes(((1,), 2)) != canonical_bytes((1, (2,)))

    def test_string_concatenation(self):
        assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))

    def test_empty_containers(self):
        assert canonical_bytes(()) != canonical_bytes("")
        assert canonical_bytes(()) != canonical_bytes({})
        assert canonical_bytes({}) != canonical_bytes(frozenset())

    def test_str_that_looks_like_int(self):
        assert canonical_bytes("1") != canonical_bytes(1)


# Built-in subclasses that override every method an encoder could read
# them through: each must still encode exactly like its base value.
class LyingInt(int):
    __str__ = __repr__ = lambda self: "5"


class LyingStr(str):
    def encode(self, *args, **kwargs):
        return b"evil"

    def __len__(self):
        return 0

    def __repr__(self):
        raise RuntimeError("read through an override")


class LyingBytes(bytes):
    def __bytes__(self):
        return b"evil"

    def __len__(self):
        return 0


class LyingBytearray(bytearray):
    def __bytes__(self):
        return b"evil"


class LyingTuple(tuple):
    def __iter__(self):
        return iter((5,))

    def __len__(self):
        return 1


class LyingList(list):
    def __iter__(self):
        return iter((5,))

    def __len__(self):
        return 1


class LyingFrozenset(frozenset):
    def __iter__(self):
        return iter((5,))


class LyingDict(dict):
    def items(self):
        return [(5, 5)]


class Spoof:
    """No subclass of anything, but claims ``base`` as its ``__class__``."""

    def __init__(self, base):
        self.base = base

    __class__ = property(lambda self: self.base)
    __str__ = lambda self: "5"
    __float__ = lambda self: 5.0


LOOK_ALIKES = [
    (LyingInt(1), 1),
    (LyingInt(2 ** 70), 2 ** 70),
    (LyingStr("ok"), "ok"),
    (LyingStr("ok" * 40), "ok" * 40),
    (LyingBytes(b"ok"), b"ok"),
    (LyingBytes(b"ok" * 40), b"ok" * 40),
    (LyingBytearray(b"ok"), bytearray(b"ok")),
    (LyingTuple((1, 2)), (1, 2)),
    (LyingList([1, 2]), [1, 2]),
    (LyingFrozenset({1, 2}), frozenset({1, 2})),
    (LyingDict({1: 2}), {1: 2}),
]


class TestSubclassesEncodeAsTheirBase:
    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
    @pytest.mark.parametrize(
        "look, base", LOOK_ALIKES, ids=[type(v).__name__ for v, _ in LOOK_ALIKES]
    )
    def test_encodes_like_base_value(self, look, base, cached):
        def encodings(value):
            return canonical_bytes(value), canonical_bytes(("x", value))

        if cached:
            assert encodings(look) == encodings(base)
            assert encodings(look) == encodings(base)  # and from the cache
        else:
            with caching_disabled():
                assert encodings(look) == encodings(base)

    @pytest.mark.parametrize(
        "value",
        [LyingInt(10 ** 5000), LyingStr("lone \ud800")],
        ids=["huge-int", "surrogate"],
    )
    def test_unencodable_subclass_raises_the_encoders_error(self, value):
        with pytest.raises(SignatureError):
            canonical_bytes(value)

    @pytest.mark.parametrize("base", [int, float, str, tuple])
    def test_class_spoof_rejected(self, base):
        # isinstance() believes a __class__ property; the encoder must not
        assert isinstance(Spoof(base), base)
        with pytest.raises(SignatureError):
            canonical_bytes(Spoof(base))


values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=8)
    | st.binary(max_size=8),
    lambda children: st.tuples(children, children)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)


class TestProperties:
    @given(values)
    @settings(max_examples=200)
    def test_deterministic(self, v):
        assert canonical_bytes(v) == canonical_bytes(v)

    @given(values, values)
    @settings(max_examples=300)
    def test_injective_on_samples(self, a, b):
        if canonical_bytes(a) == canonical_bytes(b):
            # encoding collision implies the values are equal (tuple/list
            # equivalence is intentional; the strategies only make tuples)
            assert a == b

    @given(values)
    @settings(max_examples=100)
    def test_hash_matches_bytes(self, v):
        import hashlib

        assert content_hash(v) == hashlib.sha256(canonical_bytes(v)).digest()


# Foreign values whose own code raises when it is run: rejecting one must
# run none of it, so the rejection is a SignatureError every caller catches.
class RaisingRepr:
    def __repr__(self):
        raise RuntimeError("repr ran")


class RaisingStr:
    def __str__(self):
        raise RuntimeError("str ran")

    __repr__ = __str__


class RaisingNameMeta(type):
    armed = False  # only inside ``armed()``: pytest's reports read __name__

    @property
    def __name__(cls):
        if RaisingNameMeta.armed:
            raise RuntimeError("metaclass __name__ ran")
        return type.__dict__["__name__"].__get__(cls)


class RaisingName(metaclass=RaisingNameMeta):
    pass


class RaisingNameStr(str, metaclass=RaisingNameMeta):
    """Outside the domain the way a lone surrogate is."""


@contextmanager
def armed():
    RaisingNameMeta.armed = True
    try:
        yield
    finally:
        RaisingNameMeta.armed = False


FOREIGN = [RaisingRepr, RaisingStr, RaisingName]


class TestForeignValueRejection:
    @pytest.mark.parametrize("cls", FOREIGN)
    def test_canonical_bytes_raises_signature_error(self, cls):
        for value in (cls(), ("x", cls()), {"k": (1, cls())}):
            with armed(), pytest.raises(SignatureError):
                canonical_bytes(value)
        with armed(), caching_disabled(), pytest.raises(SignatureError):
            canonical_bytes(("x", cls()))

    def test_rejection_names_the_type(self):
        with armed(), pytest.raises(SignatureError, match="RaisingName"):
            canonical_bytes(RaisingName())
        with armed(), pytest.raises(SignatureError, match="RaisingNameStr"):
            canonical_bytes(RaisingNameStr("\ud800"))

    @pytest.mark.parametrize("cls", FOREIGN)
    def test_verify_and_verify_from_return_false(self, cls):
        scheme = SignatureScheme(2, seed=0)
        sig = scheme.signer(0).sign(("x", 1))
        for value in (cls(), ("x", cls())):
            with armed():
                assert scheme.verify(value, sig) is False
                assert scheme.verify_from(0, value, sig) is False

    @pytest.mark.parametrize("cls", FOREIGN)
    def test_verify_ui_returns_false(self, cls):
        auth = TrincAuthority(2, seed=3)
        ui = USIG(auth.trinket(0)).create_ui("m")
        verifier = USIGVerifier(auth)
        for message in (cls(), ("m", cls())):
            with armed():
                assert verifier.verify_ui(ui, message, 0) is False
