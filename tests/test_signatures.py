"""Unit + property tests for the simulated signature scheme."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import Signature, SignatureScheme
from repro.errors import SignatureError


class Lying(int):
    """Prints as 5 whatever its value."""

    __str__ = __repr__ = lambda self: "5"


class TestSignVerify:
    def test_roundtrip(self, scheme4):
        signer = scheme4.signer(0)
        sig = signer.sign(("hello", 1))
        assert scheme4.verify(("hello", 1), sig)

    def test_wrong_value_rejected(self, scheme4):
        sig = scheme4.signer(0).sign(("hello", 1))
        assert not scheme4.verify(("hello", 2), sig)

    def test_wrong_signer_claim_rejected(self, scheme4):
        sig = scheme4.signer(0).sign("m")
        forged = Signature(signer=1, tag=sig.tag)
        assert not scheme4.verify("m", forged)

    def test_tag_tamper_rejected(self, scheme4):
        sig = scheme4.signer(0).sign("m")
        bad = Signature(signer=0, tag=bytes(sig.tag[:-1]) + bytes([sig.tag[-1] ^ 1]))
        assert not scheme4.verify("m", bad)

    def test_cross_scheme_rejected(self):
        a = SignatureScheme(2, seed=1)
        b = SignatureScheme(2, seed=2)
        sig = a.signer(0).sign("m")
        assert not b.verify("m", sig)

    def test_same_seed_schemes_compatible(self):
        a = SignatureScheme(2, seed=7)
        b = SignatureScheme(2, seed=7)
        sig = a.signer(0).sign("m")
        assert b.verify("m", sig)

    def test_non_signature_rejected(self, scheme4):
        assert not scheme4.verify("m", "not-a-signature")

    def test_unknown_signer_rejected(self, scheme4):
        sig = Signature(signer=99, tag=b"x" * 32)
        assert not scheme4.verify("m", sig)

    @pytest.mark.parametrize("signer", [[1], {1: 1}, None, "1", 1.5, (1,)])
    def test_odd_signer_verify_false_never_raises(self, scheme4, signer):
        sig = scheme4.signer(1).sign(("m",))
        assert scheme4.verify(("m",), Signature(signer=signer, tag=sig.tag)) is False
        assert scheme4.verify_signed((("m",), Signature(signer, sig.tag))) is False

    def test_unserializable_value_verify_false(self, scheme4):
        sig = scheme4.signer(0).sign("m")
        assert not scheme4.verify(object(), sig)

    @pytest.mark.parametrize("scalar", [10 ** 5000, "lone \ud800"],
                             ids=["huge-int", "surrogate"])
    def test_unencodable_scalar_verify_false_never_raises(self, scheme4, scalar):
        # past the interpreter's int -> str digit limit / not UTF-8: the
        # encoder's own failure type, so every caller's guard covers it
        signer = scheme4.signer(0)
        sig = signer.sign(("x", 1))
        for value in (scalar, ("x", scalar), ("x", ("y", [scalar]))):
            assert scheme4.verify(value, sig) is False
            assert scheme4.verify_from(0, value, sig) is False
            assert scheme4.verify_signed((value, sig)) is False
            with pytest.raises(SignatureError):
                signer.sign(value)

    def test_int_subclass_cannot_borrow_another_values_signature(self, scheme4):
        sig = scheme4.signer(0).sign(("SRB-VAL", 0, 5, "m"))
        assert not scheme4.verify_from(0, ("SRB-VAL", 0, Lying(1), "m"), sig)
        assert scheme4.verify_from(0, ("SRB-VAL", 0, Lying(5), "m"), sig)


class TestCapabilityDiscipline:
    def test_signer_issued_once(self, scheme4):
        scheme4.signer(1)
        with pytest.raises(SignatureError):
            scheme4.signer(1)

    def test_out_of_range_signer(self, scheme4):
        with pytest.raises(SignatureError):
            scheme4.signer(4)

    def test_revoked_signer_refuses(self, scheme4):
        s = scheme4.signer(2)
        s.revoke()
        with pytest.raises(SignatureError):
            s.sign("m")

    def test_empty_scheme_rejected(self):
        with pytest.raises(SignatureError):
            SignatureScheme(0)


class TestVerifySignedPairs:
    def test_pair_shape(self, scheme4):
        s = scheme4.signer(0)
        pair = ("v", s.sign("v"))
        assert scheme4.verify_signed(pair)
        assert scheme4.verify_signed(pair, expected_signer=0)
        assert not scheme4.verify_signed(pair, expected_signer=1)

    def test_malformed_pairs(self, scheme4):
        assert not scheme4.verify_signed("junk")
        assert not scheme4.verify_signed(("v",))
        assert not scheme4.verify_signed(("v", "not-sig"))


class TestUnforgeabilityProperties:
    @given(st.binary(min_size=32, max_size=32))
    @settings(max_examples=100)
    def test_random_tags_never_verify(self, tag):
        scheme = SignatureScheme(2, seed=3)
        real = scheme._sign(0, "m")
        if tag == real.tag:
            return  # astronomically unlikely; not a forgery, it IS the tag
        assert not scheme.verify("m", Signature(signer=0, tag=tag))

    @given(st.integers(0, 3), st.text(max_size=16), st.text(max_size=16))
    @settings(max_examples=100)
    def test_signature_binds_value(self, pid, m1, m2):
        scheme = SignatureScheme(4, seed=5)
        sig = scheme._sign(pid, m1)
        assert scheme.verify(m1, sig)
        if m1 != m2:
            assert not scheme.verify(m2, sig)
