"""Regression tests: verdict memos must not be poisonable by look-alikes.

``canonical_bytes`` deliberately erases type distinctions — tuples and
lists encode identically, a dataclass encoding commits only to
``__qualname__`` and field values — while the uncached validators reject
on ``isinstance``. A verdict memo keyed on the serialization alone would
let a Byzantine peer submit a list-shaped (or impostor-dataclass) copy of
a valid proof first, caching the rejection under the same key as the
genuine value, so the genuine proof would be rejected by every later check
on that scheme; the reverse order would get forged shapes accepted. The
memos are therefore keyed on what the validators were actually handed: the
proof and proposal memos on object identity
(:class:`repro.crypto.serialize.IdentityMemo`: only values the encoder has
proven deeply immutable, pinned, scalars by exact type), the USIG memo on
the attestation's own exact-typed scalars, and the signature-verdict memo
of :meth:`SignatureScheme.verify` on the signer, the tag and the *parts* of
the signed tuple under the same ``IdentityMemo`` rules. These tests pin the
end-to-end behavior in both submission orders at every memo site — for
look-alike shapes, look-alike scalars, values mutated after their check,
and recycled object ids.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.apps import make_app
from repro.consensus.minbft import MinBFTReplica
from repro.consensus.pbft import PBFTReplica
from repro.consensus.replica import REQUEST, request_domain
from repro.consensus.usig import UI, USIG, USIGVerifier
from repro.core.srb_from_uni import (
    copy_domain,
    l1_domain,
    val_domain,
    validate_l1_item,
    validate_l2,
)
from repro.crypto.serialize import (
    IdentityMemo,
    caching_disabled,
    canonical_bytes,
    content_hash,
    crypto_stats,
    reset_crypto_caches,
)
from repro.crypto.signatures import Signature, SignatureScheme
from repro.hardware.trinc import TrincAuthority


@pytest.fixture(autouse=True)
def _cold_caches():
    reset_crypto_caches()
    yield
    reset_crypto_caches()


# -- Algorithm-1 proof validators ---------------------------------------------------

SENDER, K, M, T = 0, 1, "payload", 1


def make_scheme() -> tuple[SignatureScheme, list]:
    scheme = SignatureScheme(4, seed=7)
    return scheme, [scheme.signer(i) for i in range(4)]


def build_l1(scheme, signers, builder, copiers) -> tuple:
    copies = tuple(
        (j, signers[j].sign(copy_domain(SENDER, K, M))) for j in copiers
    )
    return (builder, copies, signers[builder].sign(l1_domain(SENDER, K, M)))


def build_l2(scheme, signers) -> tuple:
    sig_s = signers[SENDER].sign(val_domain(SENDER, K, M))
    l1items = tuple(build_l1(scheme, signers, b, (1, 2)) for b in (1, 2))
    return ("L2", K, M, sig_s, l1items)


class TestL1ProofMemo:
    def test_list_shape_serializes_identically(self):
        scheme, signers = make_scheme()
        item = build_l1(scheme, signers, 1, (1, 2))
        assert canonical_bytes(list(item)) == canonical_bytes(item)

    def test_list_shaped_item_does_not_poison_genuine(self):
        scheme, signers = make_scheme()
        item = build_l1(scheme, signers, 1, (1, 2))
        assert validate_l1_item(scheme, SENDER, K, M, list(item), T) is None
        assert validate_l1_item(scheme, SENDER, K, M, item, T) == 1

    def test_genuine_verdict_does_not_leak_to_list_shape(self):
        scheme, signers = make_scheme()
        item = build_l1(scheme, signers, 1, (1, 2))
        assert validate_l1_item(scheme, SENDER, K, M, item, T) == 1
        assert validate_l1_item(scheme, SENDER, K, M, list(item), T) is None

    def test_inner_list_copies_not_accepted_after_genuine(self):
        scheme, signers = make_scheme()
        builder, copies, sig = build_l1(scheme, signers, 1, (1, 2))
        item = (builder, copies, sig)
        assert validate_l1_item(scheme, SENDER, K, M, item, T) == 1
        assert (
            validate_l1_item(scheme, SENDER, K, M, (builder, list(copies), sig), T)
            is None
        )

    def test_cached_verdicts_match_uncached(self):
        scheme, signers = make_scheme()
        item = build_l1(scheme, signers, 1, (1, 2))
        shapes = [item, list(item), (item[0], list(item[1]), item[2])]
        with caching_disabled():
            reference = [
                validate_l1_item(scheme, SENDER, K, M, s, T) for s in shapes
            ]
        for order in (shapes, list(reversed(shapes))):
            fresh, _ = make_scheme()
            got = {id(s): validate_l1_item(fresh, SENDER, K, M, s, T) for s in order}
            assert [got[id(s)] for s in shapes] == reference


class TestL2ProofMemo:
    def test_list_shaped_l1items_do_not_poison_genuine(self):
        scheme, signers = make_scheme()
        payload = build_l2(scheme, signers)
        listy = payload[:4] + (list(payload[4]),)
        assert canonical_bytes(listy) == canonical_bytes(payload)
        assert validate_l2(scheme, SENDER, listy, T) is None
        assert validate_l2(scheme, SENDER, payload, T) == (K, M)

    def test_genuine_verdict_does_not_leak_to_list_shape(self):
        scheme, signers = make_scheme()
        payload = build_l2(scheme, signers)
        listy = payload[:4] + (list(payload[4]),)
        assert validate_l2(scheme, SENDER, payload, T) == (K, M)
        assert validate_l2(scheme, SENDER, listy, T) is None


# -- USIG verified-UI memo ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _ImpostorUI:
    """Byzantine look-alike: same qualname + fields as UI, different class."""

    replica: int
    counter: int
    attestation: Any


_ImpostorUI.__qualname__ = "UI"


class TestUSIGMemo:
    def _parts(self):
        auth = TrincAuthority(2, seed=3)
        return USIG(auth.trinket(0)), USIGVerifier(auth)

    def test_impostor_serializes_identically(self):
        usig, _ = self._parts()
        ui = usig.create_ui("m1")
        fake = _ImpostorUI(ui.replica, ui.counter, ui.attestation)
        assert canonical_bytes((fake, "m1", 0)) == canonical_bytes((ui, "m1", 0))

    def test_impostor_does_not_poison_genuine(self):
        usig, verifier = self._parts()
        ui = usig.create_ui("m1")
        fake = _ImpostorUI(ui.replica, ui.counter, ui.attestation)
        assert verifier.verify_ui(fake, "m1", 0) is False
        assert verifier.verify_ui(ui, "m1", 0) is True

    def test_genuine_verdict_does_not_leak_to_impostor(self):
        usig, verifier = self._parts()
        ui = usig.create_ui("m1")
        fake = _ImpostorUI(ui.replica, ui.counter, ui.attestation)
        assert verifier.verify_ui(ui, "m1", 0) is True
        assert verifier.verify_ui(fake, "m1", 0) is False

    def test_impostor_attestation_rejected_after_genuine(self):
        @dataclass(frozen=True, slots=True)
        class _ImpostorAttestation:
            trinket_id: int
            counter_id: int
            prev: int
            seq: int
            message: Any
            tag: bytes

        _ImpostorAttestation.__qualname__ = "Attestation"
        usig, verifier = self._parts()
        ui = usig.create_ui("m1")
        a = ui.attestation
        fake_att = _ImpostorAttestation(
            a.trinket_id, a.counter_id, a.prev, a.seq, a.message, a.tag
        )
        fake = UI(replica=ui.replica, counter=ui.counter, attestation=fake_att)
        assert canonical_bytes(fake) == canonical_bytes(ui)
        assert verifier.verify_ui(ui, "m1", 0) is True
        assert verifier.verify_ui(fake, "m1", 0) is False


# -- the core's proposal-validity memo, under both replica classes --------------------

CLIENT = 4  # replicas are 0..2 (MinBFT) or 0..3 (PBFT)


def _minbft_replica() -> MinBFTReplica:
    auth = TrincAuthority(3, seed=1)
    scheme = SignatureScheme(5, seed=1)
    return MinBFTReplica(
        3, USIG(auth.trinket(0)), USIGVerifier(auth), scheme,
        scheme.signer(0), make_app("counter"),
    )


def _pbft_replica() -> PBFTReplica:
    scheme = SignatureScheme(5, seed=1)
    return PBFTReplica(4, scheme, scheme.signer(0), make_app("counter"))


def _signed_request(client_signer, op: Any = ("add", 1)) -> tuple:
    return (REQUEST, CLIENT, 1, op, client_signer.sign(request_domain(CLIENT, 1, op)))


class TestMinBFTProposalMemo:
    make_replica = staticmethod(_minbft_replica)

    def _replica_and_request(self):
        replica = self.make_replica()
        return replica, _signed_request(replica.scheme.signer(CLIENT))

    def test_list_shaped_proposal_does_not_block_genuine(self):
        replica, request = self._replica_and_request()
        assert canonical_bytes(list(request)) == canonical_bytes(request)
        # a Byzantine primary prepares the list-shaped copy first; the
        # genuine tuple proposal (e.g. a post-view-change re-proposal) must
        # still validate, or the slot is stuck system-wide
        assert replica._valid_proposal(list(request)) is False
        assert replica._valid_proposal(request) is True

    def test_genuine_verdict_does_not_leak_to_list_shape(self):
        replica, request = self._replica_and_request()
        assert replica._valid_proposal(request) is True
        assert replica._valid_proposal(list(request)) is False


class TestPBFTProposalMemo(TestMinBFTProposalMemo):
    make_replica = staticmethod(_pbft_replica)


# -- scalar look-alikes, mutation after the check, recycled ids -----------------------
#
# The same three questions at each memo site. (1) A scalar that compares and
# hashes like the genuine one but is not of its exact type (``True`` for
# ``1``, an ``int`` subclass, a ``bytearray`` for ``bytes``) must neither
# poison the genuine entry nor inherit it. (2) A value holding something
# mutable, verified and then mutated in place, must get the verdict of its
# current content: it was never admitted. (3) Once an entry is evicted and
# its object freed, a new object at the recycled ``id()`` must not hit.


class _MyInt(int):
    """Equal to, hashing like and encoding like the ``int`` it wraps."""


def _assert_order_independent(check, shapes, fresh):
    """``check(state, shape)`` gives, in either submission order on a fresh
    ``state``, the verdicts of the uncached reference — which must tell the
    first shape (the genuine one) from at least one look-alike."""
    with caching_disabled():
        state = fresh()
        reference = [check(state, s) for s in shapes]
    assert any(v != reference[0] for v in reference[1:])
    for order in (range(len(shapes)), reversed(range(len(shapes)))):
        state = fresh()
        got = {i: check(state, shapes[i]) for i in order}
        assert [got[i] for i in range(len(shapes))] == reference
        # and again, now that whatever is admissible has been admitted
        assert [check(state, s) for s in shapes] == reference


def _recycle(stale_id, make):
    """Allocate ``make()`` objects until one lands on ``stale_id``."""
    keep = []
    for _ in range(2000):
        candidate = make()
        if id(candidate) == stale_id:
            return candidate
        keep.append(candidate)
    pytest.skip("the allocator did not recycle the freed object's id")


class TestUSIGScalarLookalikes:
    def _lookalikes(self, ui):
        a = ui.attestation
        return [
            ui,
            UI(ui.replica, True, dataclasses.replace(a, prev=False, seq=True)),
            UI(True, ui.counter, dataclasses.replace(a, trinket_id=True)),
            UI(ui.replica, _MyInt(1),
               dataclasses.replace(a, prev=_MyInt(0), seq=_MyInt(1))),
            UI(ui.replica, ui.counter,
               dataclasses.replace(a, tag=bytearray(a.tag))),
            UI(ui.replica, ui.counter,
               dataclasses.replace(a, message=bytearray(a.message))),
        ]

    def test_lookalike_scalars_neither_poison_nor_inherit(self):
        auth = TrincAuthority(2, seed=3)
        ui = USIG(auth.trinket(1)).create_ui("m1")  # replica 1, counter 1
        assert ui.counter == 1 and ui.attestation.prev == 0
        shapes = self._lookalikes(ui)
        assert len({canonical_bytes(s) for s in shapes[3:]} | {canonical_bytes(ui)}) == 1
        _assert_order_independent(
            lambda verifier, shape: verifier.verify_ui(shape, "m1", 1),
            shapes, lambda: USIGVerifier(auth),
        )

    def test_only_exact_scalars_enter_the_memo(self):
        auth = TrincAuthority(2, seed=3)
        ui = USIG(auth.trinket(1)).create_ui("m1")
        verifier = USIGVerifier(auth)
        for shape in self._lookalikes(ui)[1:]:
            verifier.verify_ui(shape, "m1", 1)
        assert len(verifier._verified) == 0
        assert verifier.verify_ui(ui, "m1", 1) is True
        assert len(verifier._verified) == 1

    @pytest.mark.parametrize("field", ["tag", "message"])
    def test_mutated_bytearray_gets_its_current_verdict(self, field):
        auth = TrincAuthority(2, seed=3)
        ui = USIG(auth.trinket(0)).create_ui("m1")
        buf = bytearray(getattr(ui.attestation, field))
        soft = UI(0, 1, dataclasses.replace(ui.attestation, **{field: buf}))
        verifier = USIGVerifier(auth)
        assert verifier.verify_ui(soft, "m1", 0) is True
        buf[0] ^= 1
        assert verifier.verify_ui(soft, "m1", 0) is False
        assert verifier.verify_ui(ui, "m1", 0) is True

    def test_mutated_message_gets_its_current_verdict(self):
        auth = TrincAuthority(2, seed=3)
        message = ["PREPARE", 0, 1]
        ui = USIG(auth.trinket(0)).create_ui(message)
        verifier = USIGVerifier(auth)
        assert verifier.verify_ui(ui, message, 0) is True
        message.append("and more")
        assert verifier.verify_ui(ui, message, 0) is False
        message.pop()
        assert verifier.verify_ui(ui, message, 0) is True

    def test_digest_cannot_answer_for_itself(self):
        # a Byzantine replica may attest any object with its own trinket;
        # one whose ``==`` agrees with everything must not make a single UI
        # bind two messages
        class LyingDigest(bytes):
            __hash__ = bytes.__hash__

            def __eq__(self, other):
                return True

            def __ne__(self, other):
                return False

        auth = TrincAuthority(2, seed=3)
        att = auth.trinket(0).attest(1, LyingDigest(content_hash("m1")))
        ui, verifier = UI(0, 1, att), USIGVerifier(auth)
        for _ in range(2):
            assert verifier.verify_ui(ui, "m1", 0) is True
            assert verifier.verify_ui(ui, "m2", 0) is False
        assert len(verifier._verified) == 0  # and a look-alike is not memoized

    def test_evicted_verdict_is_recomputed(self):
        auth = TrincAuthority(2, seed=3)
        usig, verifier = USIG(auth.trinket(0)), USIGVerifier(auth)
        first = usig.create_ui("m1")
        assert verifier.verify_ui(first, "m1", 0) is True
        for i in range(verifier._verified.maxsize + 1):
            message = ("m", i)
            assert verifier.verify_ui(usig.create_ui(message), message, 0) is True
        assert len(verifier._verified) == verifier._verified.maxsize
        forged = UI(0, 1, dataclasses.replace(first.attestation, tag=b"\0" * 32))
        assert verifier.verify_ui(forged, "m1", 0) is False
        assert verifier.verify_ui(first, "m1", 0) is True


class TestL1ScalarLookalikes:
    def test_lookalike_scalars_neither_poison_nor_inherit(self):
        scheme, signers = make_scheme()
        builder, copies, sig = build_l1(scheme, signers, 1, (1, 2))
        soft_sig = Signature(sig.signer, bytearray(sig.tag))
        calls = [
            (SENDER, K, (builder, copies, sig), T),
            (SENDER, True, (builder, copies, sig), T),  # k: True == 1
            (False, K, (builder, copies, sig), T),  # sender: False == 0
            (SENDER, _MyInt(K), (builder, copies, sig), T),
            (SENDER, K, (True, copies, sig), T),  # builder: True == 1
            (SENDER, K, (builder, copies, soft_sig), T),
        ]
        _assert_order_independent(
            lambda s, c: validate_l1_item(s, c[0], c[1], M, c[2], c[3]),
            calls, lambda: make_scheme()[0],
        )

    def test_mutated_value_gets_its_current_verdict(self):
        scheme, signers = make_scheme()
        m = ["payload"]  # signed while it reads ["payload"]
        copies = tuple(
            (j, signers[j].sign(copy_domain(SENDER, K, m))) for j in (1, 2)
        )
        item = (1, copies, signers[1].sign(l1_domain(SENDER, K, m)))
        assert validate_l1_item(scheme, SENDER, K, m, item, T) == 1
        m.append("tampered")
        assert validate_l1_item(scheme, SENDER, K, m, item, T) is None
        m.pop()
        assert validate_l1_item(scheme, SENDER, K, m, item, T) == 1

    def test_mutated_signature_tag_gets_its_current_verdict(self):
        scheme, signers = make_scheme()
        builder, copies, sig = build_l1(scheme, signers, 1, (1, 2))
        tag = bytearray(sig.tag)
        item = (builder, copies, Signature(sig.signer, tag))
        assert validate_l1_item(scheme, SENDER, K, M, item, T) == 1
        tag[0] ^= 1
        assert validate_l1_item(scheme, SENDER, K, M, item, T) is None
        assert validate_l1_item(scheme, SENDER, K, M, (builder, copies, sig), T) == 1

    def test_recycled_id_cannot_hit(self):
        scheme, signers = make_scheme()
        scheme.memo = IdentityMemo(maxsize=2)
        builder, copies, sig = build_l1(scheme, signers, 1, (1, 2))
        assert validate_l1_item(scheme, SENDER, K, M, (builder, copies, sig), T) == 1
        for other in (2, 3):  # two more genuine proofs push the first out
            item = build_l1(scheme, signers, other, (1, 2))
            assert validate_l1_item(scheme, SENDER, K, M, item, T) == other
        assert len(scheme.memo) == 2
        stale, pairs = id(copies), list(copies)
        del copies
        reset_crypto_caches()  # the encoder's own LRU pinned it too
        forged = _recycle(stale, lambda: tuple(pairs[:1] * 2))  # one copier, twice
        assert validate_l1_item(scheme, SENDER, K, M, (builder, forged, sig), T) is None


class TestL2ScalarLookalikes:
    def test_lookalike_scalars_neither_poison_nor_inherit(self):
        scheme, signers = make_scheme()
        payload = build_l2(scheme, signers)
        tag, k, m, sig_s, l1items = payload
        soft_sig = Signature(sig_s.signer, bytearray(sig_s.tag))
        shapes = [
            payload,
            (tag, True, m, sig_s, l1items),
            (tag, _MyInt(k), m, sig_s, l1items),
            (tag, k, m, soft_sig, l1items),
            tuple(payload),  # the same object
            (tag, k, m, sig_s, l1items),  # an equal, distinct one
        ]
        _assert_order_independent(
            lambda s, p: validate_l2(s, SENDER, p, T),
            shapes, lambda: make_scheme()[0],
        )

    def test_mutated_value_gets_its_current_verdict(self):
        scheme, signers = make_scheme()
        m = ["payload"]
        sig_s = signers[SENDER].sign(val_domain(SENDER, K, m))
        l1items = tuple(
            (b, tuple((j, signers[j].sign(copy_domain(SENDER, K, m))) for j in (1, 2)),
             signers[b].sign(l1_domain(SENDER, K, m)))
            for b in (1, 2)
        )
        payload = ("L2", K, m, sig_s, l1items)
        assert validate_l2(scheme, SENDER, payload, T) == (K, m)
        m.append("tampered")
        assert validate_l2(scheme, SENDER, payload, T) is None

    def test_mutated_signature_tag_gets_its_current_verdict(self):
        scheme, signers = make_scheme()
        tag_, k, m, sig_s, l1items = build_l2(scheme, signers)
        tag = bytearray(sig_s.tag)
        payload = (tag_, k, m, Signature(sig_s.signer, tag), l1items)
        assert validate_l2(scheme, SENDER, payload, T) == (K, M)
        tag[0] ^= 1
        assert validate_l2(scheme, SENDER, payload, T) is None

    def test_recycled_id_cannot_hit(self):
        scheme, signers = make_scheme()
        scheme.memo = IdentityMemo(maxsize=4)
        parts = list(build_l2(scheme, signers))
        payload = tuple(parts)
        assert validate_l2(scheme, SENDER, payload, T) == (K, M)
        for i in range(8):  # misses are admitted too: push the payload out
            assert validate_l2(scheme, SENDER, ("L2", K, M, i, ()), T) is None
        stale = id(payload)
        del payload
        reset_crypto_caches()
        forged = _recycle(stale, lambda: tuple(parts[:4] + [()]))  # no L1 proofs
        assert validate_l2(scheme, SENDER, forged, T) is None


class TestMinBFTProposalScalarLookalikes:
    make_replica = staticmethod(_minbft_replica)

    def _replica_and_client(self):
        replica = self.make_replica()
        return replica, replica.scheme.signer(CLIENT)

    def test_lookalike_scalars_neither_poison_nor_inherit(self):
        kind, client, req_id, op, sig = request = _signed_request(
            self._replica_and_client()[1]
        )
        shapes = [
            request,
            (kind, client, True, op, sig),  # req_id: True == 1
            (kind, _MyInt(client), req_id, op, sig),
            (kind, client, req_id, op, Signature(sig.signer, bytearray(sig.tag))),
            ("BATCH", request),
            ("BATCH", request, (kind, client, True, op, sig)),
        ]
        _assert_order_independent(
            lambda replica, p: replica._valid_proposal(p),
            shapes, self.make_replica,
        )

    def test_mutated_op_gets_its_current_verdict(self):
        replica, client = self._replica_and_client()
        op = ["add", 1]
        request = _signed_request(client, op)
        assert replica._valid_proposal(request) is True
        op[1] = 1_000_000
        assert replica._valid_proposal(request) is False

    def test_mutated_signature_tag_gets_its_current_verdict(self):
        replica, client = self._replica_and_client()
        kind, pid, req_id, op, sig = _signed_request(client)
        tag = bytearray(sig.tag)
        request = (kind, pid, req_id, op, Signature(sig.signer, tag))
        assert replica._valid_proposal(request) is True
        tag[0] ^= 1
        assert replica._valid_proposal(request) is False

    def test_recycled_id_cannot_hit(self):
        replica, client = self._replica_and_client()
        replica.scheme.memo = IdentityMemo(maxsize=2)
        request = _signed_request(client)
        assert replica._valid_proposal(request) is True
        for i in range(4):
            assert replica._valid_proposal(
                (REQUEST, CLIENT, 1, ("add", i), None)
            ) is False
        stale, fields = id(request), list(request)
        del request
        reset_crypto_caches()
        forged = _recycle(stale, lambda: tuple(fields[:3] + [("add", 2), fields[4]]))
        assert replica._valid_proposal(forged) is False


class TestPBFTProposalScalarLookalikes(TestMinBFTProposalScalarLookalikes):
    make_replica = staticmethod(_pbft_replica)


# -- the signature-verdict memo of SignatureScheme.verify ---------------------------
#
# The verdict of ``verify(value, signature)`` is a function of the signer's
# key, the *encoding* of ``value`` and the tag. The memo is keyed on the
# signer, the tag's bytes and the parts of ``value`` instead of on the
# encoding, so the look-alike question is the reverse of the validators': two
# values with different encodings (``True`` for ``1``, ``1.0`` for ``1``) must
# never share an entry, and a part that can change its encoding after the
# check (a list, whatever holds one) must never be stored.


class _MyStr(str):
    pass


DIGEST = content_hash("some proposal")
DOMAIN = ("PBFT-PREPARE", 1, 0, DIGEST, ("op", 1))  # as signer 1 signs it


def _calls(sig: Signature) -> list:
    """``(value, signature)`` pairs: the genuine one first, then look-alikes
    of the value, of one part at a time, of the signer and of the tag."""
    tag, view, seq, digest, op = DOMAIN
    return [
        (DOMAIN, sig),
        # same encoding as the genuine value: verifies, cached or not
        (list(DOMAIN), sig),
        ((tag, _MyInt(view), seq, digest, op), sig),
        ((_MyStr(tag), view, seq, digest, op), sig),
        ((tag, view, seq, bytearray(digest), op), sig),
        ((tag, view, seq, digest, list(op)), sig),
        ((tag, view, seq, digest, ("op", _MyInt(1))), sig),
        ((tag, view, seq, digest, tuple(["op", 1])), sig),  # equal, distinct part
        # a different encoding behind an equal-and-hashing-alike part: does not
        ((tag, True, seq, digest, op), sig),
        ((tag, view, False, digest, op), sig),
        ((tag, 1.0, seq, digest, op), sig),
        ((tag, view, 0.0, digest, op), sig),
        ((tag, view, seq, digest, ("op", True)), sig),
        ((tag, view, seq, digest, ("op", 1.0)), sig),
        # look-alike signers reach the same key; look-alike tags the same bytes
        (DOMAIN, Signature(True, sig.tag)),
        (DOMAIN, Signature(_MyInt(1), sig.tag)),
        (DOMAIN, Signature(1.0, sig.tag)),
        (DOMAIN, Signature(1, bytearray(sig.tag))),
        # and the plain negatives
        (DOMAIN, Signature(2, sig.tag)),
        (DOMAIN, Signature(1, bytes(32))),
        (DOMAIN[:4], sig),
    ]


class TestVerifyScalarLookalikes:
    def _scheme_and_sig(self):
        scheme = SignatureScheme(4, seed=7)
        return scheme, scheme.signer(1).sign(DOMAIN)

    def test_lookalikes_neither_poison_nor_inherit(self):
        calls = _calls(self._scheme_and_sig()[1])
        with caching_disabled():
            reference = [SignatureScheme(4, seed=7).verify(*c) for c in calls]
        assert reference == [True] * 8 + [False] * 6 + [True] * 4 + [False] * 3
        _assert_order_independent(
            lambda scheme, call: scheme.verify(*call),
            calls, lambda: SignatureScheme(4, seed=7),
        )

    def test_all_scalar_domain_lookalikes_neither_poison_nor_inherit(self):
        # every part an exact scalar: the memo's flat key, as PBFT's phases use
        tag, view, seq, digest, src = flat = ("PBFT-COMMIT", 1, 0, DIGEST, 1)
        sig = SignatureScheme(4, seed=7).signer(1).sign(flat)
        calls = [(v, sig) for v in [
            flat,
            (tag, _MyInt(view), seq, digest, src),
            (_MyStr(tag), view, seq, digest, src),
            (tag, view, seq, bytearray(digest), src),
            (tag, True, seq, digest, src),
            (tag, view, False, digest, src),
            (tag, view, seq, digest, True),
            (tag, 1.0, seq, digest, src),
            (tag, view, 0.0, digest, src),
        ]] + [(flat, Signature(True, sig.tag)), (flat, Signature(2, sig.tag))]
        with caching_disabled():
            reference = [SignatureScheme(4, seed=7).verify(*c) for c in calls]
        assert reference == [True] * 4 + [False] * 5 + [True, False]
        _assert_order_independent(
            lambda scheme, call: scheme.verify(*call),
            calls, lambda: SignatureScheme(4, seed=7),
        )

    def test_only_exact_and_proven_immutable_parts_enter_the_memo(self):
        scheme, sig = self._scheme_and_sig()
        calls = _calls(sig)
        # every part an exact scalar, or a tuple the encoder proved deeply
        # immutable (a float or an int subclass *inside* one is part of its
        # pinned, immutable content; as a part of its own it has no key)
        admitted = {0, 6, 7, 8, 9, 12, 13, 14, 18, 19, 20}
        for i, call in enumerate(calls):
            before = len(scheme._verdicts)
            scheme.verify(*call)
            assert len(scheme._verdicts) - before == (i in admitted), i
        # 17, the bytearray tag, found the genuine entry: a tag is keyed by
        # the bytes it holds at the time of the call
        assert crypto_stats().verify_hits == 1

    def test_a_hit_costs_no_encoding_and_no_hmac(self):
        scheme, sig = self._scheme_and_sig()
        assert scheme.verify(DOMAIN, sig) is True
        before = crypto_stats()
        assert scheme.verify(tuple(DOMAIN[:4]) + (DOMAIN[4],), sig) is True
        after = crypto_stats()
        assert after.verify_hits == before.verify_hits + 1
        assert (after.serialize_hits, after.serialize_misses, after.hmac_ops) == (
            before.serialize_hits, before.serialize_misses, before.hmac_ops
        )

    def test_mutated_list_part_gets_its_current_verdict(self):
        scheme = SignatureScheme(4, seed=7)
        op = ["add", 1]
        value = ("MINBFT-REQ", 3, 1, op)
        sig = scheme.signer(3).sign(value)
        assert scheme.verify(value, sig) is True
        op[1] = 1_000_000
        assert scheme.verify(value, sig) is False
        op[1] = 1
        assert scheme.verify(value, sig) is True
        assert len(scheme._verdicts) == 0

    def test_mutated_part_at_depth_gets_its_current_verdict(self):
        scheme = SignatureScheme(4, seed=7)
        inner = bytearray(b"abc")
        value = ("SRB-VAL", 0, 1, ("m", (inner,)))
        sig = scheme.signer(0).sign(value)
        assert scheme.verify(value, sig) is True
        inner[0] ^= 1
        assert scheme.verify(value, sig) is False
        assert len(scheme._verdicts) == 0

    def test_mutated_tag_gets_its_current_verdict(self):
        scheme, sig = self._scheme_and_sig()
        tag = bytearray(sig.tag)
        soft = Signature(1, tag)
        assert scheme.verify(DOMAIN, soft) is True
        tag[0] ^= 1
        assert scheme.verify(DOMAIN, soft) is False
        assert scheme.verify(DOMAIN, sig) is True

    def test_recycled_id_cannot_hit(self):
        scheme = SignatureScheme(4, seed=7)
        scheme._verdicts = IdentityMemo(maxsize=2)
        op = tuple(["add", 1])
        sig = scheme.signer(3).sign(("MINBFT-REQ", 3, 1, op))
        assert scheme.verify(("MINBFT-REQ", 3, 1, op), sig) is True
        for i in (2, 3):  # two more verdicts push the first out
            assert scheme.verify(("MINBFT-REQ", 3, i, ("add", i)), sig) is False
        assert len(scheme._verdicts) == 2
        stale = id(op)
        del op
        reset_crypto_caches()  # the encoder's own LRU pinned it too
        forged = _recycle(stale, lambda: tuple(["add", 1_000_000]))
        assert scheme.verify(("MINBFT-REQ", 3, 1, forged), sig) is False

    def test_hit_rechecks_identity(self):
        scheme = SignatureScheme(4, seed=7)
        a, b = tuple(["add", 1]), tuple(["add", 2])
        sig = scheme.signer(3).sign(("MINBFT-REQ", 3, 1, a))
        assert scheme.verify(("MINBFT-REQ", 3, 1, a), sig) is True
        # forge what pinning rules out: b's key leading to a's entry
        memo = scheme._verdicts
        key_of = lambda op: memo._key((3, sig.tag, "MINBFT-REQ", 3, 1, op))  # noqa: E731
        memo._entries.put(key_of(b), memo._entries.get(key_of(a)))
        assert scheme.verify(("MINBFT-REQ", 3, 1, b), sig) is False
        assert scheme.verify(("MINBFT-REQ", 3, 1, a), sig) is True


# generated values, each submitted with look-alike mutations of itself

_exact_scalars = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.binary(max_size=3) | st.sampled_from([0.0, 1.0, -1.0])
)
_parts = st.recursive(
    _exact_scalars,
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.lists(children, max_size=3),
    max_leaves=6,
)


def _lookalikes_of(part: Any) -> list:
    """Values that compare equal to ``part`` (or nearly) under another type."""
    if part is True or part is False:
        return [int(part), float(part)]
    if type(part) is int:
        out = [_MyInt(part), float(part)]
        return out + [bool(part)] if part in (0, 1) else out
    if type(part) is float:
        return [int(part)]
    if type(part) is str:
        return [_MyStr(part), part.encode()]
    if type(part) is bytes:
        return [bytearray(part)]
    if type(part) is tuple:
        return [list(part), tuple(list(part))] + [
            part[:i] + (alt,) + part[i + 1:]
            for i, p in enumerate(part) for alt in _lookalikes_of(p)[:1]
        ]
    if type(part) is list:
        return [tuple(part)]
    return []


class TestVerifyCachedEqualsUncached:
    @given(st.lists(_parts, min_size=1, max_size=5).map(tuple), st.data())
    @settings(max_examples=150, deadline=None)
    def test_over_generated_values_and_their_lookalikes(self, value, data):
        reset_crypto_caches()
        sig = SignatureScheme(3, seed=5).signer(1).sign(value)
        calls = [(value, sig), (tuple(list(value)), sig), (list(value), sig)]
        calls += [(alt, sig) for alt in _lookalikes_of(value)[2:]]
        calls += [
            (value, Signature(True, sig.tag)),
            (value, Signature(1, bytearray(sig.tag))),
            (value, Signature(2, sig.tag)),
        ]
        order = data.draw(st.permutations(range(len(calls))))
        with caching_disabled():
            uncached = SignatureScheme(3, seed=5)
            reference = [uncached.verify(*c) for c in calls]
        assert reference[0] is True
        scheme = SignatureScheme(3, seed=5)
        got = {i: scheme.verify(*calls[i]) for i in order}
        assert [got[i] for i in range(len(calls))] == reference
        # and again, now that whatever is admissible has been admitted
        assert [scheme.verify(*c) for c in calls] == reference
