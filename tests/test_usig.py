"""Tests for the USIG service and UI-order enforcement."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus.usig import UI, UIOrderEnforcer, USIG, USIGVerifier
from repro.hardware.trinc import TrincAuthority


class _LyingCounter(int):
    """Equal to everything, and one above whatever it is compared with."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    def __sub__(self, other):
        return 0

    __hash__ = int.__hash__


@pytest.fixture
def parts():
    auth = TrincAuthority(2, seed=3)
    usig = USIG(auth.trinket(0))
    verifier = USIGVerifier(auth)
    return auth, usig, verifier


class TestUSIG:
    def test_sequential_counters(self, parts):
        _, usig, verifier = parts
        u1 = usig.create_ui("m1")
        u2 = usig.create_ui("m2")
        assert (u1.counter, u2.counter) == (1, 2)
        assert verifier.verify_ui(u1, "m1", 0)
        assert verifier.verify_ui(u2, "m2", 0)

    def test_binding_to_message(self, parts):
        _, usig, verifier = parts
        ui = usig.create_ui("m1")
        assert not verifier.verify_ui(ui, "m2", 0)

    def test_binding_to_replica(self, parts):
        _, usig, verifier = parts
        ui = usig.create_ui("m")
        assert not verifier.verify_ui(ui, "m", 1)

    def test_counter_tamper_rejected(self, parts):
        _, usig, verifier = parts
        ui = usig.create_ui("m")
        forged = UI(replica=0, counter=5, attestation=ui.attestation)
        assert not verifier.verify_ui(forged, "m", 0)

    def test_gapped_attestation_rejected(self, parts):
        """A UI whose underlying attestation skipped counters is invalid."""
        auth, usig, verifier = parts
        trinket = auth.trinket(1)
        att = trinket.attest(5, __import__("repro.crypto.serialize",
                                           fromlist=["content_hash"]).content_hash("m"))
        gapped = UI(replica=1, counter=5, attestation=att)
        assert not verifier.verify_ui(gapped, "m", 1)

    def test_counter_must_be_an_exact_int(self, parts):
        """An ``int`` subclass that answers ``!=`` and ``-`` for itself must
        not lift one genuine attestation for counter 1 to counter 5."""
        _, usig, verifier = parts
        ui = usig.create_ui("m")
        lying = UI(replica=0, counter=_LyingCounter(5), attestation=ui.attestation)
        assert not verifier.verify_ui(lying, "m", 0)
        assert not verifier.verify_ui(UI(0, True, ui.attestation), "m", 0)
        assert not verifier.verify_ui(
            UI(_LyingCounter(0), 1, ui.attestation), "m", 0)
        assert verifier.verify_ui(ui, "m", 0)  # the genuine UI still verifies

    def test_junk_rejected(self, parts):
        _, usig, verifier = parts
        assert not verifier.verify_ui("junk", "m", 0)
        assert not verifier.verify_ui(UI(0, 1, "not-an-attestation"), "m", 0)
        ui = usig.create_ui("m")
        for tag in (ui.attestation.tag.hex(), None):
            forged = UI(0, 1, replace(ui.attestation, tag=tag))
            assert not verifier.verify_ui(forged, "m", 0)
        assert verifier.verify_ui(ui, "m", 0)

    def test_unserializable_message(self, parts):
        _, usig, verifier = parts
        ui = usig.create_ui("m")
        assert not verifier.verify_ui(ui, object(), 0)


class TestUIOrderEnforcer:
    def test_in_order_release(self):
        out = []
        enf = UIOrderEnforcer()
        release = lambda r, c, item: out.append((r, c, item))
        enf.submit(0, 1, "a", release)
        enf.submit(0, 2, "b", release)
        assert out == [(0, 1, "a"), (0, 2, "b")]

    def test_holdback_until_gap_fills(self):
        out = []
        enf = UIOrderEnforcer()
        release = lambda r, c, item: out.append(c)
        enf.submit(0, 3, "c", release)
        enf.submit(0, 2, "b", release)
        assert out == []
        enf.submit(0, 1, "a", release)
        assert out == [1, 2, 3]

    def test_duplicates_and_replays_dropped(self):
        out = []
        enf = UIOrderEnforcer()
        release = lambda r, c, item: out.append((c, item))
        enf.submit(0, 1, "a", release)
        enf.submit(0, 1, "a-again", release)
        enf.submit(0, 2, "b", release)
        enf.submit(0, 2, "b-later", release)
        assert out == [(1, "a"), (2, "b")]

    def test_streams_independent(self):
        out = []
        enf = UIOrderEnforcer()
        release = lambda r, c, item: out.append((r, c))
        enf.submit(1, 1, "x", release)
        enf.submit(0, 2, "held", release)
        enf.submit(1, 2, "y", release)
        assert out == [(1, 1), (1, 2)]
        assert enf.expected(0) == 1

    @given(st.permutations(list(range(1, 9))))
    @settings(max_examples=40)
    def test_any_arrival_order_releases_in_order(self, order):
        out = []
        enf = UIOrderEnforcer()
        release = lambda r, c, item: out.append(c)
        for c in order:
            enf.submit(0, c, f"m{c}", release)
        assert out == list(range(1, 9))
