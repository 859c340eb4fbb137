"""One root of trust: the :class:`~repro.crypto.signatures.Keyring` behind
signatures, TrInc, A2M and enclaves.

Two halves. The pins fix one tag per root of trust and statement kind at
seed 0, so any change to a domain string, a statement tuple or the order
the encoder sees its parts in shows here (no order hash covers A2M or the
enclaves); they reach no keyring directly, so they hold for any
implementation of the four roots of trust. The never-raise cases feed the
one tag check what a Byzantine sender can put on the wire.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.crypto import signatures
from repro.crypto.serialize import crypto_stats
from repro.crypto.signatures import SignatureScheme
from repro.hardware.a2m import A2MAuthority
from repro.hardware.enclave import EnclaveAuthority, EnclaveProgram
from repro.hardware.trinc import TrincAuthority

#: seed-0 tags (hex), one per root of trust and statement kind
PINNED_TAGS = {
    "signature": "56e2b0ef95cb4cf9cda0034c753ebd759da0fe77f779c916ecaccca20fde35d1",
    "trinc-attest": "7484faa9470f4e7ec6c54e6cbf0e52b1288d306f6bc5b42d63beba02341faba7",
    "trinc-status": "d9aeeba9b6bb173200fed48c08632bab86e26274cafeccfec2df3e0140368961",
    "a2m-lookup": "b437894291df5bb529c7d393ea1fb2ac93b3eed3e25a61a08fcbc29da1964180",
    "a2m-end": "9ca6af906d2a3490420e4990256802f152c49c4acbdab4bc7828d3f9bdfd310e",
    "enclave-output": "5e32d20ce396a34ffaaf7b07839a59c5c645d70ff04964075ff831a461db9126",
}


def minted() -> dict:
    """The statement of each pin, minted by pid 1 of a seed-0, n = 3 root
    of trust, each checked by its own verifier."""
    scheme = SignatureScheme(3, seed=0)
    sig = scheme.signer(1).sign(("value", 1))
    assert scheme.verify(("value", 1), sig)
    trinc = TrincAuthority(3, seed=0)
    trinket = trinc.trinket(1)
    att, status = trinket.attest(1, "m"), trinket.status(nonce="n")
    assert trinc.check(att, 1) and trinc.check_status(status, 1)
    a2m = A2MAuthority(3, seed=0)
    device = a2m.device(1)
    log = device.create_log()
    device.append(log, "a")
    lookup, end = device.lookup(log, 1, nonce="z"), device.end(log, nonce="z")
    assert a2m.check(lookup, 1) and a2m.check(end, 1)
    enclaves = EnclaveAuthority(3, seed=0)
    program = EnclaveProgram("counter-v1", 0, lambda s, x: (s + x, s + x))
    out = enclaves.launch(1, program).invoke(3)
    assert enclaves.check(out, 1, measurement="counter-v1")
    return {
        "signature": sig.tag.hex(),
        "trinc-attest": att.tag.hex(),
        "trinc-status": status.tag.hex(),
        "a2m-lookup": lookup.tag.hex(),
        "a2m-end": end.tag.hex(),
        "enclave-output": out.tag.hex(),
    }


def test_every_root_of_trust_mints_its_pinned_tag():
    assert minted() == PINNED_TAGS


def test_domains_and_seeds_separate_keys():
    keyring = signatures.Keyring
    tags = {keyring(domain, 2, seed).mac(0, ("x",))
            for domain in ("pki", "trinc", "a2m", "enclave")
            for seed in (0, 1)}
    assert len(tags) == 8
    assert keyring("pki", 2, 0).mac(1, ("x",)) == keyring("pki", 2, 0).mac(1, ("x",))


# --- the one tag check never raises ----------------------------------------

@pytest.fixture
def ring():
    return signatures.Keyring("test", 2, 0)


@pytest.mark.parametrize("tag", [
    "not bytes", None, 7, ("a", "tuple"), object(),
], ids=["str", "None", "int", "tuple", "object"])
def test_a_tag_that_is_not_bytes_is_rejected(ring, tag):
    assert not ring.check(0, lambda: ("s",), tag)


def test_a_genuine_tag_checks_and_a_tampered_one_does_not(ring):
    tag = ring.mac(0, ("s",))
    assert ring.check(0, lambda: ("s",), tag)
    assert not ring.check(0, lambda: ("t",), tag)
    assert not ring.check(1, lambda: ("s",), tag)
    assert not ring.check(0, lambda: ("s",), tag[:-1])
    # a str spelling of the genuine tag is not the tag
    assert not ring.check(0, lambda: ("s",), tag.hex())


def test_a_statement_that_cannot_be_built_or_encoded_is_rejected(ring):
    tag = ring.mac(0, ("s",))

    def raises():
        raise RuntimeError("a wire value whose hash raises")

    before = crypto_stats().hmac_ops
    assert not ring.check(0, raises, tag)
    assert not ring.check(0, lambda: (object(),), tag)
    assert crypto_stats().hmac_ops == before  # no HMAC was computed


@pytest.mark.parametrize("pid", [5, -1, "0", [0]], ids=["unknown", "negative",
                                                        "str", "unhashable"])
def test_a_pid_without_a_key_is_rejected(ring, pid):
    assert pid not in ring
    assert not ring.check(pid, lambda: ("s",), ring.mac(0, ("s",)))


def test_one_check_counts_one_hmac(ring):
    tag = ring.mac(0, ("s",))
    before = crypto_stats().hmac_ops
    assert ring.check(0, lambda: ("s",), tag)
    assert not ring.check(0, lambda: ("s",), "not bytes")
    assert crypto_stats().hmac_ops - before == 2


# --- one implementation ----------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
    return names


def test_no_hardware_module_does_its_own_crypto():
    for path in sorted((SRC / "hardware").glob("*.py")):
        assert not {"hmac", "hashlib"} & imported_modules(path), path.name


def test_hmac_is_computed_in_one_place():
    sites = [path.relative_to(SRC).as_posix()
             for path in sorted(SRC.rglob("*.py"))
             if "hmac.new(" in path.read_text()]
    assert sites == ["crypto/signatures.py"]
