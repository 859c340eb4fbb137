"""``tools/cache_reuse.py``: a hit's reuse distance is the puts since its
key's last touch, and the instrument leaves ``BoundedCache`` as it found it."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.crypto import serialize
from repro.crypto.serialize import BoundedCache, canonical_bytes, reset_crypto_caches

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "cache_reuse", ROOT / "tools" / "cache_reuse.py")
cache_reuse = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cache_reuse)


def test_reuse_distance_and_callers():
    methods = {name: BoundedCache.__dict__[name] for name in ("__init__", "get", "put")}
    reset_crypto_caches()
    instrument = cache_reuse.Instrument(serialize, None)
    try:
        cache = BoundedCache(8)
        for key in range(5):
            cache.put(key, key)
        cache.get(0)  # four puts since 0 was put
        cache.get(0)  # none since that hit
        cache.put(5, 5)
        cache.get(4)  # one since 4 was put
        cache.get("absent")  # a miss is not a hit
        value = ("x", (1, 2))
        canonical_bytes(value)  # puts the inner and the outer tuple
        canonical_bytes(value)  # a hit on the outer one
    finally:
        instrument.remove()
        reset_crypto_caches()
    assert {name: BoundedCache.__dict__[name] for name in methods} == methods

    site = next(s for s in instrument.sites.values() if s.size == 8)
    assert (site.instances, site.puts, site.hits, site.peak) == (1, 6, 3, 6)
    assert site.distances == [4, 0, 1]

    encoding = instrument.sites["serialize._ENCODING_CACHE"]
    assert (encoding.puts, encoding.hits, encoding.distances) == (2, 1, [0])
    assert encoding.origins == {"test_reuse_distance_and_callers": [2, 1]}
