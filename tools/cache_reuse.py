#!/usr/bin/env python3
"""How far apart the hits of every crypto memo table are, for one workload.

    tools/cache_reuse.py <workload> [--seed S] [--seconds S] [--lru-entries N]

Runs ``benchmarks/e2e/child.py`` of the checkout this file sits in once,
in this process, with every ``repro.crypto.serialize.BoundedCache``
instrumented and grouped by the line that created it: the encoding and
digest LRUs of ``crypto/serialize.py``, each ``SignatureScheme``'s
``_verdicts`` and ``memo``, ``USIGVerifier._verified``, and any other.
Per site it prints the instances created, puts, hits, the most entries
one instance held, the p50 / p99 / max reuse distance of its hits, the
table's shipped size and how many hits were at least that far apart.

A hit's *reuse distance* is the number of puts into the same table
between the key's last touch (a put or a hit) and the hit. It bounds the
LRU's evictions in between: a hit whose distance is below ``maxsize``
survives in an LRU of that size, whatever else is touched meanwhile, and a
hit at or beyond it may be a miss there. ``--lru-entries N`` runs the two
module LRUs at ``N`` entries instead of their shipped size, so a larger
``N`` shows reuse the shipped size cuts off (the other tables keep their
sizes). For those two LRUs it also prints which callers outside the crypto
package caused their puts, how many of the entries each caller put were
ever hit, and what the LRUs hold at the end of the run (encoded bytes,
not counting the values the entries pin).

Puts and hits count table operations, not the ``CryptoStats`` counters: a
nested container the encoder finds in the LRU is a hit here and no
``serialize_hits``. The child's own set-up repetitions (5 to 200 builds,
by host time) put into the tables as well, so those counts can differ by
a few entries between two runs; everything measured after set-up is a
function of the workload and seed. Nothing is added to or changed in
``benchmarks/e2e/``: the child is imported from its directory and its
stdout (one JSON object) is captured and parsed. To read another
checkout, run the copy of this file placed in that checkout's ``tools/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import linecache
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")
MODULE_LRUS = ("_ENCODING_CACHE", "_DIGEST_CACHE")
_ASSIGNED = re.compile(r"^\s*self\.(\w+)\s*(?::[^=]*)?=")


class Site:
    """What every table created at one place did, summed over instances."""

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self.size = size  # the shipped maxsize
        self.instances = 0
        self.puts = 0
        self.hits = 0
        self.peak = 0
        self.distances: list[int] = []
        # for the module LRUs: caller -> [puts, entries later hit]
        self.origins: dict[str, list[int]] | None = None


class Table:
    """One instance's clock: puts so far, and each key's last touch."""

    __slots__ = ("site", "puts", "last")

    def __init__(self, site: Site) -> None:
        self.site = site
        self.puts = 0
        self.last: dict = {}  # key -> [puts at last touch, caller or None]


def _caller(crypto: str) -> str:
    """The first frame outside the crypto package: who asked for the put."""
    f = sys._getframe(2)
    while f is not None and f.f_code.co_filename.startswith(crypto):
        f = f.f_back
    return f.f_code.co_qualname if f is not None else "?"


def _site_name(frame) -> str:
    """``Class.attribute`` for ``self.attribute = ...(...)``, else file:line."""
    code = frame.f_code
    match = _ASSIGNED.match(linecache.getline(code.co_filename, frame.f_lineno))
    if match and "." in code.co_qualname:
        return f"{code.co_qualname.rsplit('.', 1)[0]}.{match.group(1)}"
    where = os.path.relpath(code.co_filename, ROOT)
    return f"{where}:{frame.f_lineno} {code.co_qualname}"


class Instrument:
    """Wraps ``BoundedCache.__init__`` / ``get`` / ``put`` in place."""

    def __init__(self, serialize, lru_entries: int | None) -> None:
        self.serialize = serialize
        self.sites: dict[str, Site] = {}
        self.tables: dict[int, Table] = {}  # id(cache) -> its clock
        cls = serialize.BoundedCache
        self._saved = {name: cls.__dict__[name] for name in ("__init__", "get", "put")}
        for name in MODULE_LRUS:
            cache = getattr(serialize, name)
            site = self._site(f"serialize.{name}", cache.maxsize)
            site.origins = {}
            self._track(cache, site)
            if lru_entries is not None:
                cache.maxsize = lru_entries
        self._install(cls)

    def _site(self, name: str, size: int) -> Site:
        site = self.sites.get(name)
        if site is None:
            site = self.sites[name] = Site(name, size)
        return site

    def _track(self, cache, site: Site) -> None:
        site.instances += 1
        self.tables[id(cache)] = Table(site)

    def _install(self, cls) -> None:
        init, get, put = (self._saved[n] for n in ("__init__", "get", "put"))
        memo_init = self.serialize.IdentityMemo.__init__.__code__
        tables, instrument = self.tables, self
        crypto = os.path.dirname(self.serialize.__file__) + os.sep

        def traced_init(cache, *args, **kwargs) -> None:
            init(cache, *args, **kwargs)
            frame = sys._getframe(1)
            if frame.f_code is memo_init:
                frame = frame.f_back
            name = _site_name(frame)
            instrument._track(cache, instrument._site(name, cache.maxsize))

        def traced_get(cache, key, default=None):
            entry = get(cache, key, default)
            if entry is not default:
                table = tables.get(id(cache))
                touch = table and table.last.get(key)
                if touch is not None:  # None: put before the run started
                    site = table.site
                    site.hits += 1
                    site.distances.append(table.puts - touch[0])
                    touch[0] = table.puts
                    if touch[1] is not None:
                        site.origins[touch[1]][1] += 1
                        touch[1] = None  # count each entry's first hit only
            return entry

        def traced_put(cache, key, value) -> None:
            put(cache, key, value)
            table = tables.get(id(cache))
            if table is None:
                return
            site = table.site
            table.puts += 1
            site.puts += 1
            origin = None
            if site.origins is not None:
                origin = _caller(crypto)
                site.origins.setdefault(origin, [0, 0])[0] += 1
            table.last[key] = [table.puts, origin]
            if len(cache) > site.peak:
                site.peak = len(cache)

        cls.__init__, cls.get, cls.put = traced_init, traced_get, traced_put

    def remove(self) -> None:
        cls = self.serialize.BoundedCache
        for name, fn in self._saved.items():
            setattr(cls, name, fn)


def _percentile(ordered: list[int], q: float) -> int:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0


def run_child(workload: str, seed: int, seconds: float,
              lru_entries: int | None) -> tuple[Instrument, dict]:
    """One in-process child run under the instrument; returns it and the
    child's JSON."""
    sys.path[:0] = [E2E, os.path.join(ROOT, "src")]
    import child
    from repro.crypto import serialize

    instrument = Instrument(serialize, lru_entries)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            child.main(["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds)])
    finally:
        instrument.remove()
    return instrument, json.loads(out.getvalue().strip().splitlines()[-1])


def report(instrument: Instrument) -> list[str]:
    lines = [f"{'site':<32} {'inst':>5} {'puts':>9} {'hits':>9} {'peak':>6} "
             f"{'p50':>5} {'p99':>6} {'max':>6} {'size':>6} {'hits>=size':>10}"]
    for site in instrument.sites.values():
        ordered = sorted(site.distances)
        beyond = len(ordered) - bisect.bisect_left(ordered, site.size)
        lines.append(
            f"{site.name:<32} {site.instances:>5,} {site.puts:>9,} {site.hits:>9,} "
            f"{site.peak:>6,} {_percentile(ordered, 0.5):>5,} "
            f"{_percentile(ordered, 0.99):>6,} {ordered[-1] if ordered else 0:>6,} "
            f"{site.size:>6,} {beyond:>10,}")
    for name in MODULE_LRUS:
        site = instrument.sites[f"serialize.{name}"]
        cache = getattr(instrument.serialize, name)
        lines.append(f"{site.name} puts by caller (entries put / ever hit):")
        top = sorted(site.origins.items(), key=lambda item: -item[1][0])[:5]
        for origin, (puts, hit) in top:
            lines.append(f"  {origin:<44} {puts:>9,} ({puts / site.puts:.0%})"
                         f" / {hit:>7,}")
        held = sum(len(entry[1]) for entry in cache._data.values())
        kind = "encodings" if name == "_ENCODING_CACHE" else "digests"
        lines.append(f"  at the end: {len(cache):,} entries of {cache.maxsize:,}"
                     f" holding {held / 2**20:.2f} MiB of {kind}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--lru-entries", type=int, default=None,
                    help="run the encoding and digest LRUs at this size")
    args = ap.parse_args(argv)

    instrument, result = run_child(args.workload, args.seed, args.seconds,
                                   args.lru_entries)
    lru = instrument.serialize._ENCODING_CACHE.maxsize
    print(f"{args.workload} seed {args.seed} seconds {args.seconds:g}: "
          f"encoding and digest LRUs at {lru:,} entries")
    for line in report(instrument):
        print(line)
    print(f"correct {result['correct']}")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
