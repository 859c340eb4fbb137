"""Helpers for the process-set partitions the paper's proofs use.

Every separation argument starts by splitting ``range(n)`` into named sets
(Q/C1/C2 in Section 4.1; P/Q in the draft's very-weak-agreement worlds).
:func:`split` builds those sets positionally and validates coverage, so
scenario scripts stay declarative.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError
from ..types import ProcessSet, validate_partition


def split(n: int, sizes: Sequence[int], names: Sequence[str]) -> dict[str, ProcessSet]:
    """Partition ``range(n)`` into consecutive blocks of the given sizes.

    ``sizes`` must sum to ``n`` and match ``names`` in length. Returns a
    mapping from name to :class:`~repro.types.ProcessSet`; ids are assigned
    in order, e.g. ``split(4, [2, 1, 1], ["Q", "C1", "C2"])`` gives
    ``Q={0,1}, C1={2}, C2={3}``.
    """
    if len(sizes) != len(names):
        raise ConfigurationError(
            f"{len(sizes)} sizes but {len(names)} names"
        )
    if sum(sizes) != n:
        raise ConfigurationError(f"sizes {list(sizes)} do not sum to n={n}")
    if any(s < 0 for s in sizes):
        raise ConfigurationError(f"negative set size in {list(sizes)}")
    sets: dict[str, ProcessSet] = {}
    next_pid = 0
    for name, size in zip(names, sizes):
        sets[name] = ProcessSet(name, tuple(range(next_pid, next_pid + size)))
        next_pid += size
    validate_partition(n, sets.values())
    return sets


def srb_separation_sets(n: int, f: int) -> dict[str, ProcessSet]:
    """The Q/C1/C2 split of Section 4.1: |Q|=n-f, |C1|=1, |C2|=f-1.

    Requires ``f > 1`` and ``n > 2f`` — exactly the regime where the
    paper proves SRB cannot implement unidirectionality.
    """
    if f <= 1:
        raise ConfigurationError(
            f"the separation needs f > 1 (got f={f}); "
            "for f=1 the corner case applies (Appendix B)"
        )
    if n <= 2 * f:
        raise ConfigurationError(f"the separation needs n > 2f (got n={n}, f={f})")
    return split(n, [n - f, 1, f - 1], ["Q", "C1", "C2"])

