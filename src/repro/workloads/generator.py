"""Deterministic client workload generators.

Each generator takes an explicit seed and returns plain op lists for the
:mod:`repro.consensus.apps` state machines, so benches are reproducible
and independent of simulation RNG streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Named workload recipe: ``kind`` + parameters."""

    kind: str
    n_ops: int
    seed: int = 0
    keys: int = 16
    write_ratio: float = 0.5
    zipf_s: float = 1.2
    accounts: int = 8


def uniform_kv(n_ops: int, seed: int = 0, keys: int = 16,
               write_ratio: float = 0.5) -> list[tuple]:
    """Uniform key choice, mixed put/get."""
    rng = random.Random(seed)
    ops: list[tuple] = []
    for i in range(n_ops):
        k = f"k{rng.randrange(keys)}"
        if rng.random() < write_ratio:
            ops.append(("put", k, f"v{seed}-{i}"))
        else:
            ops.append(("get", k))
    return ops


def skewed_kv(n_ops: int, seed: int = 0, keys: int = 16, zipf_s: float = 1.2,
              write_ratio: float = 0.5) -> list[tuple]:
    """Zipf-skewed key popularity (hot keys), mixed put/get."""
    if zipf_s <= 0:
        raise ConfigurationError(f"zipf_s must be positive, got {zipf_s}")
    rng = random.Random(seed)
    weights = [1.0 / ((rank + 1) ** zipf_s) for rank in range(keys)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    ops: list[tuple] = []
    for i in range(n_ops):
        x = rng.random()
        key_idx = next(idx for idx, c in enumerate(cumulative) if x <= c)
        k = f"k{key_idx}"
        if rng.random() < write_ratio:
            ops.append(("put", k, f"v{seed}-{i}"))
        else:
            ops.append(("get", k))
    return ops


def bank_transfers(n_ops: int, seed: int = 0, accounts: int = 8) -> list[tuple]:
    """Open accounts, deposit, then shuffle money around (order-sensitive)."""
    rng = random.Random(seed)
    names = [f"acct{i}" for i in range(accounts)]
    ops: list[tuple] = [("open", a) for a in names]
    ops += [("deposit", a, 100) for a in names]
    while len(ops) < n_ops:
        src, dst = rng.sample(names, 2)
        ops.append(("transfer", src, dst, rng.randrange(1, 50)))
    return ops[:n_ops]


_GENERATORS: dict[str, Callable[..., list[tuple]]] = {
    "uniform-kv": lambda s: uniform_kv(s.n_ops, s.seed, s.keys, s.write_ratio),
    "skewed-kv": lambda s: skewed_kv(s.n_ops, s.seed, s.keys, s.zipf_s, s.write_ratio),
    "bank": lambda s: bank_transfers(s.n_ops, s.seed, s.accounts),
}


def generate_workload(spec: WorkloadSpec) -> list[tuple]:
    """Materialize a :class:`WorkloadSpec` into an op list."""
    try:
        gen = _GENERATORS[spec.kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload kind {spec.kind!r}; available: {sorted(_GENERATORS)}"
        ) from None
    return gen(spec)


# ---------------------------------------------------------------------------
# Open-loop arrivals
# ---------------------------------------------------------------------------


def open_loop_arrivals(
    n_ops: int,
    seed: int = 0,
    rate: float = 10.0,
    kind: str = "uniform-kv",
    **spec_kwargs: Any,
) -> list[tuple[float, tuple]]:
    """A single open-loop workload: ``(arrival_time, op)`` pairs.

    Open-loop means arrivals are paced by an external clock, not by
    response completion — a Poisson process of intensity ``rate`` ops per
    time unit (exponential interarrivals): each op is issued independently
    of every other op's outcome. Ops come from the named closed-loop
    generator; times and ops are both pure functions of ``seed``.
    """
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    ops = generate_workload(WorkloadSpec(kind=kind, n_ops=n_ops, seed=seed,
                                         **spec_kwargs))
    rng = random.Random(seed ^ 0x6F70656E)  # independent of the op stream
    t = 0.0
    arrivals: list[tuple[float, tuple]] = []
    for op in ops:
        t += rng.expovariate(rate)
        arrivals.append((t, op))
    return arrivals


# ---------------------------------------------------------------------------
# Closed-loop tenant workloads (for the serving layer)
# ---------------------------------------------------------------------------


def _tenant_rng(seed: int, tenant_index: int) -> random.Random:
    # per-tenant stream, independent of every other tenant and of the
    # open-loop arrival stream above
    import hashlib

    digest = hashlib.sha256(f"tenant|{seed}|{tenant_index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def tenant_ops(
    tenant_index: int,
    n_ops: int,
    seed: int = 0,
    kind: str = "bank",
    read_ratio: float = 0.3,
) -> list[tuple]:
    """One tenant's closed-loop op stream: private keyspace, mixed reads.

    Closed-loop is the *pacing* model the serving layer's
    :class:`~repro.service.ingress.TenantClient` implements — the next op
    is issued only after the previous one reached a terminal outcome
    (completed, rejected-and-retried, or abandoned), so offered load
    reacts to backpressure instead of accumulating like an open-loop
    stream. This generator supplies the op *content* for that client:
    each tenant works a private account/key (no cross-tenant write
    conflicts, so shedding one tenant never corrupts another's view) with
    ``read_ratio`` of ops being reads — the dimension a brownout keeps
    serving. Pure function of ``(seed, tenant_index)``.
    """
    if not 0 <= read_ratio <= 1:
        raise ConfigurationError(
            f"read_ratio must be in [0, 1], got {read_ratio}"
        )
    if kind not in ("bank", "kv"):
        raise ConfigurationError(
            f"tenant workload kind must be 'bank' or 'kv', got {kind!r}"
        )
    rng = _tenant_rng(seed, tenant_index)
    ops: list[tuple] = []
    if kind == "bank":
        acct = f"tenant{tenant_index}"
        ops.append(("open", acct))
        while len(ops) < n_ops:
            if rng.random() < read_ratio:
                ops.append(("balance", acct))
            else:
                ops.append(("deposit", acct, rng.randrange(1, 20)))
    else:
        key = f"tenant{tenant_index}"
        i = 0
        while len(ops) < n_ops:
            if rng.random() < read_ratio:
                ops.append(("get", key))
            else:
                ops.append(("put", key, f"v{tenant_index}-{i}"))
                i += 1
    return ops[:n_ops]


def tenant_workloads(
    n_tenants: int,
    ops_per_tenant: int,
    seed: int = 0,
    kind: str = "bank",
    read_ratio: float = 0.3,
) -> list[list[tuple]]:
    """Per-tenant op lists for a closed-loop fleet (see :func:`tenant_ops`)."""
    if n_tenants < 1:
        raise ConfigurationError(f"n_tenants must be >= 1, got {n_tenants}")
    return [
        tenant_ops(i, ops_per_tenant, seed=seed, kind=kind,
                   read_ratio=read_ratio)
        for i in range(n_tenants)
    ]
