"""System builders wiring replicas, clients, hardware, and the simulator."""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..crypto.signatures import SignatureScheme
from ..errors import ConfigurationError
from ..hardware.trinc import TrincAuthority
from ..sim.adversary import Adversary, ReliableAsynchronous
from ..sim.process import Process
from ..sim.runner import Simulation
from .apps import make_app
from .client import BFTClient
from .minbft import MinBFTReplica
from .pbft import PBFTReplica
from .usig import USIG, USIGVerifier


def default_workload(client_index: int, n_ops: int, app: str) -> list[tuple]:
    """A deterministic per-client op list for the named app."""
    if app == "counter":
        return [("add", 1 + (client_index + i) % 3) for i in range(n_ops)]
    if app == "kv":
        return [
            ("put", f"k{(client_index * 7 + i) % 5}", f"v{client_index}-{i}")
            for i in range(n_ops)
        ]
    if app == "bank":
        ops: list[tuple] = [("open", f"acct{client_index}")]
        ops += [("deposit", f"acct{client_index}", 10) for _ in range(n_ops - 1)]
        return ops[:n_ops]
    raise ConfigurationError(f"no default workload for app {app!r}")


def build_minbft_system(
    **options: Any,
) -> tuple[Simulation, list[MinBFTReplica], list[BFTClient]]:
    """A ready-to-run MinBFT deployment: n = 2f+1 replicas with USIGs, and
    clients (``options``: see :func:`_build_system`)."""
    return _build_system(MinBFTReplica, lambda f: 2 * f + 1, usig_hardware,
                         **options)


def build_pbft_system(
    **options: Any,
) -> tuple[Simulation, list[PBFTReplica], list[BFTClient]]:
    """A ready-to-run PBFT deployment: n = 3f+1 replicas, no trusted
    hardware, and clients (``options``: see :func:`_build_system`)."""
    return _build_system(PBFTReplica, lambda f: 3 * f + 1,
                         lambda n, seed: [{}] * n, **options)


def usig_hardware(n: int, seed: int) -> list[dict]:
    """What MinBFT adds to a deployment: one USIG per replica over a shared
    TrInc authority, and the verifier everyone checks UIs against."""
    authority = TrincAuthority(n, seed=seed)
    verifier = USIGVerifier(authority)
    return [
        {"usig": USIG(authority.trinket(pid)), "verifier": verifier}
        for pid in range(n)
    ]


def _build_system(
    replica_cls: type,
    group_size: Callable[[int], int],
    hardware: Callable[[int, int], list[dict]],
    *,
    f: int = 1,
    n_clients: int = 1,
    ops_per_client: int = 5,
    app: str = "counter",
    seed: int = 0,
    adversary: Adversary | None = None,
    req_timeout: float = 60.0,
    retry_timeout: float = 150.0,
    replica_factory: Optional[Callable[..., Process]] = None,
    replica_wrapper: Optional[Callable[[int, Process], Process]] = None,
    workloads: Optional[Sequence[Sequence[tuple]]] = None,
    reliable: bool | dict = False,
    trace_retention: Optional[int] = None,
    observers: Sequence[Any] = (),
    timeout_policy: Optional[Callable[[], Any]] = None,
    replica_options: Optional[dict] = None,
    client_options: Optional[dict] = None,
    client_arrivals: Optional[Sequence[Sequence[tuple]]] = None,
) -> tuple[Simulation, list, list[BFTClient]]:
    """The one builder behind both entry points: ``n = group_size(f)``
    replicas of ``replica_cls`` — ``hardware(n, seed)`` supplies each one's
    trusted component as constructor keywords, if the protocol has one —
    and ``n_clients`` clients, in one simulation.

    ``replica_factory(pid, **kwargs)`` substitutes custom (e.g. Byzantine)
    replicas for chosen pids, given ``replica_cls``'s keyword arguments.
    ``replica_wrapper(pid, replica)`` wraps replicas *after* construction
    (the attack library's :class:`~repro.faults.attacks.AttackerProcess`;
    return the rest unchanged), inside any ``reliable`` layer, so filters
    see protocol messages, not retransmission frames.

    ``replica_options`` / ``client_options`` forward extra keyword
    arguments to every replica (``checkpoint_interval``, ``window_size``,
    ``batching``, ``batch_policy``, ...) / client (``max_outstanding``,
    ``retry_budget``, ...). ``client_arrivals`` gives each client an
    open-loop arrival stream (one ``[(t, op), ...]`` list per client,
    overriding ``workloads``) — see :class:`~repro.consensus.client.BFTClient`.

    ``timeout_policy`` is a zero-argument factory (see
    :func:`~repro.faults.timeouts.make_policy_factory`) called once per
    replica and client, so per-process RTT state never aliases; ``None``
    keeps the fixed ``req_timeout`` / ``retry_timeout``.
    ``trace_retention`` / ``observers`` pass through to
    :class:`~repro.sim.runner.Simulation` (a bounded trace ring buffer,
    streaming :class:`~repro.sim.trace.TraceObserver` checkers).
    ``reliable`` hosts every process behind a
    :class:`~repro.faults.channel.ReliableProcess` (a dict forwards
    ReliableChannel options) — required for liveness under the lossy
    adversaries of :mod:`repro.faults`. The returned lists always hold the
    inner replica / client objects.
    """
    if f < 1:
        raise ConfigurationError(f"f must be >= 1, got {f}")
    n = group_size(f)
    scheme = SignatureScheme(n + n_clients, seed=seed)
    trusted = hardware(n, seed)

    replicas: list = []
    for pid in range(n):
        kwargs = dict(
            n=n,
            **trusted[pid],
            scheme=scheme,
            signer=scheme.signer(pid),
            app=make_app(app),
            req_timeout=req_timeout,
            timeout_policy=timeout_policy,
            **(replica_options or {}),
        )
        replicas.append(replica_factory(pid, **kwargs) if replica_factory
                        else replica_cls(**kwargs))

    clients: list[BFTClient] = []
    for c in range(n_clients):
        if client_arrivals is not None:
            ops: Sequence[tuple] = ()
        elif workloads is not None:
            ops = list(workloads[c])
        else:
            ops = default_workload(c, ops_per_client, app)
        client = BFTClient(
            replicas=range(n),
            reply_quorum=f + 1,
            ops=ops,
            retry_timeout=retry_timeout,
            timeout_policy=timeout_policy,
            arrivals=(
                client_arrivals[c] if client_arrivals is not None else None
            ),
            **(client_options or {}),
        )
        client.scheme = scheme
        client.signer = scheme.signer(n + c)
        clients.append(client)

    hosted_replicas: list[Process] = list(replicas)
    if replica_wrapper is not None:
        hosted_replicas = [
            replica_wrapper(pid, r) for pid, r in enumerate(replicas)
        ]
    hosted: list[Process] = [*hosted_replicas, *clients]
    if reliable:
        from ..faults.channel import wrap_reliable  # lazy: faults builds on sim

        kwargs = reliable if isinstance(reliable, dict) else {}
        hosted = wrap_reliable(hosted, **kwargs)
    adversary = adversary if adversary is not None else ReliableAsynchronous(0.01, 0.5)
    sim = Simulation(hosted, adversary, seed=seed,
                     trace_retention=trace_retention, observers=observers)
    return sim, replicas, clients
