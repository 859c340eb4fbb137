"""Layer table and span tracer: per-layer wall-clock attribution from outside.

Every layer of ``repro`` is measured by timing calls into its entry points.
:data:`ENTRY_POINTS` is the one declarative table saying which function
belongs to which layer; :func:`install` rebinds each listed class attribute
and every ``repro.*`` module-namespace alias of each listed function to a
wrapper, *before* the system under test is built (objects prebind methods at
construction: ``Simulation._record``, ``Scheduler.dispatch``). No file under
``src/`` changes.

Two wrapper factories use the table:

- :class:`Tracer` (traced runs) opens a span per call: layer, start, end,
  parent (the enclosing span on the stack). A layer's *self* time is its
  spans' duration minus the part child spans cover, so self times add up to
  the wall the spans cover; wall no span covers is reported as ``other``.
  The tracer times its own bookkeeping and books it to the pseudo-layer
  ``bench.tracer`` rather than to whichever layer happened to be the parent.
- :class:`SetupClock` (untraced runs) wraps only the ``setup`` rows with a
  two-clock-read accumulator, so ``setup_s`` of a campaign is the sum over
  its cells without perturbing anything else.

Entry points a later refactor removes are skipped and counted
(``bench.entry_points_missing``), not fatal: the benchmark must keep running
on commits that may not edit it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: layer -> rows of (module, class name or None for module functions, names)
ENTRY_POINTS = {
    "sim.scheduler": [
        ("repro.sim.scheduler", "Scheduler",
         ("run", "step", "schedule", "schedule_at", "cancel")),
    ],
    "sim.runner": [
        ("repro.sim.runner", "Simulation", ("_dispatch", "start", "restart")),
    ],
    # the adversary's per-message decision runs inside submit
    "sim.network": [("repro.sim.network", "Network", ("submit",))],
    # hardware.registers / hardware.acl object ops run inside linearize
    "sim.shared_memory": [
        ("repro.sim.shared_memory", "SharedMemorySystem",
         ("invoke", "linearize", "complete")),
    ],
    # eviction runs inside record; observers are child spans of record
    "sim.trace": [("repro.sim.trace", "TraceStore", ("record",))],
    "crypto.serialize": [
        ("repro.crypto.serialize", None,
         ("canonical_bytes", "content_hash", "type_fingerprint")),
    ],
    "crypto.signatures": [
        ("repro.crypto.signatures", "Signer", ("sign",)),
        ("repro.crypto.signatures", "SignatureScheme",
         ("verify", "verify_signed")),
    ],
    "consensus.usig": [
        ("repro.consensus.usig", "USIG", ("create_ui",)),
        ("repro.consensus.usig", "USIGVerifier", ("verify_ui",)),
        ("repro.hardware.trinc", "Trinket", ("attest",)),
        ("repro.hardware.trinc", "TrincAuthority", ("check", "check_status")),
    ],
    # batching, dedup and viewchange run inside the replica handlers
    "consensus.minbft": [
        ("repro.consensus.minbft", "MinBFTReplica",
         ("on_start", "on_message", "on_timer")),
    ],
    "consensus.pbft": [
        ("repro.consensus.pbft", "PBFTReplica", ("on_message", "on_timer")),
    ],
    "consensus.client": [
        ("repro.consensus.client", "BFTClient",
         ("on_start", "on_message", "on_timer")),
    ],
    "consensus.apps": [
        ("repro.consensus.apps", cls, ("apply",))
        for cls in ("CounterApp", "KVStoreApp", "BankApp", "NoopApp")
    ],
    # the transports of core.uni_from_sm run inside the RoundProcess handlers
    "core.rounds": [
        ("repro.core.rounds", "RoundProcess",
         ("on_start", "on_message", "on_timer", "on_op_result")),
        ("repro.core.rounds", "RoundTransport",
         ("begin_round", "begin_round_queued")),
    ],
    "core.srb_from_uni": [
        ("repro.core.srb_from_uni", "SRBFromUnidirectional",
         ("broadcast", "on_round_message", "on_round_complete")),
        ("repro.core.srb_from_uni", None,
         ("validate_copies", "validate_l1_item", "validate_l2")),
    ],
    "faults.channel": [
        ("repro.faults.channel", "ReliableProcess",
         ("on_start", "on_message", "on_timer", "on_op_result")),
        ("repro.faults.channel", "ReliableChannel",
         ("send", "broadcast", "handle_message", "handle_timer")),
    ],
    # admission, degrade and tenant logic run inside these handlers
    "service.ingress": [
        ("repro.service.ingress", "IngressProcess", ("on_message", "on_timer")),
        ("repro.service.ingress", "TenantClient",
         ("on_start", "on_message", "on_timer")),
    ],
    "mc.explorer": [("repro.mc.explorer", "Explorer", ("run",))],
    # builders a campaign calls internally; a workload's own build function
    # and the model checker's factory are wrapped by the workload itself
    "setup": [
        ("repro.consensus.harness", None,
         ("build_minbft_system", "build_pbft_system")),
        ("repro.core.srb_from_uni", None,
         ("build_sm_srb_system", "build_mp_srb_system")),
        ("repro.service.soak", None, ("build_service_system",)),
        ("repro.faults.chaos", None, ("make_schedule",)),
    ],
}

#: every attached TraceObserver.on_event, one span kind per observer class
OBSERVERS = "observers"
#: the tracer's own bookkeeping, measured and kept out of the layers
TRACER = "bench.tracer"
#: the speed-calibration kernel (child.py), a span like any other when traced
CALIBRATION = "bench.calibration"
#: traced wall that no span covers
OTHER = "other"

LAYERS = (*ENTRY_POINTS, OBSERVERS)

RAW_SPANS = 10_000


class Tracer:
    """Span recorder: aggregate by (kind, parent kind) + the first raw spans.

    A *kind* is ``"<layer>:<Owner.name>"`` — one per entry point — so the
    trace file can say which function inside a layer the time went to;
    :meth:`by_layer` folds kinds into layers.
    """

    def __init__(self) -> None:
        self.kinds: list[str] = []
        # (kind, parent kind or -1) -> [count, total ns, self ns]
        self._agg: dict[tuple[int, int], list[int]] = {}
        self.raw: list[tuple[int, int, int, int, int]] = []
        self._stack: list[list[int]] = []  # open spans: [kind, child_ns, id]
        # [spans opened, tracer bookkeeping ns, ns covered by root spans]
        self._state = [0, 0, 0]

    def wrap(self, layer: str, label: str, fn):
        kind = len(self.kinds)
        self.kinds.append(f"{layer}:{label}")
        agg, raw, stack, state = self._agg, self.raw, self._stack, self._state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t0 = clock()
            sid = state[0]
            state[0] = sid + 1
            frame = [kind, 0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    parent = stack[-1]
                    key = (kind, parent[0])
                    psid = parent[2]
                else:
                    parent = None
                    key = (kind, -1)
                    psid = -1
                cell = agg.get(key)
                if cell is None:
                    cell = agg[key] = [0, 0, 0]
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - frame[1]
                if sid < RAW_SPANS:
                    raw.append((sid, psid, kind, t0, t1))
                t2 = clock()
                state[1] += t2 - t1
                if parent is not None:
                    parent[1] += t2 - t0
                else:
                    state[2] += t2 - t0

        return span

    # -- reading the result -------------------------------------------------

    def aggregate(self) -> list[dict]:
        """One row per (kind, parent kind), in kind order."""
        rows = []
        for (kind, parent), (n, total, self_ns) in sorted(self._agg.items()):
            rows.append({
                "kind": self.kinds[kind],
                "parent": self.kinds[parent] if parent >= 0 else None,
                "count": n,
                "total_s": total / 1e9,
                "self_s": self_ns / 1e9,
            })
        return rows

    def by_kind(self) -> dict[str, list]:
        """kind -> [calls, self seconds], summed over parents."""
        out: dict[str, list] = {}
        for (kind, _parent), (n, _total, self_ns) in self._agg.items():
            cell = out.setdefault(self.kinds[kind], [0, 0.0])
            cell[0] += n
            cell[1] += self_ns / 1e9
        return out

    def by_layer(self) -> dict[str, list]:
        """layer -> [calls, self seconds], every layer of :data:`LAYERS` present."""
        out = {layer: [0, 0.0] for layer in (*LAYERS, CALIBRATION)}
        for kind, (n, self_s) in self.by_kind().items():
            cell = out[kind.split(":", 1)[0]]
            cell[0] += n
            cell[1] += self_s
        return out

    @property
    def tracer_s(self) -> float:
        return self._state[1] / 1e9

    @property
    def covered_s(self) -> float:
        """Wall covered by root spans, tracer bookkeeping included."""
        return self._state[2] / 1e9

    def raw_spans(self) -> list[dict]:
        return [
            {"id": sid, "parent": psid, "kind": self.kinds[kind],
             "start_ns": t0, "end_ns": t1}
            for sid, psid, kind, t0, t1 in sorted(self.raw)
        ]


class SetupClock:
    """Untraced runs: total wall inside outermost ``setup`` calls."""

    def __init__(self) -> None:
        self.total_ns = 0
        self._depth = 0

    def wrap(self, layer: str, label: str, fn):
        if layer != "setup":
            return fn
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_ns += clock() - t0
                self._depth = 0

        return timed

    @property
    def total_s(self) -> float:
        return self.total_ns / 1e9


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def install(recorder) -> list[str]:
    """Wrap every entry point with ``recorder.wrap``; returns the missing ones.

    Imports every module the table names first, so every alias a
    ``from x import f`` created exists by the time functions are rebound.
    Observer classes defined outside ``repro`` (the benchmark's own probes)
    must be imported before this runs.
    """
    missing: list[str] = []
    rows = [(layer, *row) for layer, group in ENTRY_POINTS.items() for row in group]
    for _layer, modname, _owner, _names in rows:
        try:
            importlib.import_module(modname)
        except ImportError:
            pass  # its entry points are reported missing below
    for layer, modname, owner, names in rows:
        mod = sys.modules.get(modname)
        target = mod if owner is None else getattr(mod, owner, None)
        for name in names:
            fn = vars(target).get(name) if target is not None else None
            if not callable(fn) or isinstance(fn, type):
                missing.append(f"{modname}:{owner or ''}.{name}")
                continue
            label = f"{owner}.{name}" if owner else name
            wrapped = recorder.wrap(layer, label, fn)
            if wrapped is fn:
                continue
            if owner is not None:
                setattr(target, name, wrapped)
            else:
                for mod in _repro_modules():
                    for alias, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, alias, wrapped)
    from repro.sim.trace import TraceObserver

    for cls in _all_subclasses(TraceObserver):
        fn = vars(cls).get("on_event")
        if fn is not None:
            wrapped = recorder.wrap(OBSERVERS, f"{cls.__name__}.on_event", fn)
            if wrapped is not fn:
                cls.on_event = wrapped
    return missing
