"""Deterministic discrete-event simulation of asynchronous distributed systems.

The substrate every protocol in this library runs on:

- :class:`~repro.sim.runner.Simulation` — the façade: processes, network,
  shared memory, virtual time, fault injection.
- :class:`~repro.sim.process.Process` — event-driven message-passing
  processes; :class:`~repro.sim.shared_memory.SMProgram` — sequential
  shared-memory programs.
- :mod:`~repro.sim.adversary` — delay/partition control: asynchronous,
  partially synchronous, lock-step synchronous, scripted.
- :class:`~repro.sim.trace.TraceStore` — the structured log all property
  checkers consume.
"""

from .adversary import (
    Adversary,
    DuplicatingAsynchronous,
    LinkRule,
    LockStepSynchronous,
    PartiallySynchronous,
    PartitionAdversary,
    ReliableAsynchronous,
    ScriptedAdversary,
    WITHHELD,
)
from .byzantine import (
    BabblerProcess,
    ByzantineWrapper,
    SilentProcess,
    drop_to,
    equivocate_by_destination,
    mutate_kind,
)
from .liveness import DeadlineMonitor, LivenessReport, Obligation
from .partition import split, srb_separation_sets
from .process import Context, Interposer, Process, RelayContext, bare
from .runner import Simulation
from .scheduler import RunStats, Scheduler
from .shared_memory import Op, SharedMemorySystem, SharedObject, Sleep, SMProgram
from .trace import TraceEvent, TraceObserver, TraceStore

__all__ = [
    "Adversary",
    "BabblerProcess",
    "ByzantineWrapper",
    "Context",
    "DeadlineMonitor",
    "DuplicatingAsynchronous",
    "Interposer",
    "LinkRule",
    "LivenessReport",
    "LockStepSynchronous",
    "Obligation",
    "Op",
    "PartiallySynchronous",
    "PartitionAdversary",
    "Process",
    "RelayContext",
    "ReliableAsynchronous",
    "RunStats",
    "Scheduler",
    "ScriptedAdversary",
    "SharedMemorySystem",
    "SharedObject",
    "SilentProcess",
    "Simulation",
    "Sleep",
    "SMProgram",
    "TraceEvent",
    "TraceObserver",
    "TraceStore",
    "WITHHELD",
    "bare",
    "drop_to",
    "equivocate_by_destination",
    "mutate_kind",
    "split",
    "srb_separation_sets",
]
