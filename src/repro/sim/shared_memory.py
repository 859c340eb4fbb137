"""Asynchronous shared memory: object registry, op scheduling, SM programs.

The model is the standard one for Byzantine shared memory (Section 2.1 of
the paper, "Shared memory with ACLs"): a collection of named linearizable
objects, each guarding its operations with an access-control policy. An
operation has three moments — *invocation* (the process issues it),
*linearization* (it takes effect atomically at the object), and *response*
(the result reaches the invoker). The adversary chooses both gaps, which is
exactly how adversarial asynchronous interleavings are produced.

Two ways to write shared-memory protocols:

- event-driven: a :class:`~repro.sim.process.Process` calls ``ctx.invoke``
  and handles ``on_op_result`` (used by the round engine);
- sequential: subclass :class:`SMProgram` and write ``program()`` as a
  generator that ``yield``-s one :class:`Op` at a time and receives its
  result — reads like the paper's pseudocode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Iterator, Optional, TYPE_CHECKING

from ..errors import AccessDeniedError, ConfigurationError, SimulationError
from ..types import ProcessId
from .events import OpLinearize, OpRespond
from .process import Process
from .trace import OP_INVOKE, OP_LINEARIZE

if TYPE_CHECKING:  # pragma: no cover
    from .runner import Simulation


class SharedObject:
    """Base class for linearizable shared objects.

    Subclasses (in ``repro.hardware``) implement operations as methods named
    ``op_<name>``; :meth:`execute` dispatches to them after consulting
    :meth:`check_access`. ``execute`` runs atomically at the linearization
    point — implementations must not block or call back into the simulation.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    # -- access control -------------------------------------------------------

    def check_access(self, pid: ProcessId, op: str, args: tuple) -> None:
        """Raise :class:`~repro.errors.AccessDeniedError` if forbidden.

        Default: every process may perform every operation. Hardware
        objects override this with ACLs / policies.
        """

    # -- dispatch -----------------------------------------------------------------

    def operations(self) -> list[str]:
        """Names of the operations this object exposes."""
        return sorted(
            name[len("op_"):] for name in dir(self) if name.startswith("op_")
        )

    def execute(self, pid: ProcessId, op: str, args: tuple) -> Any:
        method = getattr(self, f"op_{op}", None)
        if method is None:
            raise ConfigurationError(
                f"object {self.name!r} has no operation {op!r} "
                f"(available: {', '.join(self.operations())})"
            )
        self.check_access(pid, op, args)
        return method(pid, *args)


class SharedMemorySystem:
    """Named-object registry plus asynchronous op scheduling.

    An operation in flight lives only in its events: the ``OpLinearize``
    payload carries everything linearization needs, the response delay
    the adversary drew at invocation included, and the ``OpRespond``
    payload everything the invoker is handed.
    """

    def __init__(self, sim: "Simulation") -> None:
        self._sim = sim
        self._objects: dict[str, SharedObject] = {}
        self._next_handle = 0
        self.ops_invoked = 0
        self.ops_linearized = 0
        self.ops_responded = 0

    # -- registry -----------------------------------------------------------------

    def register(self, obj: SharedObject) -> SharedObject:
        if obj.name in self._objects:
            raise ConfigurationError(f"object {obj.name!r} already registered")
        self._objects[obj.name] = obj
        return obj

    def get(self, name: str) -> SharedObject:
        try:
            return self._objects[name]
        except KeyError:
            raise ConfigurationError(f"no shared object named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._objects)

    # -- asynchronous invocation ------------------------------------------------------

    def invoke(self, pid: ProcessId, object_name: str, op: str, args: tuple) -> int:
        """Begin an operation; returns its handle. Effects happen later."""
        self.get(object_name)  # fail fast on unknown objects
        sim = self._sim
        scheduler = sim.scheduler
        now = scheduler.now
        handle = self._next_handle
        self._next_handle = handle + 1
        self.ops_invoked += 1
        sim.trace.record(
            now, OP_INVOKE, pid, handle=handle, object=object_name, op=op, args=args
        )
        d_lin, d_resp = sim.network.adversary.op_delays(pid, object_name, op, now)
        scheduler.schedule(
            max(d_lin, 0.0),
            OpLinearize(pid, handle, object_name, op, args, max(d_resp, 0.0)),
        )
        return handle

    def linearize(self, payload: OpLinearize) -> None:
        """Execute the operation atomically and schedule its response.

        Called by the simulation's dispatcher. Linearization happens even if
        the invoker crashed after invoking (an in-flight RDMA write still
        lands); the *response* is suppressed for crashed processes by the
        dispatcher.
        """
        sim = self._sim
        pid, handle, object_name, op, args, resp_delay = payload
        obj = self.get(object_name)
        try:
            result: Any = obj.execute(pid, op, args)
            ok = True
        except AccessDeniedError as exc:
            result = exc
            ok = False
        self.ops_linearized += 1
        scheduler = sim.scheduler
        sim.trace.record(
            scheduler.now, OP_LINEARIZE, pid,
            handle=handle, object=object_name, op=op, ok=ok,
        )
        scheduler.schedule(
            resp_delay, OpRespond(pid, handle, object_name, op, result)
        )

    def complete(self) -> None:
        """Count a response dispatched (its invoker may have crashed)."""
        self.ops_responded += 1

    @property
    def pending_count(self) -> int:
        """Operations invoked whose response has not been dispatched."""
        return self.ops_invoked - self.ops_responded


# ---------------------------------------------------------------------------
# Sequential (generator) shared-memory programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Op:
    """One shared-memory operation, yielded by an :class:`SMProgram`."""

    object_name: str
    op: str
    args: tuple = ()

    @staticmethod
    def read(object_name: str, *args: Any) -> "Op":
        return Op(object_name, "read", tuple(args))

    @staticmethod
    def write(object_name: str, *args: Any) -> "Op":
        return Op(object_name, "write", tuple(args))

    @staticmethod
    def append(object_name: str, *args: Any) -> "Op":
        return Op(object_name, "append", tuple(args))


@dataclass(frozen=True, slots=True)
class Sleep:
    """Yield from an :class:`SMProgram` to pause for ``duration`` virtual time."""

    duration: float


class SMProgram(Process):
    """Sequential shared-memory process written as a generator.

    Override :meth:`program`; each ``yield Op(...)`` performs one operation
    (the generator resumes with its result), each ``yield Sleep(d)`` pauses.
    When the generator returns, its return value is recorded as the process
    output (``self.output``). Access violations are raised *into* the
    generator as :class:`~repro.errors.AccessDeniedError` so Byzantine
    programs can probe ACLs and react.
    """

    _SLEEP_TAG = "__sm_sleep__"

    def __init__(self) -> None:
        super().__init__()
        self._gen: Optional[Generator[Any, Any, Any]] = None
        self.output: Any = None
        self.finished = False

    def program(self) -> Iterator[Any]:
        """The sequential body; must be a generator. Override me."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- plumbing -------------------------------------------------------------

    def on_start(self) -> None:
        self._gen = self.program()
        self._advance(first=True)

    def _advance(self, first: bool = False, to_send: Any = None, throw: Any = None) -> None:
        if self._gen is None or self.finished:
            return
        try:
            if throw is not None:
                item = self._gen.throw(throw)
            elif first:
                item = next(self._gen)
            else:
                item = self._gen.send(to_send)
        except StopIteration as stop:
            self.finished = True
            self.output = stop.value
            self.ctx.record("custom", event="program_finished", output=stop.value)
            return
        if isinstance(item, Op):
            self.ctx.invoke(item.object_name, item.op, *item.args)
        elif isinstance(item, Sleep):
            self.ctx.set_timer(item.duration, self._SLEEP_TAG)
        else:
            raise SimulationError(
                f"SMProgram {type(self).__name__} yielded {item!r}; expected Op or Sleep"
            )

    def on_op_result(self, object_name: str, op: str, handle: int, result: Any) -> None:
        if isinstance(result, AccessDeniedError):
            self._advance(throw=result)
        else:
            self._advance(to_send=result)

    def on_timer(self, tag: Any) -> None:
        if tag == self._SLEEP_TAG:
            self._advance(to_send=None)
