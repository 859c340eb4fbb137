"""Tests for the asynchronous shared-memory layer and SMProgram model."""

from __future__ import annotations

import pytest

from repro.errors import AccessDeniedError, ConfigurationError
from repro.hardware.registers import SWMRRegister
from repro.sim import Op, Process, ReliableAsynchronous, SharedObject, Simulation, Sleep, SMProgram


class Register(SharedObject):
    def __init__(self, name, initial=None):
        super().__init__(name)
        self.value = initial

    def op_write(self, pid, v):
        self.value = v

    def op_read(self, pid):
        return self.value


class WriteThenRead(SMProgram):
    def __init__(self, reg, value):
        super().__init__()
        self.reg = reg
        self.value = value

    def program(self):
        yield Op(self.reg, "write", (self.value,))
        result = yield Op(self.reg, "read")
        return result


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        sim = Simulation([Process()], seed=0)
        sim.memory.register(Register("r"))
        with pytest.raises(ConfigurationError):
            sim.memory.register(Register("r"))

    def test_unknown_object_fails_fast(self):
        class Bad(SMProgram):
            def program(self):
                yield Op("nope", "read")

        p = Bad()
        sim = Simulation([p], seed=0)
        with pytest.raises(ConfigurationError):
            sim.run_to_quiescence()

    def test_unknown_operation(self):
        class BadOp(SMProgram):
            def program(self):
                yield Op("r", "fly")

        p = BadOp()
        sim = Simulation([p], seed=0)
        sim.memory.register(Register("r"))
        with pytest.raises(ConfigurationError, match="no operation"):
            sim.run_to_quiescence()

    def test_operations_listing(self):
        assert Register("r").operations() == ["read", "write"]


class TestSMProgram:
    def test_write_then_read(self):
        p = WriteThenRead("r", 42)
        sim = Simulation([p], seed=1)
        sim.memory.register(Register("r"))
        sim.run_to_quiescence()
        assert p.finished and p.output == 42

    def test_sleep(self):
        class Sleeper(SMProgram):
            def program(self):
                yield Sleep(5.0)
                t = self.ctx.now
                yield Op("r", "read")
                return t

        p = Sleeper()
        sim = Simulation([p], seed=2)
        sim.memory.register(Register("r"))
        sim.run_to_quiescence()
        assert p.output == 5.0

    def test_bad_yield_type(self):
        class BadYield(SMProgram):
            def program(self):
                yield "what"

        from repro.errors import SimulationError

        p = BadYield()
        sim = Simulation([p], seed=3)
        with pytest.raises(SimulationError, match="yielded"):
            sim.run_to_quiescence()

    def test_access_denied_raised_into_program(self):
        class Prober(SMProgram):
            def program(self):
                try:
                    yield Op("owned", "write", ("stolen",))
                except AccessDeniedError:
                    return "denied"
                return "allowed"

        prober = Prober()
        owner = Process()
        sim = Simulation([owner, prober], seed=4)
        sim.memory.register(SWMRRegister("owned", owner=0))
        sim.run_to_quiescence()
        assert prober.output == "denied"

    def test_two_writers_interleave_linearizably(self):
        a = WriteThenRead("r", "A")
        b = WriteThenRead("r", "B")
        sim = Simulation([a, b], ReliableAsynchronous(0.1, 2.0), seed=5)
        sim.memory.register(Register("r"))
        sim.run_to_quiescence()
        # each process reads after its own write; it sees its value or the
        # other's (if the other's write linearized in between) — never None
        assert a.output in ("A", "B")
        assert b.output in ("A", "B")


class TestCrashSemantics:
    def test_inflight_op_linearizes_but_response_suppressed(self):
        p = WriteThenRead("r", "X")
        sim = Simulation([p], ReliableAsynchronous(5.0, 6.0), seed=6)
        reg = Register("r")
        sim.memory.register(reg)
        sim.crash_at(0, 1.0)  # after invoke, before linearization
        sim.run_to_quiescence()
        assert reg.value == "X"  # the write landed (RDMA semantics)
        assert not p.finished  # but the program never resumed

    def test_crashed_process_invokes_nothing(self):
        p = WriteThenRead("r", "X")
        sim = Simulation([p], seed=7)
        reg = Register("r")
        sim.memory.register(reg)
        sim.crash(0)
        sim.run_to_quiescence()
        assert reg.value is None


class TestTraceRecords:
    def test_invoke_linearize_respond_sequence(self):
        p = WriteThenRead("r", 1)
        sim = Simulation([p], seed=8)
        sim.memory.register(Register("r"))
        sim.run_to_quiescence()
        kinds = [ev.kind for ev in sim.trace if ev.kind.startswith("op_")]
        assert kinds == [
            "op_invoke", "op_linearize", "op_respond",
            "op_invoke", "op_linearize", "op_respond",
        ]

    def test_ops_counted(self):
        p = WriteThenRead("r", 1)
        sim = Simulation([p], seed=9)
        sim.memory.register(Register("r"))
        sim.run_to_quiescence()
        assert sim.memory.ops_invoked == 2
        assert sim.memory.ops_linearized == 2
        assert sim.memory.pending_count == 0


class Invoker(Process):
    """Invokes one read on start and keeps what comes back."""

    def __init__(self):
        super().__init__()
        self.results = []

    def on_start(self):
        self.ctx.invoke("r", "read")

    def on_op_result(self, object_name, op, handle, result):
        self.results.append(result)


class FixedOpDelays(ReliableAsynchronous):
    def __init__(self, d_lin, d_resp):
        super().__init__()
        self.d_lin, self.d_resp = d_lin, d_resp

    def op_delays(self, pid, object_name, op, now):
        return (self.d_lin, self.d_resp)


class TestOpsInFlight:
    """An operation in flight lives only in its two events: nothing else
    tracks it, and ``pending_count`` is invoked minus responded."""

    def _sim(self, adversary):
        p = Invoker()
        sim = Simulation([p], adversary, seed=0)
        sim.memory.register(Register("r", initial="v"))
        return p, sim

    def test_pending_counts_an_op_not_yet_linearized(self):
        p, sim = self._sim(FixedOpDelays(2.0, 3.0))
        sim.run(until=1.0)
        assert sim.memory.pending_count == 1 and sim.memory.ops_linearized == 0
        sim.run(until=4.0)  # linearized at 2.0, response due at 5.0
        assert sim.memory.pending_count == 1 and sim.memory.ops_linearized == 1
        sim.run_to_quiescence()
        assert sim.memory.pending_count == 0 and p.results == ["v"]

    def test_pending_returns_to_zero_when_the_invoker_crashed(self):
        p, sim = self._sim(FixedOpDelays(2.0, 3.0))
        sim.crash_at(0, 1.0)  # between invoke and response
        sim.run_to_quiescence()
        # the response is suppressed, but the operation completed
        assert p.results == []
        assert sim.memory.ops_linearized == sim.memory.ops_responded == 1
        assert sim.memory.pending_count == 0
        assert not [ev for ev in sim.trace if ev.kind == "op_respond"]

    def test_response_arrives_at_linearization_plus_the_drawn_delay(self):
        drawn = []

        class Recording(ReliableAsynchronous):
            def op_delays(self, pid, object_name, op, now):
                delays = super().op_delays(pid, object_name, op, now)
                drawn.append(delays)
                return delays

        p = WriteThenRead("r", 1)
        sim = Simulation([p], Recording(0.1, 2.0), seed=11)
        sim.memory.register(Register("r"))
        sim.run_to_quiescence()
        times = {}
        for ev in sim.trace:
            if ev.kind in ("op_invoke", "op_linearize", "op_respond"):
                times.setdefault(ev.fields["handle"], {})[ev.kind] = ev.time
        assert len(drawn) == len(times) == 2
        for handle, (d_lin, d_resp) in enumerate(drawn):
            t = times[handle]
            assert t["op_linearize"] == t["op_invoke"] + d_lin
            assert t["op_respond"] == t["op_linearize"] + d_resp
