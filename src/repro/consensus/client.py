"""BFT clients, shared by MinBFT and PBFT: closed-loop and open-loop.

The classic closed-loop client submits its operations one at a time:
sign, broadcast to all replicas, wait for ``reply_quorum`` matching
replies (f+1 — at least one from a correct replica), record the latency,
move on. Retransmission on a timer covers lost-to-a-faulty-primary
requests (the retransmission is what eventually triggers a view change
at the backups).

That shape can never saturate a pipelined replication core: one
outstanding request per client means throughput is bounded by
``n_clients / commit_latency`` regardless of how many slots the primary
can keep in flight. Two extensions lift the bound:

- ``max_outstanding = N`` keeps up to N requests in flight
  simultaneously, each with its own reply set, retry timer, and retry
  accounting. Completions may arrive out of submission order (slot 6 can
  commit while request 5 is still retrying through a view change) — the
  replica-side :class:`~repro.consensus.dedup.ClientDedup` exists
  precisely to make that safe.
- ``arrivals = [(t, op), ...]`` switches the client to *open-loop*: each
  operation is released at its virtual arrival time (e.g. a Poisson
  stream from :func:`repro.workloads.generator.open_loop_arrivals`)
  regardless of completions. Released operations beyond
  ``max_outstanding`` queue in a backlog — offered load above the
  cluster's capacity shows up as backlog growth and rising latency, which
  is exactly the saturation signal the pipeline benchmarks measure.

:class:`BFTClient` owns the whole request life-cycle — release, sign,
send, retry/budget/jitter, reply-quorum matching, abandon, latency — for
every client in the repo; a client that reaches the replicas some other
way (:class:`repro.service.ingress.TenantClient`, through an ingress)
subclasses it and overrides only the first hop, what a completion owes
that hop, its trace-event names and its jitter-stream label.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Sequence

from ..crypto.signatures import SignatureScheme, Signer
from ..errors import ConfigurationError, RetriesExhausted
from ..sim.process import Process
from ..types import ProcessId, Time
from .replica import REPLY, REQUEST, request_domain


class BFTClient(Process):
    """Drives a list of operations against a replica group.

    ``ops`` is the workload (tuples the app understands). Completion data
    accumulates in ``latencies`` / ``results`` and in ``custom`` trace
    events (``request_sent`` / ``request_done``) for the analysis layer.

    ``retry_budget`` (a :class:`~repro.faults.timeouts.RetryBudget`
    instance or zero-arg factory) bounds retransmissions: when the budget
    refuses a retry, the client abandons that request with a typed
    :class:`~repro.errors.RetriesExhausted` (collected in ``failures``,
    surfaced as a ``request_failed`` trace event) and moves on, instead of
    feeding a retry storm. ``None`` keeps the legacy unbounded behavior.
    ``backoff_jitter > 0`` wraps the timeout policy in seed-deterministic
    multiplicative jitter so a fleet of clients doesn't retransmit in
    lockstep.

    ``max_outstanding`` bounds concurrent in-flight requests (1 = the
    legacy closed loop). ``arrivals`` switches to open-loop release (see
    the module docstring); when given, it supplies the operations and
    ``ops`` is ignored.
    """

    RETRY_TAG = "client-retry"
    THINK_TAG = "think"
    ARRIVAL_TAG = "client-arrival"
    JITTER_LABEL = "client"
    # trace-event names: launched, reply quorum reached, abandoned, all done
    SENT, DONE, FAILED, FINISHED = (
        "request_sent", "request_done", "request_failed", "client_done"
    )

    def __init__(
        self,
        replicas: Sequence[ProcessId],
        reply_quorum: int,
        ops: Sequence[tuple],
        retry_timeout: float = 150.0,
        think_time: float = 0.0,
        timeout_policy: Any = None,
        retry_budget: Any = None,
        backoff_jitter: float = 0.0,
        max_outstanding: int = 1,
        arrivals: Optional[Sequence[tuple]] = None,
    ) -> None:
        super().__init__()
        if reply_quorum < 1:
            raise ConfigurationError(f"reply quorum must be >= 1, got {reply_quorum}")
        if backoff_jitter < 0:
            raise ConfigurationError(
                f"backoff_jitter must be >= 0, got {backoff_jitter}"
            )
        if max_outstanding < 1:
            raise ConfigurationError(
                f"max_outstanding must be >= 1, got {max_outstanding}"
            )
        self.replicas = tuple(replicas)
        self.reply_quorum = reply_quorum
        if arrivals is not None:
            arrivals = [(float(t), op) for t, op in arrivals]
            if any(
                arrivals[i][0] > arrivals[i + 1][0]
                for i in range(len(arrivals) - 1)
            ):
                raise ConfigurationError("arrivals must be time-sorted")
            ops = [op for _t, op in arrivals]
        self.arrivals = arrivals
        self.ops = list(ops)
        self.max_outstanding = max_outstanding
        self.retry_timeout = retry_timeout
        if timeout_policy is None:
            from ..faults.timeouts import FixedTimeout  # lazy: faults builds on consensus

            timeout_policy = FixedTimeout(retry_timeout)
        elif callable(timeout_policy) and not hasattr(timeout_policy, "current"):
            timeout_policy = timeout_policy()
        self.timeout_policy = timeout_policy
        if callable(retry_budget) and not hasattr(retry_budget, "try_spend"):
            retry_budget = retry_budget()
        self.retry_budget = retry_budget
        self.backoff_jitter = backoff_jitter
        self.think_time = think_time
        self.signer: Optional[Signer] = None  # injected by the harness
        self.scheme: Optional[SignatureScheme] = None
        self._rng: Any = None  # jitter stream, derived on first use
        self._next_op = 0  # closed-loop release cursor
        self._arrival_idx = 0  # open-loop release cursor
        self._backlog: deque[int] = deque()  # released, waiting for a slot
        # req_id -> {"sent_at", "attempts", "replies", "timer"}
        self._inflight: dict[int, dict[str, Any]] = {}
        self._done_recorded = False
        self.latencies: list[float] = []
        self.results: list[Any] = []
        self.failures: list[RetriesExhausted] = []
        self.retransmissions = 0
        self.peak_backlog = 0

    @property
    def done(self) -> bool:
        if self._inflight or self._backlog:
            return False
        if self.arrivals is not None:
            return self._arrival_idx >= len(self.arrivals)
        return self._next_op >= len(self.ops)

    @property
    def outstanding(self) -> int:
        return len(self._inflight)

    def on_start(self) -> None:
        self._install_jitter()
        if self.arrivals is not None:
            self._schedule_next_arrival()
            self._maybe_done()
        else:
            self._fill()

    def _jitter_rng(self) -> Any:
        """This client's private jitter stream (independent of ``ctx.rng``)."""
        if self._rng is None:
            from ..faults.timeouts import derive_jitter_rng

            self._rng = derive_jitter_rng(
                self.ctx.seed, self.JITTER_LABEL, self.pid
            )
        return self._rng

    def _install_jitter(self) -> None:
        if self.backoff_jitter > 0:
            from ..faults.timeouts import JitteredPolicy

            self.timeout_policy = JitteredPolicy(
                self.timeout_policy, self._jitter_rng(),
                jitter=self.backoff_jitter,
            )

    # -- release ----------------------------------------------------------

    def _schedule_next_arrival(self) -> None:
        if self._arrival_idx >= len(self.arrivals):
            return
        t, _op = self.arrivals[self._arrival_idx]
        self.ctx.set_timer(max(0.0, t - self.ctx.now), self.ARRIVAL_TAG)

    def _fill(self) -> None:
        """Move released operations into free in-flight slots."""
        if self.arrivals is not None:
            while self._backlog and len(self._inflight) < self.max_outstanding:
                self._launch(self._backlog.popleft())
        else:
            while (
                self._next_op < len(self.ops)
                and len(self._inflight) < self.max_outstanding
            ):
                self._next_op += 1
                self._launch(self._next_op)
        self._maybe_done()

    def _launch(self, req_id: int) -> None:
        self._inflight[req_id] = {
            "sent_at": self.ctx.now, "attempts": 1, "replies": {}, "timer": None,
        }
        if self.retry_budget is not None:
            self.retry_budget.note_send()
        self._send_request(req_id)
        self.ctx.record("custom", event=self.SENT, req_id=req_id)
        self._arm_retry(req_id)

    def _send_request(self, req_id: int) -> None:
        assert self.signer is not None
        op = self.ops[req_id - 1]
        sig = self.signer.sign(request_domain(self.pid, req_id, op))
        self._first_hop(req_id, op, sig)

    def _first_hop(self, req_id: int, op: tuple, sig: Any) -> None:
        """Hook: put one signed request on the wire."""
        for r in self.replicas:
            self.ctx.send(r, (REQUEST, self.pid, req_id, op, sig))

    def _arm_retry(self, req_id: int) -> None:
        self._inflight[req_id]["timer"] = self.ctx.set_timer(
            self.timeout_policy.current(), (self.RETRY_TAG, req_id)
        )

    def _maybe_done(self) -> None:
        if self.done and not self._done_recorded:
            self._done_recorded = True
            self.ctx.record("custom", event=self.FINISHED, ops=len(self.results))

    def _after_terminal(self) -> None:
        """One request reached a terminal outcome: think, then release more."""
        if self.think_time > 0:
            self.ctx.set_timer(self.think_time, self.THINK_TAG)
        else:
            self._fill()

    # -- timers -----------------------------------------------------------

    def on_timer(self, tag: Any) -> None:
        if tag == self.THINK_TAG:
            self._fill()
        elif tag == self.ARRIVAL_TAG:
            self._arrival_idx += 1
            self._backlog.append(self._arrival_idx)
            if len(self._backlog) > self.peak_backlog:
                self.peak_backlog = len(self._backlog)
            self._schedule_next_arrival()
            self._fill()
        elif isinstance(tag, tuple) and len(tag) == 2 and tag[0] == self.RETRY_TAG:
            self._retry(tag[1])

    def _retry(self, req_id: int) -> None:
        """A retry timer expired: retransmit, or abandon on an empty budget."""
        rec = self._inflight.get(req_id)
        if rec is None:
            return
        if self.retry_budget is not None and not self.retry_budget.try_spend():
            self._abandon(req_id)
            return
        self.retransmissions += 1
        rec["attempts"] += 1
        # unproductive expiry: back off before retransmitting
        self.timeout_policy.escalate()
        self._send_request(req_id)
        self._arm_retry(req_id)

    def _abandon(self, req_id: int) -> None:
        """Give up on one in-flight request: typed failure, move on."""
        rec = self._inflight.pop(req_id)
        failure = RetriesExhausted(req_id, rec["attempts"])
        self.failures.append(failure)
        self.ctx.record(
            "custom", event=self.FAILED, req_id=req_id,
            reason="retries_exhausted", attempts=rec["attempts"],
        )
        self._after_terminal()

    # -- replies ----------------------------------------------------------

    def on_message(self, src: ProcessId, msg: Any) -> None:
        if not (isinstance(msg, tuple) and len(msg) == 5 and msg[0] == REPLY):
            return
        _, replica, req_id, result, _view = msg
        rec = self._inflight.get(req_id)
        if rec is None or src not in self.replicas:
            return
        replies = rec["replies"]
        replies[src] = result
        matching = sum(1 for v in replies.values() if v == result)
        if matching < self.reply_quorum:
            return
        latency = self.ctx.now - rec["sent_at"]
        self.latencies.append(latency)
        self.results.append(result)
        self.timeout_policy.observe(latency)
        self.timeout_policy.note_progress()
        self.ctx.record(
            "custom", event=self.DONE, req_id=req_id,
            result=result, latency=latency,
        )
        self._completed(req_id, latency)
        del self._inflight[req_id]
        if rec["timer"] is not None:
            self.ctx.cancel_timer(rec["timer"])
        self._after_terminal()

    def _completed(self, req_id: int, latency: float) -> None:
        """Hook: a request just reached its reply quorum."""
