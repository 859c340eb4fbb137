"""Network adversaries: who controls delays, and how much.

The asynchronous model lets an adversary delay any message arbitrarily but
finitely. In a finite simulation we realize "arbitrarily" as *relative to
the run*: an adversary returns either a finite delay (the message arrives)
or :data:`WITHHELD` (the message does not arrive within this run — the
simulation's rendering of the proofs' "arbitrarily delayed"). The network
keeps a ledger of withheld messages so liveness checkers can distinguish
"protocol got stuck" from "adversary held the message", and so fairness
audits can verify that a claimed-asynchronous adversary never withheld
correct-to-correct traffic.

Adversaries also control shared-memory operation latency (invocation to
linearization, linearization to response), which is how asynchronous shared
memory schedules are produced.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Optional

from ..errors import ConfigurationError
from ..types import ProcessId, Time

WITHHELD = None
"""Sentinel delay meaning: not delivered within this run."""

Delay = Optional[float]


class Adversary:
    """Base adversary: uniform small random delays, nothing withheld.

    Subclasses override :meth:`message_delay` and/or :meth:`op_delays`.
    ``bind`` is called once by the simulation to provide a dedicated RNG
    stream (distinct from protocol randomness so adversary choices do not
    perturb protocol coin flips across configurations).
    """

    def __init__(self, min_delay: float = 0.1, max_delay: float = 1.0) -> None:
        if min_delay < 0 or max_delay < min_delay:
            raise ConfigurationError(
                f"invalid delay range [{min_delay}, {max_delay}]"
            )
        self.min_delay = min_delay
        self.max_delay = max_delay
        self._rng = random.Random(0)

    def bind(self, rng: random.Random) -> None:
        self._rng = rng

    # -- message passing ---------------------------------------------------

    def message_delay(
        self, src: ProcessId, dst: ProcessId, msg: Any, now: Time
    ) -> Delay:
        """Delay for a message submitted now, or :data:`WITHHELD`."""
        return self._rng.uniform(self.min_delay, self.max_delay)

    # -- shared memory -------------------------------------------------------

    def op_delays(
        self, pid: ProcessId, object_name: str, op: str, now: Time
    ) -> tuple[float, float]:
        """(invoke→linearize, linearize→respond) delays for a shared-memory op."""
        return (
            self._rng.uniform(self.min_delay, self.max_delay),
            self._rng.uniform(self.min_delay, self.max_delay),
        )


class ReliableAsynchronous(Adversary):
    """Standard asynchrony: random finite delays on every message and op."""


class LockStepSynchronous(Adversary):
    """Every message arrives exactly ``delta`` after it is sent.

    With processes that advance in lock-step on timer boundaries this yields
    bidirectional rounds (the classic synchronous model).
    """

    def __init__(self, delta: float = 1.0) -> None:
        super().__init__(min_delay=delta, max_delay=delta)
        self.delta = delta

    def message_delay(self, src, dst, msg, now):
        return self.delta

    def op_delays(self, pid, object_name, op, now):
        return (self.delta / 2, self.delta / 2)


class PartiallySynchronous(Adversary):
    """Arbitrary (but delivered) delays before GST, bounded by ``delta`` after.

    Messages sent before the global stabilization time are delivered at an
    adversary-chosen point up to ``pre_gst_slack`` after GST; messages sent
    after GST arrive within ``delta``.
    """

    def __init__(self, gst: float, delta: float = 1.0, pre_gst_slack: float = 5.0) -> None:
        super().__init__(min_delay=0.0, max_delay=delta)
        if gst < 0:
            raise ConfigurationError(f"gst must be non-negative, got {gst}")
        self.gst = gst
        self.delta = delta
        self.pre_gst_slack = pre_gst_slack

    def message_delay(self, src, dst, msg, now):
        if now >= self.gst:
            return self._rng.uniform(0.0, self.delta)
        deliver_at = self.gst + self._rng.uniform(0.0, self.pre_gst_slack)
        return deliver_at - now


class DuplicatingAsynchronous(ReliableAsynchronous):
    """At-least-once delivery: some messages arrive twice (or more).

    Real networks and retransmission layers duplicate; every protocol in
    this library must be idempotent under it. Duplication is signaled by
    returning a delay here *and* having the network schedule extra copies —
    implemented via :meth:`extra_deliveries`, which the network consults.
    """

    def __init__(self, dup_probability: float = 0.3, max_copies: int = 2,
                 min_delay: float = 0.1, max_delay: float = 1.0) -> None:
        super().__init__(min_delay, max_delay)
        if not 0.0 <= dup_probability <= 1.0:
            raise ConfigurationError(
                f"dup_probability must be in [0, 1], got {dup_probability}"
            )
        if max_copies < 1:
            raise ConfigurationError(f"max_copies must be >= 1, got {max_copies}")
        self.dup_probability = dup_probability
        self.max_copies = max_copies
        self.duplicates_injected = 0

    def extra_deliveries(self, src: ProcessId, dst: ProcessId, msg: Any,
                         now: Time) -> list[float]:
        """Delays for additional copies of this message (possibly empty)."""
        extras: list[float] = []
        while (
            len(extras) < self.max_copies - 1
            and self._rng.random() < self.dup_probability
        ):
            extras.append(self._rng.uniform(self.min_delay, self.max_delay * 3))
            self.duplicates_injected += 1
        return extras


class LinkRule:
    """A directed-link delay rule active during a time window.

    ``sources``/``destinations`` are process-id collections; a message
    matches when its endpoints are in them and its send time falls in
    ``[start, end)``. ``delay`` is either a float, :data:`WITHHELD`, or a
    callable ``(src, dst, msg, now) -> Delay``.
    """

    def __init__(
        self,
        sources: Iterable[ProcessId],
        destinations: Iterable[ProcessId],
        delay: Delay | Callable[[ProcessId, ProcessId, Any, Time], Delay],
        start: Time = 0.0,
        end: Time = float("inf"),
    ) -> None:
        self.sources = frozenset(sources)
        self.destinations = frozenset(destinations)
        self.delay = delay
        self.start = start
        self.end = end

    def matches(self, src: ProcessId, dst: ProcessId, now: Time) -> bool:
        return (
            src in self.sources
            and dst in self.destinations
            and self.start <= now < self.end
        )

    def resolve(self, src: ProcessId, dst: ProcessId, msg: Any, now: Time) -> Delay:
        if callable(self.delay):
            return self.delay(src, dst, msg, now)
        return self.delay


class ScriptedAdversary(Adversary):
    """Rule-list adversary used by scenario scripts.

    Rules, added with :meth:`add_rule` / :meth:`withhold`, are consulted in
    order; the first matching rule decides the fate of a message. Messages
    matching no rule are delivered after ``base_delay``. This is how the
    separation scenarios say "messages from C2 to Q are arbitrarily delayed;
    all other messages are received immediately".
    """

    def __init__(self, base_delay: float = 0.01) -> None:
        super().__init__(min_delay=base_delay, max_delay=base_delay)
        self.rules: list[LinkRule] = []
        self.base_delay = base_delay

    def add_rule(self, rule: LinkRule) -> "ScriptedAdversary":
        self.rules.append(rule)
        return self

    def withhold(
        self,
        sources: Iterable[ProcessId],
        destinations: Iterable[ProcessId],
        start: Time = 0.0,
        end: Time = float("inf"),
    ) -> "ScriptedAdversary":
        """Convenience: arbitrarily delay all matching messages."""
        return self.add_rule(LinkRule(sources, destinations, WITHHELD, start, end))

    def message_delay(self, src, dst, msg, now):
        for rule in self.rules:
            if rule.matches(src, dst, now):
                return rule.resolve(src, dst, msg, now)
        return self.base_delay

    def op_delays(self, pid, object_name, op, now):
        return (self.base_delay, self.base_delay)


class PartitionAdversary(ScriptedAdversary):
    """Two-way partition between groups of processes, optionally healing.

    Messages crossing between any two distinct groups are withheld until
    ``heal_at`` (and delivered with ``base_delay`` after healing); messages
    within a group flow normally.
    """

    def __init__(
        self,
        groups: Iterable[Iterable[ProcessId]],
        heal_at: Time = float("inf"),
        base_delay: float = 0.01,
    ) -> None:
        super().__init__(base_delay=base_delay)
        self.groups = [frozenset(g) for g in groups]
        if len(self.groups) < 2:
            raise ConfigurationError("a partition needs at least two groups")
        seen: set[ProcessId] = set()
        for g in self.groups:
            if seen & g:
                raise ConfigurationError("partition groups overlap")
            seen |= g
        self.heal_at = heal_at
        for i, gi in enumerate(self.groups):
            for j, gj in enumerate(self.groups):
                if i != j:
                    if heal_at == float("inf"):
                        self.withhold(gi, gj)
                    else:
                        # Crossing messages sent before healing arrive just after it.
                        self.add_rule(
                            LinkRule(
                                gi,
                                gj,
                                lambda s, d, m, now: (self.heal_at - now) + self.base_delay,
                                end=heal_at,
                            )
                        )
