"""Adaptive timeout policies: Jacobson/Karels RTT estimation + backoff.

Fixed timeouts are the classic liveness foot-gun of partially synchronous
protocols: set them below the real (unknown) post-GST delay bound and view
changes fire forever; set them far above it and every fault costs seconds
of idle waiting. The standard cure — used by TCP since Jacobson's "Congestion
Avoidance and Control" (SIGCOMM '88), with the variance term from
Jacobson/Karels — is to *measure* round-trip samples and derive the
retransmission timeout as

    srtt    <- (1 - alpha) * srtt + alpha * sample        (alpha = 1/8)
    rttvar  <- (1 - beta) * rttvar + beta * |srtt - sample|  (beta = 1/4)
    rto      = srtt + 4 * rttvar

clamped to ``[min_timeout, max_timeout]`` and doubled on every unproductive
expiry (exponential backoff, per Karn & Partridge). Both the retransmission
layer (:mod:`repro.faults.channel`) and the consensus view-change/batch
timers (:mod:`repro.consensus.minbft`, :mod:`repro.consensus.pbft`) share
these policies, so a single estimator type covers "when do I resend a
frame" and "when do I give up on the primary".

Two implementations of the same :class:`TimeoutPolicy` protocol:

- :class:`FixedTimeout` — the pre-existing behavior (a constant duration,
  optionally with exponential backoff), kept as the experimental control
  arm.
- :class:`AdaptiveTimeout` — Jacobson/Karels estimation with Karn-style
  sample admission left to the caller (only observe samples for
  un-retransmitted exchanges).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from ..errors import ConfigurationError

__all__ = [
    "AdaptiveTimeout",
    "FixedTimeout",
    "JitteredPolicy",
    "RetryBudget",
    "RttEstimator",
    "TimeoutPolicy",
    "derive_jitter_rng",
    "make_policy_factory",
]


def derive_jitter_rng(seed: int, *labels: Any) -> random.Random:
    """A dedicated RNG stream for retry/retransmit jitter.

    Derived from the run seed (plus caller labels — typically pid and
    incarnation) with a cryptographic hash, the same construction the
    simulator uses for per-process streams. Two properties matter:

    - *seed-determinism*: jitter draws are a pure function of
      ``(seed, labels)``, so sweeps replay bit-identically and a pooled
      sweep equals the serial one;
    - *independence*: the stream is consumed only by the jitter site, so
      protocol-level RNG use (``ctx.rng``) can change without shifting
      retry timing — and vice versa.
    """
    material = "|".join(str(x) for x in ("jitter", seed, *labels)).encode()
    digest = hashlib.sha256(material).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class RetryBudget:
    """Token-bucket retry budget: retries can never amplify offered load.

    The client-side complement of server-side admission control (the
    Finagle/"retry budget" construction): every *original* send deposits
    ``ratio`` tokens, every retry withdraws one. Whatever the failure
    pattern, retries are bounded by ``ratio`` × originals plus the
    ``min_reserve`` float, so a fleet of budgeted clients can multiply
    offered load by at most ``1 + ratio`` — the knob that turns a
    metastable retry storm into a damped transient.

    Deterministic and cheap: one float. ``try_spend()`` is the gate a
    retry must pass; a refusal is the moment to surface a typed
    :class:`~repro.errors.RetriesExhausted` instead of retransmitting.
    """

    __slots__ = ("ratio", "min_reserve", "max_tokens", "_tokens",
                 "sends_noted", "retries_granted", "retries_denied")

    def __init__(
        self,
        ratio: float = 0.1,
        min_reserve: float = 3.0,
        max_tokens: float = 100.0,
    ) -> None:
        if ratio < 0:
            raise ConfigurationError(f"ratio must be >= 0, got {ratio}")
        if min_reserve < 0:
            raise ConfigurationError(
                f"min_reserve must be >= 0, got {min_reserve}"
            )
        if max_tokens < min_reserve:
            raise ConfigurationError(
                f"max_tokens must be >= min_reserve, got {max_tokens}"
            )
        self.ratio = ratio
        self.min_reserve = min_reserve
        self.max_tokens = max_tokens
        self._tokens = float(min_reserve)
        self.sends_noted = 0
        self.retries_granted = 0
        self.retries_denied = 0

    @property
    def tokens(self) -> float:
        return self._tokens

    def note_send(self) -> None:
        """Credit the budget for one original (non-retry) send."""
        self.sends_noted += 1
        self._tokens = min(self._tokens + self.ratio, self.max_tokens)

    def try_spend(self) -> bool:
        """Withdraw one retry token; False when the budget is exhausted."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.retries_granted += 1
            return True
        self.retries_denied += 1
        return False


class JitteredPolicy:
    """Multiplicative seed-deterministic jitter over any :class:`TimeoutPolicy`.

    ``current()`` scales the inner policy's duration by a fresh uniform
    draw in ``[1, 1 + jitter]`` from a dedicated RNG (see
    :func:`derive_jitter_rng`). Exponential backoff without jitter keeps a
    synchronized client fleet synchronized — every process re-fires on the
    same schedule, re-colliding forever; the jitter draw is what spreads
    the retry wave. Everything else passes through to the inner policy.
    """

    __slots__ = ("inner", "jitter", "rng")

    def __init__(
        self,
        inner: "TimeoutPolicy",
        rng: random.Random,
        jitter: float = 0.5,
    ) -> None:
        if jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {jitter}")
        self.inner = inner
        self.jitter = jitter
        self.rng = rng

    def current(self) -> float:
        return self.inner.current() * (1.0 + self.jitter * self.rng.random())

    def escalate(self) -> float:
        return self.inner.escalate()

    def note_progress(self) -> None:
        self.inner.note_progress()

    def observe(self, sample: float) -> None:
        self.inner.observe(sample)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JitteredPolicy(jitter={self.jitter}, inner={self.inner!r})"


class RttEstimator:
    """Jacobson/Karels smoothed RTT + variance estimator.

    Stateful and cheap: two floats per estimator. ``rto()`` returns the
    classic ``srtt + 4 * rttvar``, or ``None`` before the first sample
    (callers fall back to their configured initial timeout).
    """

    __slots__ = ("alpha", "beta", "k", "srtt", "rttvar", "samples")

    def __init__(self, alpha: float = 0.125, beta: float = 0.25, k: float = 4.0):
        if not (0.0 < alpha <= 1.0) or not (0.0 < beta <= 1.0):
            raise ConfigurationError(
                f"alpha/beta must be in (0, 1], got {alpha}/{beta}"
            )
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.samples = 0

    def observe(self, sample: float) -> None:
        """Fold one round-trip sample (seconds of sim time) into the estimate."""
        if sample < 0:
            raise ConfigurationError(f"rtt sample must be >= 0, got {sample}")
        if self.srtt is None:
            # RFC 6298 initialization: first sample seeds both terms.
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            err = sample - self.srtt
            self.srtt += self.alpha * err
            self.rttvar += self.beta * (abs(err) - self.rttvar)
        self.samples += 1

    def rto(self) -> Optional[float]:
        if self.srtt is None:
            return None
        return self.srtt + self.k * self.rttvar


@runtime_checkable
class TimeoutPolicy(Protocol):
    """What a retransmission or view-change timer asks of its timeout source.

    ``current()`` is the duration to arm *now*; ``escalate()`` doubles it
    after an unproductive expiry; ``note_progress()`` resets the backoff
    once the thing being waited for showed signs of life; ``observe()``
    feeds a measured delay sample (a no-op for fixed policies).
    """

    def current(self) -> float: ...

    def escalate(self) -> float: ...

    def note_progress(self) -> None: ...

    def observe(self, sample: float) -> None: ...


class FixedTimeout:
    """Constant base timeout — the control arm.

    With the default ``backoff=1.0`` this reproduces the legacy behavior
    exactly (the pre-adaptive view-change and client-retry timers re-armed
    at a constant duration, no growth); pass ``backoff > 1`` for an
    exponential-backoff variant.
    """

    __slots__ = ("base", "backoff", "max_timeout", "_shift")

    def __init__(
        self,
        base: float,
        backoff: float = 1.0,
        max_timeout: float = 600.0,
    ):
        if base <= 0:
            raise ConfigurationError(f"base timeout must be > 0, got {base}")
        if backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1, got {backoff}")
        self.base = base
        self.backoff = backoff
        self.max_timeout = max_timeout
        self._shift = 0

    def current(self) -> float:
        return min(self.base * self.backoff**self._shift, self.max_timeout)

    def escalate(self) -> float:
        self._shift += 1
        return self.current()

    def note_progress(self) -> None:
        self._shift = 0

    def observe(self, sample: float) -> None:  # fixed: samples ignored
        pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FixedTimeout(base={self.base}, shift={self._shift})"


class AdaptiveTimeout:
    """Jacobson/Karels-derived timeout with backoff and clamping.

    ``current()`` is ``margin * rto`` clamped to ``[min_timeout,
    max_timeout]`` then scaled by the backoff shift; before any sample it
    falls back to ``initial``. ``margin`` exists because consensus timers
    wait for multi-message exchanges (request -> propose -> commit ->
    execute), not a single network round trip, so the raw RTO is scaled by
    a small safety factor rather than used bare.
    """

    __slots__ = (
        "estimator",
        "initial",
        "min_timeout",
        "max_timeout",
        "margin",
        "backoff",
        "_shift",
    )

    def __init__(
        self,
        initial: float,
        min_timeout: float = 0.5,
        max_timeout: float = 600.0,
        margin: float = 2.0,
        backoff: float = 2.0,
        alpha: float = 0.125,
        beta: float = 0.25,
        k: float = 4.0,
    ):
        if initial <= 0:
            raise ConfigurationError(f"initial timeout must be > 0, got {initial}")
        if min_timeout <= 0 or max_timeout < min_timeout:
            raise ConfigurationError(
                f"need 0 < min_timeout <= max_timeout, got "
                f"{min_timeout}/{max_timeout}"
            )
        if margin < 1.0:
            raise ConfigurationError(f"margin must be >= 1, got {margin}")
        if backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1, got {backoff}")
        self.estimator = RttEstimator(alpha=alpha, beta=beta, k=k)
        self.initial = initial
        self.min_timeout = min_timeout
        self.max_timeout = max_timeout
        self.margin = margin
        self.backoff = backoff
        self._shift = 0

    def _base(self) -> float:
        rto = self.estimator.rto()
        if rto is None:
            base = self.initial
        else:
            base = self.margin * rto
        return min(max(base, self.min_timeout), self.max_timeout)

    def current(self) -> float:
        return min(self._base() * self.backoff**self._shift, self.max_timeout)

    def escalate(self) -> float:
        self._shift += 1
        return self.current()

    def note_progress(self) -> None:
        self._shift = 0

    def observe(self, sample: float) -> None:
        self.estimator.observe(sample)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AdaptiveTimeout(srtt={self.estimator.srtt}, "
            f"rttvar={self.estimator.rttvar:.3f}, shift={self._shift})"
        )


def make_policy_factory(
    kind: str,
    base: float,
    **overrides,
) -> Callable[[], TimeoutPolicy]:
    """A factory of fresh per-process policies (state must not be shared).

    ``kind`` is ``"fixed"`` or ``"adaptive"``; ``base`` seeds either the
    fixed duration or the adaptive initial fallback. Keyword overrides are
    forwarded to the policy constructor.
    """
    if kind == "fixed":
        return lambda: FixedTimeout(base, **overrides)
    if kind == "adaptive":
        return lambda: AdaptiveTimeout(base, **overrides)
    raise ConfigurationError(f"unknown timeout policy kind {kind!r}")
