"""The broadcast problem zoo the classification is measured against.

- :mod:`~repro.broadcast.definitions` — non-equivocating / reliable /
  Byzantine broadcast specs with trace checkers, and the ⊥ value.
- :class:`~repro.broadcast.bracha.BrachaRBC` — the hardware-free
  asynchronous baseline (n ≥ 3f+1).
- :class:`~repro.broadcast.nonequivocating.NonEquivocatingBroadcast` —
  from unidirectional rounds, n ≥ f+1 (draft result).
- :class:`~repro.broadcast.dolev_strong.DolevStrong` — Byzantine broadcast
  under lock-step synchrony, any f < n, f+1 rounds.
"""

from .bracha import BrachaRBC
from .definitions import (
    BOT,
    check_byzantine_broadcast,
    check_nonequivocating_broadcast,
    check_reliable_broadcast,
)
from .dolev_strong import DolevStrong, ds_domain, validate_chain
from .nonequivocating import NonEquivocatingBroadcast

__all__ = [
    "BOT",
    "BrachaRBC",
    "DolevStrong",
    "NonEquivocatingBroadcast",
    "check_byzantine_broadcast",
    "check_nonequivocating_broadcast",
    "check_reliable_broadcast",
    "ds_domain",
    "validate_chain",
]
