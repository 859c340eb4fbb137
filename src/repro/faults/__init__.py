"""Fault injection: lossy/chaotic adversaries, reliable channels, chaos sweeps.

Five layers, composable with every protocol in the library:

- :mod:`~repro.faults.adversaries` — network faults (loss, bursts,
  partitions, duplication, stragglers) as drop-in adversaries, including
  the partial-synchrony :class:`~repro.faults.adversaries.GSTAdversary`;
- :mod:`~repro.faults.channel` — the retransmission layer that restores
  the eventual-delivery assumption protocols were written against;
- :mod:`~repro.faults.timeouts` — Jacobson/Karels adaptive timeout
  policies shared by the channel and the consensus timers;
- :mod:`~repro.faults.detector` — phi-accrual failure detection (the
  serving layer's backend-stall signal);
- :mod:`~repro.faults.chaos` — seeded cell × fault-schedule sweeps with
  deterministic failure reproduction, plus crash-recovery scripts that
  exercise the durable-hardware/volatile-host split. Every cell — a
  protocol, a variant, or an :mod:`~repro.faults.attacks` entry on its
  target — is one declaration in ``chaos.CELLS``.
"""

from .attacks import (
    ATTACKS,
    Attack,
    AttackSpec,
    AttackerProcess,
    TraitorReplica,
    attacks_for,
    get_attack,
)
from .adversaries import (
    BurstWindow,
    ChaosAdversary,
    GSTAdversary,
    LossyAsynchronous,
    PartitionBurst,
)
from .channel import ReliableChannel, ReliableProcess, wrap_reliable
from .chaos import (
    ChaosResult,
    CrashEvent,
    EagerBrokenSRB,
    FaultSchedule,
    StallingPrimary,
    assert_all_ok,
    chaos_sweep,
    format_failures,
    make_schedule,
    replay,
    run_chaos,
    run_attack,
    run_compromised_minbft_soak,
    run_minbft_chaos,
    run_pbft_chaos,
    run_srb_chaos,
    attack_sweep,
)
from .detector import AccrualFailureDetector
from .timeouts import (
    AdaptiveTimeout,
    FixedTimeout,
    JitteredPolicy,
    RetryBudget,
    RttEstimator,
    TimeoutPolicy,
    derive_jitter_rng,
    make_policy_factory,
)

__all__ = [
    "ATTACKS",
    "AccrualFailureDetector",
    "AdaptiveTimeout",
    "Attack",
    "AttackSpec",
    "AttackerProcess",
    "BurstWindow",
    "ChaosAdversary",
    "ChaosResult",
    "CrashEvent",
    "EagerBrokenSRB",
    "FaultSchedule",
    "FixedTimeout",
    "GSTAdversary",
    "JitteredPolicy",
    "LossyAsynchronous",
    "PartitionBurst",
    "RetryBudget",
    "ReliableChannel",
    "ReliableProcess",
    "RttEstimator",
    "StallingPrimary",
    "TimeoutPolicy",
    "TraitorReplica",
    "assert_all_ok",
    "attack_sweep",
    "attacks_for",
    "chaos_sweep",
    "derive_jitter_rng",
    "format_failures",
    "get_attack",
    "make_policy_factory",
    "make_schedule",
    "replay",
    "run_attack",
    "run_chaos",
    "run_compromised_minbft_soak",
    "run_minbft_chaos",
    "run_pbft_chaos",
    "run_srb_chaos",
    "wrap_reliable",
]
