"""Trusted-hardware BFT replication (MinBFT) and its classic baseline (PBFT).

The quantitative side of the paper's motivation: non-equivocation hardware
raises fault tolerance from n ≥ 3f+1 to n ≥ 2f+1 and removes a message
round. Components:

- :class:`~repro.consensus.usig.USIG` — MinBFT's trusted monotonic counter
  service, a shim over :class:`~repro.hardware.trinc.Trinket`.
- :class:`~repro.consensus.minbft.MinBFTReplica` — 2f+1 replication with
  the tamper-evident-log view change.
- :class:`~repro.consensus.pbft.PBFTReplica` — the 3f+1 baseline.
- :class:`~repro.consensus.client.BFTClient`, app state machines, safety
  checkers, and :mod:`~repro.consensus.harness` system builders.
"""

from .apps import APP_FACTORIES, BankApp, CounterApp, KVStoreApp, StateMachine, make_app
from .batching import AdaptiveBatchPolicy, FixedBatchPolicy, make_batch_policy
from .client import BFTClient
from .dedup import ClientDedup
from .enclave_usig import EnclaveUI, EnclaveUSIG, EnclaveUSIGVerifier, usig_program
from .forensics import (
    AccountabilityChecker,
    ProofOfMisbehavior,
    install_accountability,
    verify_proof,
)
from .harness import build_minbft_system, build_pbft_system, default_workload
from .minbft import MinBFTReplica
from .pbft import PBFTReplica
from .safety import (
    Execution,
    LivenessReport,
    ReplicationLivenessChecker,
    ReplicationReport,
    ReplicationStreamChecker,
    check_replication,
    check_replication_liveness,
)
from .usig import UI, UIOrderEnforcer, USIG, USIGVerifier
from .viewchange import LogEntry, SlotCandidate, compute_reproposals

__all__ = [
    "APP_FACTORIES",
    "AccountabilityChecker",
    "AdaptiveBatchPolicy",
    "BFTClient",
    "BankApp",
    "ClientDedup",
    "CounterApp",
    "FixedBatchPolicy",
    "EnclaveUI",
    "EnclaveUSIG",
    "EnclaveUSIGVerifier",
    "Execution",
    "KVStoreApp",
    "LivenessReport",
    "LogEntry",
    "MinBFTReplica",
    "PBFTReplica",
    "ProofOfMisbehavior",
    "ReplicationLivenessChecker",
    "ReplicationReport",
    "ReplicationStreamChecker",
    "SlotCandidate",
    "StateMachine",
    "UI",
    "UIOrderEnforcer",
    "USIG",
    "USIGVerifier",
    "build_minbft_system",
    "build_pbft_system",
    "check_replication",
    "check_replication_liveness",
    "compute_reproposals",
    "default_workload",
    "install_accountability",
    "make_app",
    "make_batch_policy",
    "usig_program",
    "verify_proof",
]
