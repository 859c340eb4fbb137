"""repro — reproduction of *Classifying Trusted Hardware via Unidirectional
Communication* (Ben-David & Nayak, PODC 2021).

The library simulates the trusted-hardware landscape the paper classifies:

- ``repro.sim`` — deterministic discrete-event simulator (asynchronous
  message passing, asynchronous shared memory, adversaries, faults).
- ``repro.crypto`` — simulated unforgeable transferable signatures.
- ``repro.hardware`` — the hardware zoo: TrInc, A2M, SGX-like enclaves,
  SWMR registers, sticky bits, PEATS, all ACL-guarded.
- ``repro.core`` — the paper's contribution: unidirectional rounds,
  sequenced reliable broadcast, the constructions between them, the
  separation argument, and the executable Figure-1 classification.
- ``repro.broadcast`` / ``repro.agreement`` — the problem zoo the
  classification is measured against.
- ``repro.consensus`` — MinBFT (trusted-hardware BFT, n ≥ 2f+1) and a
  PBFT baseline (n ≥ 3f+1), with clients and safety checkers.
- ``repro.faults`` — fault injection: lossy/chaotic adversaries, the
  reliable-channel retransmission layer, crash-recovery scripts, and the
  seeded chaos harness.

Quickstart: see ``examples/quickstart.py``.
"""

from __future__ import annotations

__version__ = "1.0.0"

# Headline entry points, re-exported for discoverability. Subpackages stay
# the canonical import path; these cover the quickstart surface.
from .core import (  # noqa: E402
    build_sm_srb_system,
    check_directionality,
    check_srb,
    render_figure,
    run_classification,
    srb_separation,
)
from .consensus import build_minbft_system, build_pbft_system, check_replication  # noqa: E402
from .faults import ChaosAdversary, chaos_sweep, run_chaos, wrap_reliable  # noqa: E402
from .sim import Simulation  # noqa: E402

__all__ = [
    "ChaosAdversary",
    "Simulation",
    "__version__",
    "build_minbft_system",
    "build_pbft_system",
    "build_sm_srb_system",
    "chaos_sweep",
    "check_directionality",
    "check_replication",
    "check_srb",
    "render_figure",
    "run_chaos",
    "run_classification",
    "srb_separation",
]
