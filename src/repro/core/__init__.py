"""The paper's contribution, executable.

- :mod:`~repro.core.rounds` — the round engine and its transports (shared
  memory = unidirectional; async message passing = zero-directional;
  lock-step = bidirectional; timed = unidirectional at 2Δ).
- :mod:`~repro.core.directionality` — the bi/uni/zero checkers.
- :mod:`~repro.core.srb` — sequenced reliable broadcast spec + checker.
- :mod:`~repro.core.srb_from_uni` — Algorithm 1 (L1/L2 proofs, n ≥ 2t+1).
- :mod:`~repro.core.srb_from_trinc` — SRB from trusted logs (no quorum).
- :mod:`~repro.core.trinc_from_srb` — Theorem 1 (SRB ⇒ TrInc interface).
- :mod:`~repro.core.srb_oracle` — idealized SRB for constructions above it.
- :mod:`~repro.core.uni_from_sm` — §3.2 over SWMR / PEATS / sticky bits.
- :mod:`~repro.core.uni_from_rb_corner` — Appendix B (f = 1 corner case).
- :mod:`~repro.core.argument` — one engine for indistinguishability
  arguments: worlds, run once or model-checked.
- :mod:`~repro.core.separations` — §4.1's three scenarios, declared.
- :mod:`~repro.core.classification` — Figure 1 as runnable arrows.
"""

from .argument import Argument, ArgumentOutcome, World
from .classification import (
    ARROWS,
    Arrow,
    ArrowEvidence,
    ClassificationResult,
    NODES,
    render_figure,
    run_classification,
)
from .directionality import (
    BIDIRECTIONAL,
    DirectionalityReport,
    DirectionalityStreamChecker,
    UNIDIRECTIONAL,
    ZERO_DIRECTIONAL,
    check_directionality,
)
from .rounds import (
    Label,
    LockStepRoundTransport,
    MessagePassingRoundTransport,
    POST,
    RoundProcess,
    RoundTransport,
    SharedMemoryRoundTransport,
    TimedRoundTransport,
)
from .separations import CandidateSRBRound, round_finishers, srb_separation
from .srb import (
    SRBLivenessChecker,
    SRBReport,
    SRBStreamChecker,
    check_srb,
    check_srb_liveness,
    deliveries_by_process,
)
from .srb_from_trinc import SRBFromA2M, SRBFromTrInc
from .srb_from_uni import (
    SRBFromUnidirectional,
    build_mp_srb_system,
    build_sm_srb_system,
    validate_l2,
)
from .srb_oracle import SRBOracle, SRBSenderHandle
from .trinc_from_srb import SRBAttestation, SRBTrincVerifier, SRBTrinket
from .uni_from_rb_corner import CornerCaseRoundTransport
from .uni_from_sm import (
    ALL_SM_TRANSPORTS,
    PEATSRoundTransport,
    StickyChainRoundTransport,
    SWMRRoundTransport,
    build_objects_for,
)

__all__ = [
    "ALL_SM_TRANSPORTS",
    "ARROWS",
    "Argument",
    "ArgumentOutcome",
    "Arrow",
    "ArrowEvidence",
    "BIDIRECTIONAL",
    "CandidateSRBRound",
    "ClassificationResult",
    "CornerCaseRoundTransport",
    "DirectionalityReport",
    "Label",
    "LockStepRoundTransport",
    "MessagePassingRoundTransport",
    "NODES",
    "PEATSRoundTransport",
    "POST",
    "RoundProcess",
    "RoundTransport",
    "SRBAttestation",
    "SRBFromA2M",
    "SRBFromTrInc",
    "SRBFromUnidirectional",
    "SRBOracle",
    "SRBReport",
    "SRBSenderHandle",
    "SRBTrincVerifier",
    "SRBTrinket",
    "SharedMemoryRoundTransport",
    "StickyChainRoundTransport",
    "SWMRRoundTransport",
    "TimedRoundTransport",
    "UNIDIRECTIONAL",
    "World",
    "ZERO_DIRECTIONAL",
    "build_objects_for",
    "build_mp_srb_system",
    "build_sm_srb_system",
    "DirectionalityStreamChecker",
    "SRBLivenessChecker",
    "SRBStreamChecker",
    "check_directionality",
    "check_srb",
    "check_srb_liveness",
    "deliveries_by_process",
    "render_figure",
    "run_classification",
    "round_finishers",
    "srb_separation",
    "validate_l2",
]
