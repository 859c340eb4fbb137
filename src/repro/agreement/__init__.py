"""The agreement problem zoo and its possibility/impossibility witnesses.

=====================  ==========================  ===========================
problem                solvable with               not solvable with
=====================  ==========================  ===========================
very weak agreement    unidirectionality, n > f    reliable broadcast, n ≤ 2f
                       (:mod:`very_weak_uni`)      (:mod:`worlds`, 5 worlds)
weak validity          non-equivocation hardware,  classic asynchrony, n ≤ 3f
agreement              n ≥ 2f+1 (:mod:`weak_uni`)
strong validity        synchrony, n ≥ 2f+1         unidirectionality, n ≤ 3f
agreement              (:mod:`strong_sync`)
=====================  ==========================  ===========================
"""

from .definitions import (
    AgreementReport,
    AgreementStreamChecker,
    STRONG,
    VERY_WEAK,
    WEAK,
    check_agreement,
)
from .strong_sync import StrongAgreementProcess, build_strong_agreement_system
from .strong_worlds import MajorityCandidate, strong_validity_impossibility
from .very_weak_uni import VeryWeakAgreement
from .weak_uni import WeakAgreementProcess, build_weak_agreement_system
from .worlds import QuorumVWA, commits, vwa_rb_impossibility

__all__ = [
    "AgreementReport",
    "AgreementStreamChecker",
    "MajorityCandidate",
    "QuorumVWA",
    "STRONG",
    "StrongAgreementProcess",
    "VERY_WEAK",
    "VeryWeakAgreement",
    "WEAK",
    "WeakAgreementProcess",
    "build_strong_agreement_system",
    "build_weak_agreement_system",
    "check_agreement",
    "commits",
    "strong_validity_impossibility",
    "vwa_rb_impossibility",
]
