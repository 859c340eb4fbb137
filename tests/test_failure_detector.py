"""Tests for the phi-accrual failure detector."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults.detector import AccrualFailureDetector


class TestAccrualFailureDetector:
    def test_silence_raises_phi_monotonically(self):
        fd = AccrualFailureDetector(min_samples=2)
        for t in (0.0, 1.0, 2.0, 3.0, 4.0):
            fd.heartbeat(1, t)
        assert fd.phi(1, 4.5) < fd.phi(1, 8.0) < fd.phi(1, 20.0)

    def test_regular_heartbeats_stay_unsuspected(self):
        fd = AccrualFailureDetector(threshold=3.0, min_samples=2)
        for t in range(50):
            fd.heartbeat(1, float(t))
        # right at the expected next arrival phi is ~0.3, far under threshold
        assert not fd.is_suspect(1, 50.0)

    def test_long_silence_crosses_threshold(self):
        fd = AccrualFailureDetector(threshold=3.0, min_samples=2)
        for t in range(10):
            fd.heartbeat(1, float(t))
        assert fd.is_suspect(1, 30.0)

    def test_unknown_or_young_peer_scores_zero(self):
        fd = AccrualFailureDetector(min_samples=3)
        assert fd.phi(9, 100.0) == 0.0
        fd.heartbeat(9, 0.0)
        fd.heartbeat(9, 1.0)
        assert fd.phi(9, 100.0) == 0.0  # 2 intervals < min_samples... still learning

    def test_jittery_peer_needs_longer_silence(self):
        steady = AccrualFailureDetector(min_samples=2)
        jittery = AccrualFailureDetector(min_samples=2)
        for i in range(40):
            steady.heartbeat(1, float(i))
            jittery.heartbeat(1, i + (0.4 if i % 2 else 0.0))
        assert jittery.phi(1, 41.5) < steady.phi(1, 41.5)

    def test_forget_resets_history(self):
        fd = AccrualFailureDetector(min_samples=2)
        for t in range(10):
            fd.heartbeat(1, float(t))
        fd.forget(1)
        assert fd.phi(1, 100.0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AccrualFailureDetector(threshold=0.0)
        with pytest.raises(ConfigurationError):
            AccrualFailureDetector(alpha=0.0)
