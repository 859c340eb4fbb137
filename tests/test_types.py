"""Tests for shared types: process sets, partitions."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.types import ProcessSet, validate_partition


class TestProcessSets:
    def test_membership_and_iteration(self):
        ps = ProcessSet("Q", (1, 2, 3))
        assert 2 in ps and 0 not in ps
        assert list(ps) == [1, 2, 3]
        assert len(ps) == 3

    def test_valid_partition(self):
        validate_partition(4, [ProcessSet("A", (0, 1)), ProcessSet("B", (2, 3))])

    def test_partition_missing_pid(self):
        with pytest.raises(ConfigurationError, match="does not cover"):
            validate_partition(4, [ProcessSet("A", (0, 1)), ProcessSet("B", (2,))])

    def test_partition_duplicate_pid(self):
        with pytest.raises(ConfigurationError, match="more than one"):
            validate_partition(3, [ProcessSet("A", (0, 1)), ProcessSet("B", (1, 2))])

    def test_partition_out_of_range(self):
        with pytest.raises(ConfigurationError, match="out-of-range"):
            validate_partition(2, [ProcessSet("A", (0, 5))])
