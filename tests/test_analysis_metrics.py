"""Tests for the shared value types."""

from __future__ import annotations

import pytest

from repro.types import Decision, Delivery, Message


class TestSharedTypes:
    def test_message_repr(self):
        assert repr(Message("PING", 7)) == "Message('PING', 7)"

    def test_message_immutable(self):
        msg = Message("PING", 7)
        with pytest.raises(AttributeError):
            msg.kind = "PONG"

    def test_delivery_and_decision_are_value_types(self):
        assert Delivery(1, 0, 2, "v", 1.0) == Delivery(1, 0, 2, "v", 1.0)
        assert Decision(0, "v", 1.0) == Decision(0, "v", 1.0)
        assert Decision(0, "v", 1.0) != Decision(0, "w", 1.0)
