"""Tests for the scope functions (position sets)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.streams.scopes import (
    full_scope_positions,
    landmark_scope_positions,
    sliding_scope_positions,
)


class TestPositionSets:
    def test_full_scope(self):
        assert list(full_scope_positions(4)) == [1, 2, 3, 4]

    def test_sliding_scope_clamps_at_start(self):
        assert list(sliding_scope_positions(2, window=5)) == [1, 2]
        assert list(sliding_scope_positions(9, window=3)) == [7, 8, 9]

    def test_landmark_scope_uses_latest_landmark(self):
        assert list(landmark_scope_positions(7, [1, 5, 10])) == [5, 6, 7]
        assert list(landmark_scope_positions(4, [1, 5, 10])) == [1, 2, 3, 4]

    def test_full_is_landmark_with_origin(self):
        for i in (1, 3, 9):
            assert list(landmark_scope_positions(i, [1])) == list(full_scope_positions(i))

    def test_invalid_positions(self):
        with pytest.raises(ConfigurationError):
            full_scope_positions(0)
        with pytest.raises(ConfigurationError):
            sliding_scope_positions(1, 0)
        with pytest.raises(ConfigurationError):
            landmark_scope_positions(3, [5])

