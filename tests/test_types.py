"""Model-level validation helpers in repro.types."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.types import (
    default_fault_budget,
    validate_fault_budget,
    validate_node_count,
)


class TestNodeCount:
    @pytest.mark.parametrize("n", [2, 3, 100])
    def test_valid(self, n):
        validate_node_count(n)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_too_small(self, n):
        with pytest.raises(ConfigurationError):
            validate_node_count(n)

    @pytest.mark.parametrize("n", ["4", 4.0, None, True])
    def test_non_int_rejected(self, n):
        with pytest.raises(ConfigurationError):
            validate_node_count(n)


class TestFaultBudget:
    def test_bounds(self):
        validate_fault_budget(0, 2)
        validate_fault_budget(2, 4)

    @pytest.mark.parametrize("t,n", [(-1, 4), (3, 4), (4, 4)])
    def test_out_of_bounds(self, t, n):
        with pytest.raises(ConfigurationError):
            validate_fault_budget(t, n)

    @given(n=st.integers(min_value=2, max_value=10_000))
    def test_default_budget_always_legal(self, n):
        t = default_fault_budget(n)
        validate_fault_budget(t, n)
        assert t == (n - 1) // 3

