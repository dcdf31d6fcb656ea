"""Model-level validation helpers in repro.types."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.types import (
    default_fault_budget,
    other_nodes,
    validate_fault_budget,
    validate_node_count,
    validate_node_id,
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


class TestNodeId:
    def test_valid_range(self):
        validate_node_id(0, 4)
        validate_node_id(3, 4)

    @pytest.mark.parametrize("node", [-1, 4, 100])
    def test_out_of_range(self, node):
        with pytest.raises(ConfigurationError):
            validate_node_id(node, 4)

    def test_bool_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_node_id(True, 4)


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


class TestEnumeration:
    def test_other_nodes(self):
        assert other_nodes(1, 4) == [0, 2, 3]

    def test_other_nodes_validates(self):
        with pytest.raises(ConfigurationError):
            other_nodes(5, 4)
