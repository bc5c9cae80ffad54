"""Tests for the error hierarchy and validation helpers."""

from __future__ import annotations

import pytest

from repro import errors
from repro._validation import (
    require,
    require_fraction,
    require_in_range,
    require_int,
    require_non_negative,
    require_positive,
)
from repro.errors import ConfigurationError, ReproError


class TestErrorHierarchy:
    @pytest.mark.parametrize("name", [
        "ConfigurationError", "AddressError", "OverlayError",
        "RoutingError", "AccountingError", "SettlementError",
        "InsufficientFundsError", "SimulationError", "ExperimentError",
        "WorkloadError",
    ])
    def test_all_derive_from_repro_error(self, name):
        error_class = getattr(errors, name)
        assert issubclass(error_class, ReproError)

    def test_address_error_is_configuration_error(self):
        assert issubclass(errors.AddressError, ConfigurationError)

    def test_insufficient_funds_is_settlement_error(self):
        assert issubclass(
            errors.InsufficientFundsError, errors.SettlementError
        )

    def test_routing_error_carries_context(self):
        error = errors.RoutingError("stuck", origin=1, target=2)
        assert error.origin == 1
        assert error.target == 2

    def test_one_catch_all(self):
        with pytest.raises(ReproError):
            raise errors.WorkloadError("bad workload")


class TestValidationHelpers:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ConfigurationError, match="broken"):
            require(False, "broken")

    def test_require_positive(self):
        require_positive(0.1, "x")
        with pytest.raises(ConfigurationError):
            require_positive(0, "x")
        with pytest.raises(ConfigurationError):
            require_positive(-1, "x")

    def test_require_non_negative(self):
        require_non_negative(0, "x")
        with pytest.raises(ConfigurationError):
            require_non_negative(-0.001, "x")

    def test_require_int_rejects_bools_and_floats(self):
        assert require_int(5, "x") == 5
        with pytest.raises(ConfigurationError):
            require_int(True, "x")
        with pytest.raises(ConfigurationError):
            require_int(5.0, "x")

    def test_require_in_range(self):
        require_in_range(5, 0, 10, "x")
        with pytest.raises(ConfigurationError, match=r"\[0, 10\]"):
            require_in_range(11, 0, 10, "x")

    def test_require_fraction(self):
        require_fraction(0.0, "x")
        require_fraction(1.0, "x")
        with pytest.raises(ConfigurationError):
            require_fraction(1.01, "x")
