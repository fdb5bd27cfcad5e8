"""Noise schedule: closed-form values, monotonicity, and the integral identity."""

import math

import numpy as np
import pytest

from diffclass.errors import ValidationError
from diffclass.schedule import LogLinearSchedule


class TestValues:
    def test_sigma_at_zero_default_params(self):
        """Direct scalar evaluation of the rate at t=0 for the default family."""
        s = LogLinearSchedule(20.0, 1e-4)
        expected = 20.0 * math.log(1e-4) / (1e-4 - 1.0)
        assert s.sigma(0.0) == pytest.approx(expected, rel=1e-15)
        assert s.sigma(0.0) == pytest.approx(184.23, abs=0.01)

    def test_sigma_bar_endpoints_exact(self):
        s = LogLinearSchedule(20.0, 1e-4)
        assert s.sigma_bar(0.0) == 0.0
        assert s.sigma_bar(1.0) == pytest.approx(20.0, rel=1e-15)

    def test_sigma_bar_midpoint(self):
        s = LogLinearSchedule(20.0, 1e-4)
        expected = 20.0 * (1e-2 - 1.0) / (1e-4 - 1.0)
        assert s.sigma_bar(0.5) == pytest.approx(expected, rel=1e-15)
        assert s.sigma_bar(0.5) == pytest.approx(19.802, abs=1e-3)

    def test_vectorized_matches_scalar(self):
        s = LogLinearSchedule(5.0, 0.3)
        t = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(s.sigma(t), [s.sigma(float(x)) for x in t], rtol=1e-15)


class TestMonotonicity:
    @pytest.mark.parametrize("params", [(20.0, 1e-4), (1.0, 0.9), (0.5, 0.01)])
    def test_sigma_decreasing_sigma_bar_increasing(self, params):
        s = LogLinearSchedule(*params)
        t = np.linspace(0.0, 1.0, 257)
        sig = s.sigma(t)
        sbar = s.sigma_bar(t)
        assert np.all(np.diff(sig) < 0.0)
        assert np.all(np.diff(sbar) > 0.0)
        assert np.all(sig > 0.0)

    def test_pairwise_ordering(self):
        s = LogLinearSchedule(20.0, 1e-4)
        assert s.sigma(0.2) > s.sigma(0.8)
        assert s.sigma_bar(0.2) < s.sigma_bar(0.8)


class TestIntegralIdentity:
    def test_sigma_bar_matches_trapezoid_quadrature(self):
        """sigma_bar(t) equals the cumulative integral of sigma on a 1e6-point grid."""
        s = LogLinearSchedule(20.0, 1e-4)
        grid = np.linspace(0.0, 1.0, 1_000_001)
        sig = s.sigma(grid)
        dx = grid[1] - grid[0]
        cumulative = np.concatenate([[0.0], np.cumsum((sig[1:] + sig[:-1]) * 0.5 * dx)])
        for t in np.arange(0.1, 1.01, 0.1):
            idx = int(round(t * 1_000_000))
            rel = abs(cumulative[idx] - s.sigma_bar(t)) / s.sigma_bar(t)
            assert rel < 1e-6

    def test_sigma_is_derivative_of_sigma_bar(self):
        """Central differences of sigma_bar recover sigma at interior points."""
        s = LogLinearSchedule(3.0, 0.05)
        h = 1e-6
        for t in np.linspace(0.1, 0.9, 9):
            fd = (s.sigma_bar(t + h) - s.sigma_bar(t - h)) / (2.0 * h)
            assert abs(fd - s.sigma(t)) / s.sigma(t) < 1e-5


class TestValidation:
    @pytest.mark.parametrize("t", [-0.1, 1.1, float("nan")])
    def test_time_domain_errors(self, t):
        s = LogLinearSchedule(0.6, 0.7)
        with pytest.raises(ValidationError):
            s.sigma(t)
        with pytest.raises(ValidationError):
            s.sigma_bar(t)

    @pytest.mark.parametrize("params", [(-1.0, 0.5), (0.0, 0.5), (1.0, 0.0), (1.0, 1.0), (1.0, 2.0)])
    def test_parameter_errors(self, params):
        with pytest.raises(ValidationError):
            LogLinearSchedule(*params)
