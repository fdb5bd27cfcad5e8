"""Noise schedules for the label-corruption process.

A schedule provides the instantaneous noise rate ``sigma(t)`` and its
integral ``sigma_bar(t)`` over [0, t].  The log-linear family used here is
parameterized by the total noise at t=1 and a geometric decay constant in
(0, 1), which keeps positivity and monotonicity explicit:

    sigma(t)     = sigma_bar_max * c**t * ln(c) / (c - 1)
    sigma_bar(t) = sigma_bar_max * (c**t - 1) / (c - 1)

sigma is strictly positive and strictly decreasing on [0, 1];
sigma_bar(0) = 0 and sigma_bar(1) = sigma_bar_max exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class LogLinearSchedule:
    """Geometric-decay noise rate with closed-form total noise.

    At t=1 the forward process keeps a share exp(-K * sigma_bar_max) of the
    label signal.  The parameters have no defaults; TrainConfig holds the
    ones training uses.  sigma(1) is small but nonzero under this family.
    """

    sigma_bar_max: float
    decay: float

    def __post_init__(self) -> None:
        if not (self.sigma_bar_max > 0.0 and math.isfinite(self.sigma_bar_max)):
            raise ValidationError(f"sigma_bar_max must be positive, got {self.sigma_bar_max}")
        if not (0.0 < self.decay < 1.0):
            raise ValidationError(f"decay must lie in (0, 1), got {self.decay}")

    def _check_time(self, t):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0.0) or np.any(t > 1.0) or not np.all(np.isfinite(t)):
            raise ValidationError("time must lie in [0, 1]")
        return t

    def sigma(self, t):
        """Noise rate at time t; strictly decreasing, strictly positive."""
        t = self._check_time(t)
        c = self.decay
        out = self.sigma_bar_max * np.power(c, t) * math.log(c) / (c - 1.0)
        return float(out) if out.ndim == 0 else out

    def sigma_bar(self, t):
        """Total noise accumulated over [0, t]; equals the integral of sigma."""
        t = self._check_time(t)
        c = self.decay
        out = self.sigma_bar_max * (np.power(c, t) - 1.0) / (c - 1.0)
        return float(out) if out.ndim == 0 else out
