"""Uniform transition-rate dynamics on the probability simplex.

The generator is R = ones*ones^T - K*I (never stored densely on fast
paths).  Its spectrum is {0, -K}, which gives the forward marginal in
closed form:

    exp(sbar * R) q0 = exp(-K*sbar) * q0 + (1 - exp(-K*sbar))/K * ones
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError

# Simplex hygiene: renormalize silently below DRIFT_RENORM, fail above DRIFT_FAIL.
DRIFT_RENORM = 1e-12
DRIFT_FAIL = 1e-8


def ensure_distribution(q: np.ndarray, where: str = "distribution") -> np.ndarray:
    """Validate and re-project a probability vector (or rows of a matrix).

    Negative entries within -DRIFT_FAIL are clamped to zero and the vector is
    renormalized; drift beyond DRIFT_FAIL raises instead of being masked.
    """
    q = np.asarray(q, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise NumericalError(f"{where}: non-finite entries")
    if np.any(q < -DRIFT_FAIL):
        raise NumericalError(f"{where}: negative mass {q.min():.3e} exceeds drift tolerance")
    q = np.maximum(q, 0.0)
    total = q.sum(axis=-1, keepdims=True)
    if np.any(np.abs(total - 1.0) > DRIFT_FAIL):
        raise NumericalError(f"{where}: mass drift {np.abs(total - 1.0).max():.3e} exceeds tolerance")
    if np.any(np.abs(total - 1.0) > DRIFT_RENORM):
        q = q / total
    return q


def forward_marginal(q0: np.ndarray, sigma_bar) -> np.ndarray:
    """Marginal after total noise sigma_bar: a convex pull toward uniform.

    Accepts a vector or rows of a matrix; sigma_bar may be a scalar or one
    value per row.
    """
    q0 = ensure_distribution(q0, "forward_marginal input")
    k = q0.shape[-1]
    sigma_bar = np.asarray(sigma_bar, dtype=np.float64)
    if np.any(sigma_bar < 0.0):
        raise ValidationError("sigma_bar must be nonnegative")
    alpha = np.exp(-k * sigma_bar)
    if q0.ndim == 2 and alpha.ndim == 1:
        alpha = alpha[:, None]
    out = alpha * q0 + (1.0 - alpha) / k
    return ensure_distribution(out, "forward_marginal output")


def sample_categorical_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one index per row of probs, from one uniform in [0, 1) per row.

    Row i draws the first index whose cumulative mass exceeds u[i] times the
    row's total, so an index of zero probability is never drawn.
    """
    probs = np.asarray(probs, dtype=np.float64)
    cum = np.cumsum(probs, axis=1)
    r = np.asarray(u, dtype=np.float64)[:, None] * cum[:, -1:]
    return np.minimum((cum <= r).sum(axis=1), probs.shape[1] - 1)
