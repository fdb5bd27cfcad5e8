"""Probability-ratio scores anchored at a reference label.

A score column for anchor j holds the ratios q_i / q_j, so its anchor
entry is exactly one and all entries are positive.  Normalizing a column
recovers the distribution it was derived from, which is what lets the
class-probability sampler rebuild the full rank-one score matrix from a
single column.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .schedule import LogLinearSchedule
from .transition import forward_marginal

# Floor applied to probabilities before ratio/log operations; forward
# marginals are analytically positive but can underflow at large noise.
PROB_FLOOR = 1e-12


def floor_probs(q: np.ndarray) -> np.ndarray:
    """Clip probabilities at PROB_FLOOR from below."""
    return np.maximum(np.asarray(q, dtype=np.float64), PROB_FLOOR)


class Scorer:
    """Produces a score column for (features, anchor label, time).

    Subclasses implement score_batch; scoring is read-only on any internal
    state, so concurrent calls across inputs are safe.  A caller that scores
    the same rows many times (a sampler, once per step) passes them through
    prepare once and gives the result to score_batch in place of the
    features; prepare may do work that does not depend on the anchor or t.
    """

    k: int

    def prepare(self, features: np.ndarray):
        """Rows for repeated score_batch calls; the base class keeps the features as they are."""
        return features

    def score_batch(self, features: np.ndarray, anchors: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Score columns for a batch: (n, dim) features or their prepare result,
        (n,) anchors, (n,) times -> (n, K)."""
        raise NotImplementedError

    def _check_rows(self, n: int, anchors, t) -> tuple[np.ndarray, np.ndarray]:
        """anchors and t as arrays, checked to hold one integer label in [0, K) and one
        time per row of n; raises ValidationError otherwise."""
        anchors = np.asarray(anchors)
        t = np.asarray(t, dtype=np.float64)
        if anchors.shape != (n,) or t.shape != (n,):
            raise ValidationError(f"need one anchor and one time per row: {n} rows, "
                                  f"anchors of shape {anchors.shape}, t of shape {t.shape}")
        if anchors.size and not np.issubdtype(anchors.dtype, np.integer):
            raise ValidationError(f"anchors must be integer labels, not {anchors.dtype}")
        if anchors.size and (anchors.min() < 0 or anchors.max() >= self.k):
            raise ValidationError(f"anchors must lie in [0, {self.k})")
        return anchors, t


class ExactScorer(Scorer):
    """Oracle scorer built from a known clean-label posterior.

    posterior_fn maps a batch of features (n, dim) to exact clean posteriors
    (n, K); the score at time t is the ratio column of the forward marginal
    after sigma_bar(t) total noise.
    """

    def __init__(self, posterior_fn, k: int, schedule: LogLinearSchedule):
        self.posterior_fn = posterior_fn
        self.k = k
        self.schedule = schedule

    def score_batch(self, features, anchors, t):
        features = np.asarray(features, dtype=np.float64)
        anchors, t = self._check_rows(len(features), anchors, t)
        q0 = self.posterior_fn(features)
        qt = floor_probs(forward_marginal(q0, np.asarray(self.schedule.sigma_bar(t))))
        rows = np.arange(len(anchors))
        values = qt / qt[rows, anchors][:, None]
        values[rows, anchors] = 1.0
        return values
