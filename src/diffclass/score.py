"""The scorer interface: a denoiser read as class distributions.

A read (Scorer.score_batch) estimates, per row of features, the label's
forward marginal at one noise time t given the features and the row's
anchor label: a distribution over the K labels, which the sampler's steps
take as it is.  The ratio form q_i / q_j against an anchor j is the loss's.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Floor applied to probabilities before ratio/log operations; forward
# marginals are analytically positive but can underflow at large noise.
PROB_FLOOR = 1e-12


def floor_probs(q: np.ndarray) -> np.ndarray:
    """Clip probabilities at PROB_FLOOR from below."""
    return np.maximum(np.asarray(q, dtype=np.float64), PROB_FLOOR)


class Scorer:
    """Reads one class distribution per row of (features, anchor label) at one time.

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

    def score_batch(self, features: np.ndarray, anchors: np.ndarray, t: float) -> np.ndarray:
        """Class distributions for a batch: (n, dim) features or their prepare result,
        (n,) anchors, one time t shared by every row -> (n, K) rows that sum to one."""
        raise NotImplementedError

    def _check_anchors(self, n: int, anchors) -> np.ndarray:
        """anchors as an array, checked to hold one integer label in [0, K) per row of n;
        raises ValidationError otherwise."""
        anchors = np.asarray(anchors)
        if anchors.shape != (n,):
            raise ValidationError(f"need one anchor per row: {n} rows, "
                                  f"anchors of shape {anchors.shape}")
        if anchors.size and not np.issubdtype(anchors.dtype, np.integer):
            raise ValidationError(f"anchors must be integer labels, not {anchors.dtype}")
        if anchors.size and (anchors.min() < 0 or anchors.max() >= self.k):
            raise ValidationError(f"anchors must lie in [0, {self.k})")
        return anchors
