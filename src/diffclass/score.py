"""Probability-ratio scores anchored at a reference label.

A score column for anchor j holds the ratios q_i / q_j, so its anchor
entry is exactly one and all entries are positive.  Normalizing a column
recovers the distribution it was derived from, which is what lets the
class-probability sampler rebuild the full rank-one score matrix from a
single column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .schedule import LogLinearSchedule
from .transition import ensure_distribution, forward_marginal

# Floor applied to probabilities before ratio/log operations; forward
# marginals are analytically positive but can underflow at large noise.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class ScoreColumn:
    """Positive ratio vector with the anchor entry pinned to one."""

    values: np.ndarray
    anchor: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValidationError("score column must be one-dimensional")
        if not (0 <= self.anchor < values.shape[0]):
            raise ValidationError(f"anchor {self.anchor} out of range for K={values.shape[0]}")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValidationError("score column entries must be positive and finite")
        if values[self.anchor] != 1.0:
            raise ValidationError(f"anchor entry must equal 1, got {values[self.anchor]!r}")

    @property
    def k(self) -> int:
        return int(self.values.shape[0])


def floor_probs(q: np.ndarray) -> np.ndarray:
    """Clip probabilities at PROB_FLOOR from below."""
    return np.maximum(np.asarray(q, dtype=np.float64), PROB_FLOOR)


def exact_score_column(q: np.ndarray, j: int) -> ScoreColumn:
    """Ratio column q / q[j] of a known distribution, anchored at j."""
    q = np.asarray(q, dtype=np.float64)
    if not (0 <= j < q.shape[0]):
        raise ValidationError(f"anchor {j} out of range for K={q.shape[0]}")
    qf = floor_probs(q)
    if not (qf[j] >= PROB_FLOOR):
        raise ValidationError(f"q[{j}] is not strictly positive after flooring")
    values = qf / qf[j]
    values[j] = 1.0
    return ScoreColumn(values, j)


def score_matrix_rank_one(q: np.ndarray) -> np.ndarray:
    """Full K x K ratio matrix q * (1/q)^T; column j equals the column anchored at j."""
    qf = floor_probs(q)
    return np.outer(qf, 1.0 / qf)


def normalize_scores(s: ScoreColumn) -> np.ndarray:
    """Distribution recovered from a score column; inverts exact_score_column."""
    q = s.values / s.values.sum()
    return ensure_distribution(q, "normalize_scores output")


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

    def score(self, y: np.ndarray, j: int, t: float) -> ScoreColumn:
        values = self.score_batch(
            np.asarray(y, dtype=np.float64)[None, :],
            np.asarray([j]),
            np.asarray([t], dtype=np.float64),
        )[0]
        values[j] = 1.0
        return ScoreColumn(values, int(j))


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
        anchors = np.asarray(anchors)
        q0 = self.posterior_fn(features)
        sbar = np.asarray(self.schedule.sigma_bar(np.asarray(t, dtype=np.float64)))
        qt = floor_probs(forward_marginal(q0, sbar))
        values = qt / qt[np.arange(len(anchors)), anchors][:, None]
        values[np.arange(len(anchors)), anchors] = 1.0
        return values


class UniformScorer(Scorer):
    """All-ones scores for every query; the uniform-belief fixed point."""

    def __init__(self, k: int):
        self.k = k

    def score_batch(self, features, anchors, t):
        return np.ones((len(anchors), self.k))
