"""Score columns: ratio extraction, rank-one structure, normalization round trip."""

import numpy as np
import pytest

from diffclass.data import MixtureTask, true_posterior_batch
from diffclass.errors import ValidationError
from diffclass.schedule import LogLinearSchedule
from diffclass.transition import forward_marginal
from oracles import (ExactScorer, ScoreColumn, UniformScorer, exact_score_column,
                     normalize_scores, score_column, score_matrix_rank_one)


class TestExactScoreColumn:
    def test_direct_ratios(self):
        col = exact_score_column(np.array([0.5, 0.25, 0.25]), 0)
        np.testing.assert_allclose(col.values, [1.0, 0.5, 0.5], atol=1e-15)
        assert col.anchor == 0

    def test_uniform_gives_all_ones(self):
        for j in range(4):
            col = exact_score_column(np.full(4, 0.25), j)
            np.testing.assert_allclose(col.values, 1.0, atol=1e-15)

    def test_small_anchor_large_ratios(self):
        col = exact_score_column(np.array([0.7, 0.2, 0.1]), 2)
        np.testing.assert_allclose(col.values, [7.0, 2.0, 1.0], rtol=1e-14)
        # re-multiplying by the anchor probability recovers the distribution
        np.testing.assert_allclose(col.values * 0.1, [0.7, 0.2, 0.1], rtol=1e-14)

    def test_anchor_entry_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = rng.dirichlet(np.ones(7))
            j = int(rng.integers(7))
            assert exact_score_column(q, j).values[j] == 1.0

    def test_invalid_anchor_probability(self):
        with pytest.raises(ValidationError):
            exact_score_column(np.array([1.0, np.nan]), 1)
        with pytest.raises(ValidationError):
            exact_score_column(np.array([0.5, 0.5]), 3)


class TestRankOneMatrix:
    def test_uniform_gives_all_ones_matrix(self):
        np.testing.assert_allclose(score_matrix_rank_one(np.full(3, 1 / 3)), 1.0, atol=1e-15)

    def test_columns_match_anchored_extraction(self):
        rng = np.random.default_rng(1)
        q = rng.dirichlet(np.ones(5))
        s = score_matrix_rank_one(q)
        for j in range(5):
            col = exact_score_column(q, j)
            np.testing.assert_allclose(s[:, j], col.values, rtol=1e-12)
        np.testing.assert_allclose(np.diag(s), 1.0, atol=1e-15)

    def test_matrix_is_rank_one(self):
        s = score_matrix_rank_one(np.array([0.5, 0.25, 0.25]))
        singular = np.linalg.svd(s, compute_uv=False)
        assert singular[1] < 1e-10 * singular[0]


class TestNormalizeScores:
    def test_known_inverse(self):
        q = normalize_scores(ScoreColumn(np.array([1.0, 0.5, 0.5]), 0))
        np.testing.assert_allclose(q, [0.5, 0.25, 0.25], atol=1e-15)

    def test_all_ones_gives_uniform(self):
        q = normalize_scores(ScoreColumn(np.ones(6), 2))
        np.testing.assert_allclose(q, 1 / 6, atol=1e-15)

    def test_round_trip_random_columns(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(2, 10))
            j = int(rng.integers(k))
            values = np.exp(rng.standard_normal(k))
            values[j] = 1.0
            col = ScoreColumn(values, j)
            back = exact_score_column(normalize_scores(col), j)
            np.testing.assert_allclose(back.values, col.values, rtol=1e-12)

    def test_anchor_choice_does_not_matter_for_exact_scores(self):
        """Normalizing any anchored column of a known distribution recovers it."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = rng.dirichlet(np.ones(8))
            for j in range(8):
                recovered = normalize_scores(exact_score_column(q, j))
                np.testing.assert_allclose(recovered, q, atol=1e-12)


class TestScoreColumnInvariants:
    def test_anchor_must_be_one(self):
        with pytest.raises(ValidationError):
            ScoreColumn(np.array([1.0, 2.0]), 1)

    def test_entries_must_be_positive(self):
        with pytest.raises(ValidationError):
            ScoreColumn(np.array([1.0, 0.0]), 0)
        with pytest.raises(ValidationError):
            ScoreColumn(np.array([1.0, -0.5]), 0)


class TestScorers:
    def test_exact_scorer_matches_manual_pipeline(self):
        task = MixtureTask.ring(5, 2, separation=2.0)
        schedule = LogLinearSchedule(1.0, 0.5)
        scorer = ExactScorer(lambda y: true_posterior_batch(task, y), 5, schedule)
        y = np.array([0.3, -1.2])
        t = 0.4
        col = score_column(scorer, y, 2, t)
        qt = forward_marginal(true_posterior_batch(task, y[None, :])[0], schedule.sigma_bar(t))
        np.testing.assert_allclose(col.values, qt / qt[2], rtol=1e-12)
        assert col.values[2] == 1.0

    def test_exact_scorer_checks_one_anchor_and_time_per_row(self):
        """The Scorer base class's row check, which MlpScorer shares."""
        scorer = ExactScorer(lambda y: np.full((len(y), 4), 0.25), 4, LogLinearSchedule(1.0, 0.5))
        y = np.ones((5, 2))
        for anchors, t in ((np.zeros(1, dtype=int), np.full(5, 0.5)),   # once broadcast
                           (np.arange(5) % 4, np.full(1, 0.5)),
                           (np.zeros(6, dtype=int), np.full(5, 0.5)),
                           (np.arange(5) % 4, np.full(6, 0.5)),
                           (np.zeros((5, 1), dtype=int), np.full(5, 0.5)),
                           (np.int64(0), np.float64(0.5))):
            with pytest.raises(ValidationError, match="5 rows"):
                scorer.score_batch(y, anchors, t)
        with pytest.raises(ValidationError, match=r"\[0, 4\)"):
            scorer.score_batch(y[:2], np.array([0, 4]), np.full(2, 0.5))
        with pytest.raises(ValidationError, match="integer"):
            scorer.score_batch(y[:2], np.array([0.0, 1.0]), np.full(2, 0.5))
        np.testing.assert_allclose(scorer.score_batch(y, np.arange(5) % 4, np.full(5, 0.5)), 1.0)

    def test_uniform_scorer(self):
        scorer = UniformScorer(4)
        col = score_column(scorer, np.zeros(3), 1, 0.5)
        np.testing.assert_allclose(col.values, 1.0)
