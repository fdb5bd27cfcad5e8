"""Ratio-matching objective: optimum, gradient, convexity, and the logit chain rule."""

import math

import numpy as np
import pytest

from diffclass.errors import ValidationError
from diffclass.loss import loss_grad_wrt_logits, score_entropy_terms
from oracles import ScoreColumn, score_entropy_grad, score_entropy_loss


def _random_column(rng, k, j, scale=1.0):
    values = np.exp(scale * rng.standard_normal(k))
    values[j] = 1.0
    return ScoreColumn(values, j)


class TestLossValue:
    def test_zero_at_matching_columns(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            j = int(rng.integers(k))
            col = _random_column(rng, k, j)
            out = score_entropy_loss(col, col, sigma_t=rng.random() * 3)
            assert out.total <= 1e-12
            assert np.all(out.per_class >= 0.0)

    def test_two_class_hand_value(self):
        s_true = ScoreColumn(np.array([1.0, 0.5]), 0)
        s_pred = ScoreColumn(np.array([1.0, 1.0]), 0)
        out = score_entropy_loss(s_true, s_pred, sigma_t=1.0)
        expected = 0.5 * (1.0 - 0.5 * math.log(1.0) + 0.5 * (math.log(0.5) - 1.0))
        assert out.total == pytest.approx(expected, rel=1e-12)
        assert out.total == pytest.approx(0.07671, abs=5e-6)

    def test_anchor_entries_contribute_zero(self):
        rng = np.random.default_rng(1)
        s_true = _random_column(rng, 5, 3)
        s_pred = _random_column(rng, 5, 3)
        out = score_entropy_loss(s_true, s_pred, sigma_t=2.0)
        assert out.per_class[3] == 0.0

    def test_total_consistent_with_per_class(self):
        rng = np.random.default_rng(2)
        s_true = _random_column(rng, 6, 1)
        s_pred = _random_column(rng, 6, 1)
        out = score_entropy_loss(s_true, s_pred, sigma_t=1.7)
        assert out.total == pytest.approx(1.7 / 6 * out.per_class.sum(), abs=1e-12)

    def test_anchor_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError):
            score_entropy_loss(_random_column(rng, 4, 0), _random_column(rng, 4, 1), 1.0)

    def test_nonnegative_on_random_pairs(self):
        """Bregman-type structure: strictly positive away from the optimum."""
        rng = np.random.default_rng(4)
        s = np.exp(rng.standard_normal((10_000, 6)))
        s_hat = s * np.exp(0.1 + 0.5 * np.abs(rng.standard_normal((10_000, 6))))
        per, _ = score_entropy_terms(s, s_hat)
        totals = per.sum(axis=1)
        assert totals.min() > 0.0

    def test_coordinatewise_convexity_midpoint(self):
        rng = np.random.default_rng(5)
        s = np.exp(rng.standard_normal(1000))
        a = np.exp(rng.standard_normal(1000))
        b = np.exp(rng.standard_normal(1000))
        fa, _ = score_entropy_terms(s, a)
        fb, _ = score_entropy_terms(s, b)
        fm, _ = score_entropy_terms(s, 0.5 * (a + b))
        assert np.all(fm <= 0.5 * (fa + fb) + 1e-12)


class TestGradient:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(6)
        col = _random_column(rng, 7, 2)
        np.testing.assert_allclose(score_entropy_grad(col, col, 1.3), 0.0, atol=1e-15)

    def test_two_class_hand_value(self):
        s_true = ScoreColumn(np.array([1.0, 0.5]), 0)
        s_pred = ScoreColumn(np.array([1.0, 1.0]), 0)
        grad = score_entropy_grad(s_true, s_pred, 1.0)
        np.testing.assert_allclose(grad, [0.0, 0.25], atol=1e-15)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            j = int(rng.integers(k))
            s_true = _random_column(rng, k, j)
            s_pred = _random_column(rng, k, j)
            sigma_t = 0.1 + rng.random()
            grad = score_entropy_grad(s_true, s_pred, sigma_t)
            i = int(rng.integers(k))
            if i == j:
                continue
            vp, vm = s_pred.values.copy(), s_pred.values.copy()
            vp[i] += h
            vm[i] -= h
            fd = (score_entropy_loss(s_true, ScoreColumn(vp, j), sigma_t).total
                  - score_entropy_loss(s_true, ScoreColumn(vm, j), sigma_t).total) / (2 * h)
            denom = max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, abs(fd - grad[i]) / denom)
        assert worst < 1e-4


class TestLogitChainRule:
    def test_matches_finite_differences_through_anchored_exponential(self):
        """Gradient w.r.t. logits includes the exp(z_i - z_j) Jacobian."""
        rng = np.random.default_rng(8)
        k, n = 6, 16
        h = 1e-6
        z = rng.standard_normal((n, k))
        anchors = rng.integers(0, k, n)
        s_true = np.exp(rng.standard_normal((n, k)))
        s_true[np.arange(n), anchors] = 1.0
        sigma_t = 0.2 + rng.random(n)

        def total_loss(zz):
            sp = np.exp(zz - zz[np.arange(n), anchors][:, None])
            per, _ = score_entropy_terms(s_true, sp)
            return float((sigma_t / k * per.sum(axis=1)).sum())

        s_pred = np.exp(z - z[np.arange(n), anchors][:, None])
        grad = loss_grad_wrt_logits(s_true, s_pred, anchors, sigma_t, k)
        worst = 0.0
        for _ in range(60):
            r, c = int(rng.integers(n)), int(rng.integers(k))
            zp, zm = z.copy(), z.copy()
            zp[r, c] += h
            zm[r, c] -= h
            fd = (total_loss(zp) - total_loss(zm)) / (2 * h)
            denom = max(abs(fd), abs(grad[r, c]), 1e-8)
            worst = max(worst, abs(fd - grad[r, c]) / denom)
        assert worst < 1e-4

    def test_rows_sum_to_zero(self):
        """Logit-shift invariance of the anchored head forces zero-sum gradients."""
        rng = np.random.default_rng(9)
        k, n = 5, 32
        anchors = rng.integers(0, k, n)
        s_true = np.exp(rng.standard_normal((n, k)))
        s_pred = np.exp(rng.standard_normal((n, k)))
        rows = np.arange(n)
        s_true[rows, anchors] = 1.0
        s_pred[rows, anchors] = 1.0
        grad = loss_grad_wrt_logits(s_true, s_pred, anchors, np.ones(n), k)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)
