"""Forward dynamics: generator application, closed-form marginal, series oracle."""

import numpy as np
import pytest

from diffclass.errors import NumericalError, ValidationError
from diffclass.transition import ensure_distribution, forward_marginal, sample_categorical_rows
from oracles import apply_rate, matrix_exponential_oracle


class TestApplyRate:
    def test_worked_example_low_rate(self):
        out = apply_rate(0.2, np.array([0.8, 0.1, 0.1]))
        np.testing.assert_allclose(out, [-0.28, 0.14, 0.14], atol=1e-15)

    def test_worked_example_high_rate(self):
        out = apply_rate(2.5, np.array([0.8, 0.1, 0.1]))
        np.testing.assert_allclose(out, [-3.5, 1.75, 1.75], atol=1e-14)

    def test_uniform_is_stationary(self):
        for k in (2, 5, 17):
            out = apply_rate(1.3, np.full(k, 1.0 / k))
            np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_output_sums_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = rng.dirichlet(np.ones(rng.integers(2, 12)))
            assert abs(apply_rate(rng.random() * 5, q).sum()) < 1e-12

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            apply_rate(-0.1, np.array([0.5, 0.5]))


class TestForwardMarginal:
    def test_zero_noise_is_identity(self):
        q0 = np.array([0.3, 0.5, 0.2])
        np.testing.assert_allclose(forward_marginal(q0, 0.0), q0, atol=1e-15)

    def test_large_noise_reaches_uniform(self):
        out = forward_marginal(np.array([1.0, 0.0, 0.0, 0.0]), 50.0)
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_half_decay_point(self):
        # total noise chosen so the non-uniform component halves
        out = forward_marginal(np.array([1.0, 0.0, 0.0]), np.log(2.0) / 3.0)
        np.testing.assert_allclose(out, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)

    def test_agrees_with_series_oracle(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for k in (2, 3, 5, 16):
            for sbar in (0.0, 0.1, 1.0, 5.0, 20.0):
                kernel = matrix_exponential_oracle(k, sbar)
                q0 = rng.dirichlet(np.ones(k), size=20)
                expected = q0 @ kernel.T
                got = forward_marginal(q0, sbar)
                worst = max(worst, np.abs(got - expected).max())
        assert worst < 1e-9

    def test_total_noise_additivity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = rng.dirichlet(np.ones(6))
            a, b = rng.random() * 2, rng.random() * 2
            direct = forward_marginal(q, a + b)
            chained = forward_marginal(forward_marginal(q, a), b)
            np.testing.assert_allclose(chained, direct, atol=1e-10)

    def test_euler_stepping_first_order(self):
        """Explicit Euler at constant rate converges at order one: halving the
        step at least halves the worst-case error."""
        k, sigma = 3, 1.0
        q0 = np.array([0.7, 0.2, 0.1])
        exact = forward_marginal(q0, sigma)  # constant sigma over unit time
        errors = []
        for log2_inv_dt in range(4, 11):
            n = 2 ** log2_inv_dt
            q = q0.copy()
            for _ in range(n):
                q = q + (1.0 / n) * apply_rate(sigma, q)
            errors.append(np.abs(q - exact).max())
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        assert all(r >= 2.0 - 0.2 for r in ratios)


class TestMatrixExponentialOracle:
    def test_zero_noise_is_identity(self):
        np.testing.assert_allclose(matrix_exponential_oracle(4, 0.0), np.eye(4), atol=1e-15)

    def test_columns_sum_to_one_entries_nonnegative(self):
        kernel = matrix_exponential_oracle(5, 0.7)
        np.testing.assert_allclose(kernel.sum(axis=0), 1.0, atol=1e-12)
        assert kernel.min() >= 0.0

    def test_k_cap_guards_production_use(self):
        with pytest.raises(ValidationError):
            matrix_exponential_oracle(65, 1.0)


class TestSampling:
    def test_one_hot_always_returns_that_label(self):
        rng = np.random.default_rng(3)
        q = np.zeros(6)
        q[4] = 1.0
        assert all(sample_categorical_rows(q[None, :], rng.random(1))[0] == 4 for _ in range(50))
        assert sample_categorical_rows(q[None, :], np.array([0.0]))[0] == 4
        assert sample_categorical_rows(q[None, :], np.array([1.0 - 2**-53]))[0] == 4

    def test_uniform_frequencies_within_binomial_bound(self):
        k, n = 5, 1_000_000
        rng = np.random.default_rng(4)
        draws = sample_categorical_rows(np.full((n, k), 1.0 / k), rng.random(n))
        freqs = np.bincount(draws, minlength=k) / n
        bound = 5.0 * np.sqrt((1 / k) * (1 - 1 / k) / n)
        assert np.abs(freqs - 1 / k).max() < bound

    def test_fixed_seed_reproduces_sequence(self):
        q = np.array([0.2, 0.5, 0.3])
        run1 = np.random.default_rng(7)
        run2 = np.random.default_rng(7)
        assert [sample_categorical_rows(q[None, :], run1.random(1))[0] for _ in range(100)] == \
               [sample_categorical_rows(q[None, :], run2.random(1))[0] for _ in range(100)]
        # one uniform per row: the index whose cumulative mass first exceeds it
        u = np.array([0.0, 0.19, 0.21, 0.69, 0.71, 0.999])
        draws = sample_categorical_rows(np.tile(q, (6, 1)), u)
        assert draws.tolist() == [0, 0, 1, 1, 2, 2]


class TestDistributionHygiene:
    def test_moderate_drift_renormalized(self):
        q = np.array([0.5, 0.5 + 3e-10])
        out = ensure_distribution(q)
        assert abs(out.sum() - 1.0) <= 1e-15

    def test_sub_tolerance_drift_passes_through(self):
        q = np.array([0.5, 0.5 + 3e-13])
        assert abs(ensure_distribution(q).sum() - 1.0) <= 1e-12

    def test_large_drift_raises(self):
        with pytest.raises(NumericalError):
            ensure_distribution(np.array([0.5, 0.6]))

    def test_large_negative_raises(self):
        with pytest.raises(NumericalError):
            ensure_distribution(np.array([1.1, -0.1]))
