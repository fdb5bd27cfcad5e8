"""Reverse-process estimators: kernel goldens, convergence, consistency, accounting."""

import numpy as np
import pytest

from diffclass.data import CorruptionSpec, MixtureTask, generate, true_posterior_batch
from diffclass.errors import NumericalError, ValidationError
from diffclass.mlp import MlpConfig, MlpScorer
from diffclass.sampler import (SamplerConfig, cl_step_distribution, posterior_cl,
                               posterior_cp, posterior_cp_batch, posterior_full,
                               reverse_step_full, select_label, step_times)
from diffclass.schedule import LogLinearSchedule
from diffclass.score import ExactScorer, ScoreColumn, UniformScorer
from diffclass.transition import forward_marginal


def _exact_setup(k=10, separation=2.0, sched=(1.0, 0.9), seed=0, n=8):
    task = MixtureTask.ring(k, 2, separation=separation)
    schedule = LogLinearSchedule(*sched)
    scorer = ExactScorer(lambda y: true_posterior_batch(task, y), k, schedule)
    y, labels = generate(task, n, CorruptionSpec(), np.random.default_rng(seed))
    return task, schedule, scorer, y, labels


class TestReverseStepFull:
    def test_uniform_scores_low_rate(self):
        """Kernel for all-ones scores at sigma*dt = 0.02: hand-checked product."""
        kernel = np.full((3, 3), 0.02)
        np.fill_diagonal(kernel, 0.96)
        p = np.array([0.8, 0.1, 0.1])
        expected = kernel @ p  # [0.772, 0.114, 0.114]
        out, clamp = reverse_step_full(np.ones((3, 3)), p, sigma_t=0.2, dt=0.1)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(out, [0.772, 0.114, 0.114], atol=1e-12)
        assert clamp == 0.0

    def test_uniform_scores_high_rate(self):
        kernel = np.full((3, 3), 0.25)
        np.fill_diagonal(kernel, 0.5)
        p = np.array([0.8, 0.1, 0.1])
        expected = kernel @ p  # [0.45, 0.275, 0.275]
        out, _ = reverse_step_full(np.ones((3, 3)), p, sigma_t=2.5, dt=0.1)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_allclose(out, [0.45, 0.275, 0.275], atol=1e-12)

    def test_zero_dt_is_identity(self):
        p = np.array([0.6, 0.3, 0.1])
        out, _ = reverse_step_full(np.ones((3, 3)), p, sigma_t=5.0, dt=0.0)
        np.testing.assert_allclose(out, p, atol=1e-15)

    def test_mass_conserved_without_clamping(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rng.dirichlet(np.ones(6) * 5)
            s = np.outer(q, 1.0 / q)
            p = rng.dirichlet(np.ones(6))
            out, clamp = reverse_step_full(s, p, sigma_t=0.3, dt=0.05, max_clamp_mass=None)
            assert abs(out.sum() - 1.0) < 1e-12
            assert out.min() >= 0.0

    def test_clamp_abort_threshold(self):
        """A peaked column with large sigma*dt drives the self-transition negative."""
        q = np.array([0.9, 0.05, 0.05])
        s = np.outer(q, 1.0 / q)
        p = np.full(3, 1 / 3)
        with pytest.raises(NumericalError, match="smaller dt"):
            reverse_step_full(s, p, sigma_t=3.0, dt=0.5)
        out, clamp = reverse_step_full(s, p, sigma_t=3.0, dt=0.5, max_clamp_mass=None)
        assert clamp > 1e-3
        assert abs(out.sum() - 1.0) < 1e-12 and out.min() >= 0.0

    def test_rejects_bad_score_matrix(self):
        p = np.full(3, 1 / 3)
        with pytest.raises(ValidationError):
            reverse_step_full(np.ones((3, 3)) * 2.0, p, 0.1, 0.1)  # diagonal not one
        bad = np.ones((3, 3))
        bad[0, 1] = -1.0
        with pytest.raises(ValidationError):
            reverse_step_full(bad, p, 0.1, 0.1)


class TestSelectLabel:
    def test_argmin_ties_take_lowest_index(self):
        rng = np.random.default_rng(1)
        assert select_label(np.array([0.8, 0.1, 0.1]), "argmin", rng) == 1
        assert select_label(np.array([0.8, 0.1, 0.1]), "argmax", rng) == 0

    def test_sampling_one_hot(self):
        rng = np.random.default_rng(2)
        p = np.zeros(5)
        p[3] = 1.0
        assert all(select_label(p, "sampling", rng) == 3 for _ in range(20))

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError):
            select_label(np.ones(2) / 2, "best", np.random.default_rng(0))


class TestPosteriorCp:
    def test_uniform_scorer_is_fixed_point(self):
        schedule = LogLinearSchedule(1.0, 0.5)
        est = posterior_cp(np.zeros(2), UniformScorer(2), schedule, SamplerConfig(n_steps=16))
        np.testing.assert_allclose(est.probs, 0.5, atol=1e-12)
        assert est.nfe == 16

    def test_single_step_hand_computation(self):
        """One full-strength Euler step from uniform, checked against scalar arithmetic."""
        k = 3
        q0 = np.array([0.7, 0.2, 0.1])
        schedule = LogLinearSchedule(0.4, 0.5)
        scorer = ExactScorer(lambda y: np.tile(q0, (y.shape[0], 1)), k, schedule)
        est = posterior_cp(np.zeros(1), scorer, schedule, SamplerConfig(n_steps=1))
        # hand computation: q_hat at t=1, kernel column arithmetic at sigma(1)*dt
        alpha = np.exp(-k * 0.4)
        q_hat = alpha * q0 + (1 - alpha) / k
        sig = 0.4 * 0.5 * np.log(0.5) / (0.5 - 1.0)
        expected = np.zeros(k)
        for j in range(k):
            col = np.array([sig * q_hat[i] / q_hat[j] for i in range(k)])
            col[j] = 1.0 - sig * (q_hat.sum() / q_hat[j] - 1.0)
            assert col[j] > 0.0  # subcritical by construction
            expected += col / k
        np.testing.assert_allclose(est.probs, expected / expected.sum(), atol=1e-12)

    def test_exact_scorer_recovers_posterior(self):
        task, schedule, scorer, y, _ = _exact_setup(n=40)
        q_true = true_posterior_batch(task, y)
        probs, clamp, _ = posterior_cp_batch(y, scorer, schedule, SamplerConfig(n_steps=256))
        tv = 0.5 * np.abs(probs - q_true).sum(axis=1)
        assert tv.mean() < 1e-2
        assert clamp.mean() < 1e-3

    def test_tv_non_increasing_in_steps(self):
        task, schedule, scorer, y, _ = _exact_setup(n=30)
        q_true = true_posterior_batch(task, y)
        tvs = []
        for steps in (2, 4, 8, 16, 32, 64):
            probs, _, _ = posterior_cp_batch(y, scorer, schedule, SamplerConfig(n_steps=steps))
            tvs.append(0.5 * np.abs(probs - q_true).sum(axis=1).mean())
        assert all(tvs[i + 1] <= tvs[i] + 1e-3 for i in range(len(tvs) - 1))

    def test_strategy_invariance_with_exact_scorer(self):
        _, schedule, scorer, y, _ = _exact_setup(n=4)
        outs = []
        for strategy in ("argmax", "sampling", "argmin"):
            cfg = SamplerConfig(n_steps=32, strategy=strategy, seed=5)
            probs, _, _ = posterior_cp_batch(y, scorer, schedule, cfg)
            outs.append(probs)
        assert np.abs(outs[0] - outs[1]).max() < 1e-10
        assert np.abs(outs[0] - outs[2]).max() < 1e-10

    def test_trajectory_recording(self):
        _, schedule, scorer, y, _ = _exact_setup(n=1)
        cfg = SamplerConfig(n_steps=8, record_trajectory=True)
        est = posterior_cp(y[0], scorer, schedule, cfg)
        assert est.trajectory.shape == (9, 10)
        np.testing.assert_allclose(est.trajectory[0], 0.1, atol=1e-15)
        np.testing.assert_allclose(est.trajectory[-1], est.probs, atol=1e-15)

    def test_step_abort_threshold_respected(self):
        task, schedule, scorer, y, _ = _exact_setup(separation=4.0, n=4)
        cfg = SamplerConfig(n_steps=2, max_step_clamp_mass=1e-3)
        with pytest.raises(NumericalError):
            posterior_cp_batch(y, scorer, schedule, cfg)


class TestClStep:
    def test_uniform_scores_column(self):
        """All-ones scores, K=3, sigma*dt = 0.02: off-anchor 0.02 each, anchor 0.96."""
        probs, overshoot = cl_step_distribution(ScoreColumn(np.ones(3), 1), 0.2, 0.1)
        np.testing.assert_allclose(probs, [0.02, 0.96, 0.02], atol=1e-15)
        assert overshoot == 0.0

    def test_zero_dt_is_one_hot(self):
        probs, _ = cl_step_distribution(ScoreColumn(np.ones(4), 2), 5.0, 0.0)
        np.testing.assert_allclose(probs, [0, 0, 1, 0], atol=1e-15)

    def test_sums_to_one_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            j = int(rng.integers(k))
            values = np.exp(0.3 * rng.standard_normal(k))
            values[j] = 1.0
            probs, _ = cl_step_distribution(ScoreColumn(values, j), rng.random(), 0.05)
            assert abs(probs.sum() - 1.0) < 1e-12 and probs.min() >= 0.0

    def test_negative_self_probability_clamped_and_counted(self):
        values = np.array([4.0, 1.0, 4.0])
        probs, overshoot = cl_step_distribution(ScoreColumn(values, 1), 1.0, 0.15,
                                                max_offdiag_mass=None)
        assert overshoot > 0.0
        assert probs[1] == 0.0
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)

    def test_excess_offdiagonal_mass_aborts(self):
        values = np.array([30.0, 1.0, 30.0])
        with pytest.raises(NumericalError, match="smaller dt"):
            cl_step_distribution(ScoreColumn(values, 1), 1.0, 0.1)


class TestPosteriorCl:
    def test_single_sample_is_one_hot(self):
        _, schedule, scorer, y, _ = _exact_setup(n=1)
        est = posterior_cl(y[0], scorer, schedule, SamplerConfig(n_steps=8, n_samples=1))
        assert np.isclose(est.probs.max(), 1.0)
        assert est.nfe == 8

    def test_uniform_scorer_stays_uniform(self):
        """All-ones scores give an exchangeable chain; terminal draws stay uniform."""
        k, n_samples = 5, 100_000
        schedule = LogLinearSchedule(0.5, 0.5)
        cfg = SamplerConfig(n_steps=4, n_samples=n_samples, seed=11)
        est = posterior_cl(np.zeros(2), UniformScorer(k), schedule, cfg)
        bound = 5.0 * np.sqrt((1 / k) * (1 - 1 / k) / n_samples)
        assert np.abs(est.probs - 1 / k).max() < bound
        assert est.nfe == 4 * n_samples

    def test_matches_cp_at_monte_carlo_rate(self):
        """Label trajectories simulate the probability chain exactly, so the
        terminal average agrees with the full-vector path up to multinomial noise."""
        _, schedule, scorer, y, _ = _exact_setup(n=2)
        n_samples = 20_000
        for i in range(2):
            cp = posterior_cp(y[i], scorer, schedule, SamplerConfig(n_steps=8))
            cl = posterior_cl(y[i], scorer, schedule,
                              SamplerConfig(n_steps=8, n_samples=n_samples, seed=21 + i))
            tv = 0.5 * np.abs(cp.probs - cl.probs).sum()
            noise = 0.5 * np.sqrt(cp.probs * (1 - cp.probs) / n_samples).sum()
            assert tv < 0.02 + 3 * noise

    def test_deterministic_per_seed(self):
        _, schedule, scorer, y, _ = _exact_setup(n=1)
        cfg = SamplerConfig(n_steps=4, n_samples=500, seed=9)
        a = posterior_cl(y[0], scorer, schedule, cfg)
        b = posterior_cl(y[0], scorer, schedule, cfg)
        assert np.array_equal(a.probs, b.probs)


class TestPosteriorFull:
    def test_equals_cp_with_exact_scorer(self):
        """Rank-one consistency: per-column rebuild equals single-call normalization."""
        _, schedule, scorer, y, _ = _exact_setup(n=3)
        for i in range(3):
            cfg = SamplerConfig(n_steps=16, max_step_clamp_mass=None)
            full = posterior_full(y[i], scorer, schedule, cfg)
            cp = posterior_cp(y[i], scorer, schedule, cfg)
            assert np.abs(full.probs - cp.probs).max() < 1e-10

    def test_nfe_accounting(self):
        _, schedule, scorer, y, _ = _exact_setup(k=10, n=1)
        cfg = SamplerConfig(n_steps=4, max_step_clamp_mass=None)
        est = posterior_full(y[0], scorer, schedule, cfg)
        assert est.nfe == 40
        cl = posterior_cl(y[0], scorer, schedule, SamplerConfig(n_steps=2, n_samples=16))
        assert cl.nfe == 32
        cp = posterior_cp(y[0], scorer, schedule, SamplerConfig(n_steps=8))
        assert cp.nfe == 8


class TestTimeGrid:
    def test_uniform_grid_hits_zero_exactly(self):
        schedule = LogLinearSchedule(1.0, 0.5)
        times = step_times(schedule, SamplerConfig(n_steps=7))
        assert times[0][0] == 1.0
        assert times[-1][0] - times[-1][1] == pytest.approx(0.0, abs=1e-15)
        assert all(dt == pytest.approx(1 / 7) for _, dt in times)

    def test_noise_uniform_grid_spans_unit_interval(self):
        schedule = LogLinearSchedule(2.0, 0.1)
        cfg = SamplerConfig(n_steps=8, time_grid="uniform-noise")
        times = step_times(schedule, cfg)
        assert times[0][0] == 1.0
        assert sum(dt for _, dt in times) == pytest.approx(1.0, abs=1e-12)
        # equal noise increments per step
        increments = [schedule.sigma_bar(t) - schedule.sigma_bar(max(t - dt, 0.0))
                      for t, dt in times]
        np.testing.assert_allclose(increments, 0.25, atol=1e-9)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SamplerConfig(n_steps=0)
        with pytest.raises(ValidationError):
            SamplerConfig(strategy="greedy")
        with pytest.raises(ValidationError):
            SamplerConfig(n_samples=0)


class TestPreparedFeatures:
    @pytest.mark.parametrize("method", ["cp", "cl", "full"])
    def test_each_estimator_prepares_once_per_call(self, method, monkeypatch):
        cfg = MlpConfig(n_classes=4, feature_dim=2, embed_dim=8, hidden_dim=16,
                        n_blocks=2, time_embed_dim=8, groups=4)
        schedule = LogLinearSchedule(0.6, 0.7)
        scorer = MlpScorer(cfg, schedule, seed=0)
        scorer.params["out_w"] = 0.3 * np.random.default_rng(1).standard_normal((4, 16))
        prepared, scored = [], []
        prepare, score_batch = scorer.prepare, scorer.score_batch
        monkeypatch.setattr(scorer, "prepare", lambda f: prepared.append(len(f)) or prepare(f))
        monkeypatch.setattr(scorer, "score_batch",
                            lambda f, a, t: scored.append(len(a)) or score_batch(f, a, t))
        sampler_cfg = SamplerConfig(n_steps=5, n_samples=6, seed=2)
        y = np.random.default_rng(3).standard_normal((7, 2))
        if method == "cp":
            probs, _, _ = posterior_cp_batch(y, scorer, schedule, sampler_cfg)
            rows, nfe = 7, 5
        else:
            runner = posterior_cl if method == "cl" else posterior_full
            est = runner(y[0], scorer, schedule, sampler_cfg)
            probs, rows, nfe = est.probs, (6 if method == "cl" else 4), est.nfe
            assert nfe == (30 if method == "cl" else 20)
        assert prepared == [rows]
        assert scored == [rows] * 5 and sum(scored) == (nfe * 7 if method == "cp" else nfe)
        np.testing.assert_allclose(np.sum(probs, axis=-1), 1.0, atol=1e-12)
