"""Reverse-process estimators: kernel goldens, convergence, consistency, accounting."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffclass import sampler

from diffclass.data import CorruptionSpec, MixtureTask, generate, true_posterior_batch
from diffclass.errors import NumericalError, ValidationError
from diffclass.mlp import MlpConfig, MlpScorer
from diffclass.sampler import (STRATEGIES, SamplerConfig, _cl_step_batch,
                               _cp_step_batch, _select_labels_batch, posterior_cl, posterior_cp,
                               posterior_cp_batch, posterior_full, reverse_step_full, step_times)
from diffclass.schedule import LogLinearSchedule
from diffclass.score import PROB_FLOOR, floor_probs
from diffclass.train import TrainConfig, fit
from diffclass.transition import forward_marginal
from oracles import ExactScorer, UniformScorer


def _exact_setup(k=10, separation=2.0, sched=(1.0, 0.9), seed=0, n=8):
    task = MixtureTask.ring(k, 2, separation=separation)
    schedule = LogLinearSchedule(*sched)
    scorer = ExactScorer(lambda y: true_posterior_batch(task, y), k, schedule)
    y, labels = generate(task, n, CorruptionSpec(), np.random.default_rng(seed))
    return task, schedule, scorer, y, labels


def _below_floor_setup(k=10, n=4):
    """An exact scorer of a gentler schedule than the sampler's: its columns at a
    coarse step sit below the sampler's uniform floor c, so the step clips them."""
    task, schedule, _, y, _ = _exact_setup(k=k, separation=4.0, n=n)
    scorer = ExactScorer(lambda f: true_posterior_batch(task, f), k, LogLinearSchedule(0.1, 0.9))
    return schedule, scorer, y


class TestReverseStepFull:
    def test_e_one_is_identity(self):
        """A step that keeps all of the signal (e = 1) denoises nothing and moves
        no mass."""
        rng = np.random.default_rng(1)
        q = rng.dirichlet(np.ones(4), size=3)
        s = q[:, :, None] / q[:, None, :]
        p = rng.dirichlet(np.ones(4), size=3)
        out, clamp = reverse_step_full(s, p, 1.0)
        np.testing.assert_allclose(out, p, atol=1e-15)
        assert clamp.tolist() == [0.0] * 3

    def test_mass_conserved_without_clamping(self):
        """Scores of a forward marginal over the step, q = e q0 + c, clip nothing."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = 0.9 * rng.dirichlet(np.ones(6) * 5) + 0.1 / 6
            s = np.outer(q, 1.0 / q)
            p = rng.dirichlet(np.ones(6))
            out, clamp = reverse_step_full(s[None], p[None], 0.9)
            assert abs(out.sum() - 1.0) < 1e-12
            assert out.min() >= 0.0 and clamp.tolist() == [0.0]

    def test_clipped_rows_report_their_mass(self):
        """A peaked column sits below the uniform floor c = (1 - e) / K of a step
        keeping e = 0.5: the kernel clips it, reports the mass, here above 1e-3,
        and still returns a distribution; each row steps as it does alone."""
        q = np.array([0.9, 0.05, 0.05])
        s = np.outer(q, 1.0 / q)[None]
        p = np.full((1, 3), 1 / 3)
        out, clamp = reverse_step_full(s, p, 0.5)
        assert clamp[0] > 1e-3
        assert abs(out.sum() - 1.0) < 1e-12 and out.min() >= 0.0
        rows, clamp_rows = reverse_step_full(np.concatenate([s, s]), np.concatenate([p, p]), 0.5)
        assert np.array_equal(rows, np.concatenate([out, out]))
        assert clamp_rows.tolist() == [clamp[0]] * 2

    @pytest.mark.parametrize("k", [2, 3, 8, 16])
    @pytest.mark.parametrize("e", [1e-8, 0.01, 0.5, 1.0])
    def test_rank_one_matrices_take_cp_step(self, k, e):
        """On rank-one matrices s[:, i, j] = q_i / q_j every anchor reads q, so the
        full step is cp's rank-one step, rows and clipped mass."""
        rng = np.random.default_rng([k, int(e * 1e8)])
        q = rng.dirichlet(np.ones(k), size=32)
        p = rng.dirichlet(np.ones(k), size=32)
        out, clamp = reverse_step_full(q[:, :, None] / q[:, None, :], p, e)
        ref, ref_clamp = _cp_step_batch(floor_probs(q), p, e)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(clamp, ref_clamp, rtol=0, atol=1e-12)

    def test_rejects_bad_input(self):
        p = np.full((1, 3), 1 / 3)
        with pytest.raises(ValidationError):
            reverse_step_full(np.ones((1, 3, 3)) * 2.0, p, 0.5)  # diagonal not one
        bad = np.ones((1, 3, 3))
        bad[0, 0, 1] = -1.0
        with pytest.raises(ValidationError):
            reverse_step_full(bad, p, 0.5)
        with pytest.raises(ValidationError):
            reverse_step_full(np.ones((2, 3, 3)), p, 0.5)  # one matrix per row
        with pytest.raises(ValidationError, match="rows"):
            reverse_step_full(np.ones((3, 3)), p[0], 0.5)  # a lone vector is not rows
        # e is a kept share in [MIN_KEPT_SHARE, 1]
        for e in (1.5, 0.0, -0.2, float("nan"), float("inf"), 0.1 * sampler.MIN_KEPT_SHARE):
            with pytest.raises(ValidationError):
                reverse_step_full(np.ones((1, 3, 3)), p, e)


class TestSelectLabel:
    def test_argmin_ties_take_lowest_index(self):
        p = np.array([[0.8, 0.1, 0.1]])
        assert _select_labels_batch(p, "argmin").tolist() == [1]
        assert _select_labels_batch(p, "argmax").tolist() == [0]

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError):
            SamplerConfig(strategy="best")
        with pytest.raises(ValidationError):   # deleted: its anchors were random draws
            SamplerConfig(strategy="sampling")


class TestPosteriorCp:
    def test_uniform_scorer_is_fixed_point(self):
        schedule = LogLinearSchedule(1.0, 0.5)
        est = posterior_cp(np.zeros(2), UniformScorer(2), schedule, SamplerConfig(n_steps=16))
        np.testing.assert_allclose(est.probs, 0.5, atol=1e-12)
        assert est.nfe == 16

    def test_single_step_hand_computation(self):
        """One step from uniform over the whole schedule, checked against scalar
        arithmetic: the step keeps e = exp(-K sigma_bar(1)) and denoises q_hat back
        to q0, and label j at t=1 (probability 1/K) moves to i with probability
        q0(i) (e [i = j] + c) / q_hat(j)."""
        k = 3
        q0 = np.array([0.7, 0.2, 0.1])
        schedule = LogLinearSchedule(0.4, 0.5)
        scorer = ExactScorer(lambda y: np.tile(q0, (y.shape[0], 1)), k, schedule)
        est = posterior_cp(np.zeros(1), scorer, schedule, SamplerConfig(n_steps=1))
        e = np.exp(-k * 0.4)
        c = (1 - e) / k
        q_hat = e * q0 + c
        expected = np.zeros(k)
        for j in range(k):
            col = np.array([q0[i] * (e * (i == j) + c) / q_hat[j] for i in range(k)])
            assert col.sum() == pytest.approx(1.0, abs=1e-15)  # a distribution by Bayes
            expected += col / k
        np.testing.assert_allclose(est.probs, expected / expected.sum(), atol=1e-12)

    def test_exact_scorer_recovers_posterior(self):
        task, schedule, scorer, y, _ = _exact_setup(n=40)
        q_true = true_posterior_batch(task, y)
        probs, clamp = posterior_cp_batch(y, scorer, schedule, SamplerConfig(n_steps=256))
        tv = 0.5 * np.abs(probs - q_true).sum(axis=1)
        assert tv.mean() < 1e-2
        assert clamp.mean() < 1e-3

    def test_tv_non_increasing_in_steps(self):
        task, schedule, scorer, y, _ = _exact_setup(n=30)
        q_true = true_posterior_batch(task, y)
        tvs = []
        for steps in (2, 4, 8, 16, 32, 64):
            probs, _ = posterior_cp_batch(y, scorer, schedule, SamplerConfig(n_steps=steps))
            tvs.append(0.5 * np.abs(probs - q_true).sum(axis=1).mean())
        assert all(tvs[i + 1] <= tvs[i] + 1e-3 for i in range(len(tvs) - 1))

    def test_strategy_invariance_with_exact_scorer(self):
        _, schedule, scorer, y, _ = _exact_setup(n=4)
        assert STRATEGIES == ("argmax", "argmin")
        outs = []
        for strategy in STRATEGIES:
            cfg = SamplerConfig(n_steps=32, strategy=strategy)
            probs, _ = posterior_cp_batch(y, scorer, schedule, cfg)
            outs.append(probs)
        assert np.abs(outs[0] - outs[1]).max() < 1e-10

    def test_trajectory_recording(self):
        _, schedule, scorer, y, _ = _exact_setup(n=1)
        cfg = SamplerConfig(n_steps=8, record_trajectory=True)
        est = posterior_cp(y[0], scorer, schedule, cfg)
        assert est.trajectory.shape == (9, 10)
        np.testing.assert_allclose(est.trajectory[0], 0.1, atol=1e-15)
        np.testing.assert_allclose(est.trajectory[-1], est.probs, atol=1e-15)


class TestCpDrawsNothing:
    """cp's anchors are a fixed rule of its state, so it draws no random number and
    its posteriors do not depend on how the engine blocks the inputs."""

    @pytest.fixture(scope="class")
    def trained(self):
        task = MixtureTask.ring(8, 2, separation=3.0)
        config = TrainConfig(epochs=1, batch_size=128, seed=0, embed_dim=16, hidden_dim=32,
                             n_blocks=2, time_embed_dim=16)
        scorer, _ = fit(config, task, generate(task, 4000, CorruptionSpec(),
                                               np.random.default_rng(0)))
        y, _ = generate(task, 7000, CorruptionSpec(), np.random.default_rng(1))
        return scorer, y

    @pytest.mark.parametrize("strategy", ["argmin", "argmax"])
    def test_learned_scorer_posteriors_do_not_depend_on_the_blocking(
            self, trained, strategy, monkeypatch):
        """7,000 inputs as two blocks, whose scorer calls run 1,166- and 1,167-row
        tiles, and as one block of 1,000-row tiles: the same posteriors, bit for bit."""
        scorer, y = trained
        cfg = SamplerConfig(n_steps=4, strategy=strategy)
        probs = []
        for rows in (4096, 8192):
            monkeypatch.setattr(sampler, "SCORER_ROWS", rows)
            probs.append(posterior_cp_batch(y, scorer, scorer.schedule, cfg)[0])
        assert np.array_equal(probs[0], probs[1])

    @pytest.mark.parametrize("strategy", ["argmin", "argmax"])
    def test_a_posterior_builds_no_generator(self, trained, strategy, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("cp built a random generator")

        scorer, y = trained
        monkeypatch.setattr(sampler.np.random, "default_rng", no_generator)
        est = posterior_cp(y[:50], scorer, scorer.schedule,
                           SamplerConfig(n_steps=4, strategy=strategy))
        np.testing.assert_allclose(est.probs.sum(axis=1), 1.0, atol=1e-12)


class TestClStep:
    def test_uniform_scores_column(self):
        """All-ones scores, K=3, over a step keeping e = 0.94: off-anchor
        c = (1 - e) / 3 = 0.02 each, anchor e + c = 0.96."""
        probs, overshoot = _cl_step_batch(np.ones((1, 3)), np.array([1]), e=0.94)
        np.testing.assert_allclose(probs, [[0.02, 0.96, 0.02]], atol=1e-15)
        assert overshoot.tolist() == [0.0]

    def test_zero_dt_is_one_hot(self):
        """A step of zero length keeps e = 1: every trajectory stays at its label."""
        probs, _ = _cl_step_batch(np.ones((1, 4)), np.array([2]), e=1.0)
        np.testing.assert_allclose(probs, [[0, 0, 1, 0]], atol=1e-15)

    def test_sums_to_one_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            j = int(rng.integers(k))
            values = np.exp(0.3 * rng.standard_normal(k))
            values[j] = 1.0
            probs, _ = _cl_step_batch(values[None, :], np.array([j]), e=rng.random())
            assert abs(probs.sum() - 1.0) < 1e-12 and probs.min() >= 0.0

    def test_negative_self_probability_clamped_and_counted(self):
        """Scores (4, 1, 4) from label 1 normalize to (4, 1, 4) / 9; over a step keeping
        e = 0.5 the floor is c = 1/6, so the label's denoised entry 1/9 - c is
        negative: clipped to PROB_FLOOR, its 1/18 counted against the 10/18 kept,
        and the label keeps (c + e) PROB_FLOOR / (c + (c + e) PROB_FLOOR)."""
        values = np.array([[4.0, 1.0, 4.0]])
        probs, overshoot = _cl_step_batch(values, np.array([1]), e=0.5)
        assert overshoot[0] == pytest.approx(0.1, rel=1e-12)
        assert probs[0, 1] == pytest.approx(4 * PROB_FLOOR, rel=1e-9)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)


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
            cfg = SamplerConfig(n_steps=16)
            full = posterior_full(y[i], scorer, schedule, cfg)
            cp = posterior_cp(y[i], scorer, schedule, cfg)
            assert np.abs(full.probs - cp.probs).max() < 1e-10

    def test_nfe_accounting(self):
        _, schedule, scorer, y, _ = _exact_setup(k=10, n=1)
        cfg = SamplerConfig(n_steps=4)
        est = posterior_full(y[0], scorer, schedule, cfg)
        assert est.nfe == 40
        cl = posterior_cl(y[0], scorer, schedule, SamplerConfig(n_steps=2, n_samples=16))
        assert cl.nfe == 32
        cp = posterior_cp(y[0], scorer, schedule, SamplerConfig(n_steps=8))
        assert cp.nfe == 8


class TestExactStep:
    def test_cp_and_full_return_the_exact_posterior(self):
        """With an exact scorer the step needs no small steps: cp and full are within
        1e-8 of the true posterior at 1, 2, 4 and 8 steps, and within 1e-10 of
        each other; they clip nothing."""
        task, schedule, scorer, y, _ = _exact_setup(n=40)
        q_true = true_posterior_batch(task, y)
        for n_steps in (1, 2, 4, 8):
            cfg = SamplerConfig(n_steps=n_steps)
            cp = posterior_cp(y, scorer, schedule, cfg)
            full = posterior_full(y, scorer, schedule, cfg)
            assert np.abs(cp.probs - q_true).max() < 1e-8, n_steps
            assert np.abs(full.probs - q_true).max() < 1e-8, n_steps
            assert np.abs(full.probs - cp.probs).max() <= 1e-10, n_steps
            assert cp.n_clamped == full.n_clamped == 0 and cp.clamp_mass == 0.0, n_steps

    def test_cl_converges_at_the_monte_carlo_rate(self):
        """cl's terminal labels are draws from the exact posterior: TV within three
        times the multinomial scale at 4,000 samples, with no discretization slack
        and nothing clipped."""
        task, schedule, scorer, y, _ = _exact_setup(n=3)
        q_true = true_posterior_batch(task, y)
        n_samples = 4000
        est = posterior_cl(y, scorer, schedule, SamplerConfig(
            n_steps=4, n_samples=n_samples, seed=3))
        tv = 0.5 * np.abs(est.probs - q_true).sum(axis=1)
        scale = 0.5 * np.sqrt(q_true * (1 - q_true) / n_samples).sum(axis=1)
        assert np.all(tv < 3 * scale) and est.n_clamped == 0

    def test_a_column_below_the_uniform_floor_is_clipped_and_counted(self):
        """Over a step keeping e = 0.5, the floor is c = (1 - e) / K = 1/6: the entry
        0.05 denoises to 0.05 - c < 0, so the kernel clips it, counts its
        c - 0.05 against the (0.45 - c) + (0.5 - c) kept, and leaves that label a
        positive probability of the floor's order."""
        p_next, clip = _cp_step_batch(np.array([[0.05, 0.45, 0.5]]), np.full((1, 3), 1 / 3),
                                      e=0.5)
        assert clip[0] == pytest.approx((1 / 6 - 0.05) / (0.95 - 2 / 6), rel=1e-12)
        assert 0.0 < p_next[0, 0] < 1e3 * PROB_FLOOR
        assert p_next.sum() == pytest.approx(1.0, abs=1e-15)
        _, clip_cl = _cl_step_batch(np.array([[0.05, 0.45, 0.5]]) / 0.45, np.array([1]), e=0.5)
        assert clip_cl[0] == pytest.approx(clip[0], rel=1e-12)

    @pytest.mark.parametrize("sigma_bar_max", [3.0, 23.0, 400.0])
    def test_a_step_past_float_precision_raises(self, sigma_bar_max):
        """One step of a 10-class exact scorer over a noise of 3 keeps
        e = exp(-30) = 9.4e-14 of the signal, where roundoff swamps the denoised
        column: let through, the posterior reads 6.1e-4 off in mean TV, with
        nothing clipped.  Over 23 the floor c = (1 - e) / K rounds e away, and
        over 400 e underflows to 0.  Each raises before any scorer call, naming
        t and e."""
        _, schedule, scorer, y, _ = _exact_setup(n=200, sched=(sigma_bar_max, 0.9))
        with mock.patch.object(scorer, "score_batch", side_effect=AssertionError("scored")), \
                pytest.raises(ValidationError, match=r"t=1 keeps e=.*use more steps"):
            posterior_cp(y, scorer, schedule, SamplerConfig(n_steps=1))


class TestTimeGrid:
    def test_uniform_grid_hits_zero_exactly(self):
        times = step_times(7)
        assert times[0][0] == 1.0
        assert times[-1][0] - times[-1][1] == pytest.approx(0.0, abs=1e-15)
        assert all(dt == pytest.approx(1 / 7) for _, dt in times)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SamplerConfig(n_steps=0)
        with pytest.raises(ValidationError):
            SamplerConfig(strategy="greedy")
        with pytest.raises(ValidationError):
            SamplerConfig(n_samples=0)


class TestZeroInputs:
    @pytest.mark.parametrize("estimator", [posterior_cp, posterior_cl, posterior_full])
    def test_zero_input_rows_raise_validation_error(self, estimator):
        _, schedule, scorer, _, _ = _exact_setup(k=4)
        with pytest.raises(ValidationError, match=r"\(0, 2\)"):
            estimator(np.zeros((0, 2)), scorer, schedule, SamplerConfig(n_steps=2))


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
            probs, _ = posterior_cp_batch(y, scorer, schedule, sampler_cfg)
            rows, nfe = 7, 5
        else:
            runner = posterior_cl if method == "cl" else posterior_full
            est = runner(y[0], scorer, schedule, sampler_cfg)
            probs, rows, nfe = est.probs, (6 if method == "cl" else 4), est.nfe
            assert nfe == (30 if method == "cl" else 20)
        assert prepared == [rows]
        assert scored == [rows] * 5 and sum(scored) == (nfe * 7 if method == "cp" else nfe)
        np.testing.assert_allclose(np.sum(probs, axis=-1), 1.0, atol=1e-12)

    def test_blocks_prepare_once_and_score_once_per_step(self, monkeypatch):
        """Inputs go in the fewest near-equal blocks of at most SCORER_ROWS // r: one
        prepare per block and one score_batch per step per block.
        (TestSamplerProperties checks that the blocking leaves the outputs
        unchanged.)"""
        cfg = MlpConfig(n_classes=4, feature_dim=2, embed_dim=8, hidden_dim=16,
                        n_blocks=2, time_embed_dim=8, groups=4)
        schedule = LogLinearSchedule(0.6, 0.7)
        scorer = MlpScorer(cfg, schedule, seed=0)
        y = np.random.default_rng(3).standard_normal((7, 2))
        sampler_cfg = SamplerConfig(n_steps=5, n_samples=3, seed=2)
        prepared, scored = [], []
        prepare, score_batch = scorer.prepare, scorer.score_batch
        monkeypatch.setattr(scorer, "prepare", lambda f: prepared.append(len(f)) or prepare(f))
        monkeypatch.setattr(scorer, "score_batch",
                            lambda f, a, t: scored.append(len(a)) or score_batch(f, a, t))
        monkeypatch.setattr(sampler, "SCORER_ROWS", 10)
        # r = 1, 3 and 4 rows per input: blocks of at most 10, 3 and 2 inputs
        for method, blocks in (("cp", [7]), ("cl", [2, 2, 3]), ("full", [1, 2, 2, 2])):
            prepared.clear()
            scored.clear()
            est = sampler.METHOD_SAMPLERS[method](y, scorer, schedule, sampler_cfg)
            r = {"cp": 1, "cl": 3, "full": 4}[method]
            assert prepared == [b * r for b in blocks], method
            assert scored == [b * r for b in blocks for _ in range(5)], method
            assert est.probs.shape == (7, 4) and est.nfe == 5 * r


class TestClampAccounting:
    def test_every_estimator_counts_clamped_row_steps(self):
        schedule, scorer, y = _below_floor_setup()
        cfg = SamplerConfig(n_steps=2, n_samples=8, seed=3)
        est = {m: sampler.METHOD_SAMPLERS[m](y, scorer, schedule, cfg)
               for m in ("cp", "cl", "full")}
        for method, rows in (("cp", 4), ("cl", 4 * 8), ("full", 4)):
            assert 0 < est[method].n_clamped <= rows * 2, method
            assert est[method].clamp_mass > 0.0, method
        # every anchor of this scorer gives one distribution, so cp and full clip
        # the same (row, step) pairs
        assert est["cp"].n_clamped == est["full"].n_clamped
        assert est["cp"].clamp_mass == pytest.approx(est["full"].clamp_mass, rel=1e-10)
        # clamp_mass is the per-input sum over steps, averaged over the inputs
        _, clamp_rows = posterior_cp_batch(y, scorer, schedule, cfg)
        assert est["cp"].clamp_mass == pytest.approx(clamp_rows.mean(), rel=1e-14)
        # and n_clamped adds up over inputs run one at a time
        for method in ("cp", "full"):
            singles = [sampler.METHOD_SAMPLERS[method](y[i], scorer, schedule, cfg)
                       for i in range(4)]
            assert sum(e.n_clamped for e in singles) == est[method].n_clamped, method
            assert np.mean([e.clamp_mass for e in singles]) == pytest.approx(
                est[method].clamp_mass, rel=1e-12)


@st.composite
def _sampler_case(draw):
    k = draw(st.integers(2, 6))
    dim = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    schedule = LogLinearSchedule(draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 0.95)))
    cfg = SamplerConfig(n_steps=draw(st.integers(1, 6)), strategy=draw(st.sampled_from(STRATEGIES)),
                        n_samples=draw(st.integers(1, 8)), seed=seed)
    task = MixtureTask.random(k, dim, spread=draw(st.floats(0.0, 4.0)), seed=seed)
    if draw(st.booleans()):
        scorer = ExactScorer(lambda f: true_posterior_batch(task, f), k, schedule)
    else:
        scorer = MlpScorer(MlpConfig(n_classes=k, feature_dim=dim, embed_dim=8, hidden_dim=16,
                                     n_blocks=1, time_embed_dim=8, groups=4), schedule, seed=seed)
        scorer.params["out_w"] = np.random.default_rng(seed).standard_normal((k, 16))
    y = np.random.default_rng(seed + 1).standard_normal((draw(st.integers(1, 4)), dim))
    return scorer, schedule, cfg, y


def _run(method, y, scorer, schedule, cfg):
    try:
        return sampler.METHOD_SAMPLERS[method](y, scorer, schedule, cfg)
    except NumericalError:
        return None


class TestSamplerProperties:
    @given(case=_sampler_case(), method=st.sampled_from(["cp", "cl", "full"]),
           block_rows=st.sampled_from([1, 5, sampler.SCORER_ROWS]))
    @settings(max_examples=150, deadline=None)
    def test_on_simplex_with_documented_nfe_and_row_independent(self, case, method, block_rows):
        """Each estimator stays on the simplex with its documented nfe or raises
        NumericalError, in any blocking; with the exact scorer, rows run at once
        equal rows run one at a time (input i with seed + i): bit for bit for
        cp under either anchor rule and for cl; for full to roundoff, which its
        batched matrix products order differently, and which a step that keeps
        a share e of the label signal divides by e."""
        scorer, schedule, cfg, y = case
        n, k = y.shape[0], scorer.k
        with mock.patch.object(sampler, "SCORER_ROWS", block_rows):
            est = _run(method, y, scorer, schedule, cfg)
            singles = [_run(method, y[i], scorer, schedule,
                            SamplerConfig(**{**cfg.__dict__, "seed": cfg.seed + i}))
                       for i in range(n)]
        if est is None:
            if isinstance(scorer, ExactScorer):
                assert any(s is None for s in singles)
            return
        r = {"cp": 1, "cl": cfg.n_samples, "full": k}[method]
        assert est.nfe == r * cfg.n_steps and est.probs.shape == (n, k)
        assert est.probs.min() >= 0.0
        np.testing.assert_allclose(est.probs.sum(axis=1), 1.0, atol=1e-12)
        assert 0 <= est.n_clamped <= n * (cfg.n_samples if method == "cl" else 1) * cfg.n_steps
        if not isinstance(scorer, ExactScorer):
            return
        assert all(s is not None for s in singles)
        one_at_a_time = np.stack([s.probs for s in singles])
        if method == "full":
            amplified = sum(1.0 / e for _, e in
                            sampler.check_samplable(schedule, k, cfg.n_steps, "property"))
            atol = 1e-12 + 16 * np.finfo(np.float64).eps * amplified
            np.testing.assert_allclose(est.probs, one_at_a_time, rtol=0, atol=atol)
        else:
            assert np.array_equal(est.probs, one_at_a_time)
