"""Reverse-process estimators: kernel goldens, convergence, consistency, accounting,
and the workers that run the engine's (tile, step) units."""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffclass import mlp, sampler

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
    """An exact scorer of a gentler schedule than the sampler's: its reads at a
    coarse step put labels below the sampler's uniform floor c, so the step clips them."""
    task, schedule, _, y, _ = _exact_setup(k=k, separation=4.0, n=n)
    scorer = ExactScorer(lambda f: true_posterior_batch(task, f), k, LogLinearSchedule(0.1, 0.9))
    return schedule, scorer, y


def _columns(q, k):
    """Rows q (n, K) as (n, K, K) matrices whose every column is q: each anchor reads q."""
    return np.repeat(q[:, :, None], k, axis=2)


class TestReverseStepFull:
    def test_e_one_is_identity(self):
        """A step that keeps all of the signal (e = 1) denoises nothing and moves
        no mass, whatever distribution each anchor's column holds."""
        rng = np.random.default_rng(1)
        s = rng.dirichlet(np.ones(4), size=(3, 4)).transpose(0, 2, 1)
        p = rng.dirichlet(np.ones(4), size=3)
        out, clamp = reverse_step_full(s, p, 1.0)
        np.testing.assert_allclose(out, p, atol=1e-15)
        assert clamp.tolist() == [0.0] * 3

    def test_mass_conserved_without_clamping(self):
        """Reads of a forward marginal over the step, q = e q0 + c, clip nothing."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = 0.9 * rng.dirichlet(np.ones(6) * 5) + 0.1 / 6
            p = rng.dirichlet(np.ones(6))
            out, clamp = reverse_step_full(_columns(q[None], 6), p[None], 0.9)
            assert abs(out.sum() - 1.0) < 1e-12
            assert out.min() >= 0.0 and clamp.tolist() == [0.0]

    def test_clipped_rows_report_their_mass(self):
        """A peaked column puts labels below the uniform floor c = (1 - e) / K of a
        step keeping e = 0.5: the kernel clips them, reports the mass, here above
        1e-3, and still returns a distribution; each row steps as it does alone."""
        s = _columns(np.array([[0.9, 0.05, 0.05]]), 3)
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
        """On matrices whose every column is q every anchor reads q, so the full
        step is cp's rank-one step, rows and clipped mass."""
        rng = np.random.default_rng([k, int(e * 1e8)])
        q = rng.dirichlet(np.ones(k), size=32)
        p = rng.dirichlet(np.ones(k), size=32)
        out, clamp = reverse_step_full(_columns(q, k), p, e)
        ref, ref_clamp = _cp_step_batch(floor_probs(q), p, e, None)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(clamp, ref_clamp, rtol=0, atol=1e-12)

    def test_rejects_bad_input(self):
        """Every column must be a distribution: finite, non-negative and summing to one
        within 1e-9."""
        p = np.full((1, 3), 1 / 3)
        uniform = np.full((1, 3, 3), 1 / 3)
        reverse_step_full(uniform + 1e-11, p, 0.5)      # columns off by 3e-11 pass
        off_sum = uniform.copy()
        off_sum[0, 2, 1] += 1e-6                        # column 1 sums to 1 + 1e-6
        negative = uniform.copy()
        negative[0, :, 2] = [-0.1, 0.6, 0.5]            # column 2 sums to one
        non_finite = uniform.copy()
        non_finite[0, 1, 0] = np.nan
        for bad in (2.0 * uniform, off_sum, negative, non_finite):
            with pytest.raises(ValidationError, match="distribution"):
                reverse_step_full(bad, p, 0.5)
        with pytest.raises(ValidationError):
            reverse_step_full(np.repeat(uniform, 2, axis=0), p, 0.5)  # one matrix per row
        with pytest.raises(ValidationError, match="rows"):
            reverse_step_full(uniform[0], p[0], 0.5)  # a lone vector is not rows
        # e is a kept share in [MIN_KEPT_SHARE, 1]
        for e in (1.5, 0.0, -0.2, float("nan"), float("inf"), 0.1 * sampler.MIN_KEPT_SHARE):
            with pytest.raises(ValidationError):
                reverse_step_full(uniform, p, e)


class TestSelectLabel:
    def test_argmin_ties_take_lowest_index(self):
        p = np.array([[0.8, 0.1, 0.1]])
        assert _select_labels_batch(p, "argmin", None).tolist() == [1]
        assert _select_labels_batch(p, "argmax", None).tolist() == [0]

    def test_unknown_strategy(self):
        with pytest.raises(ValidationError):
            SamplerConfig(n_steps=8, strategy="best")
        with pytest.raises(ValidationError):   # deleted: its anchors were random draws
            SamplerConfig(n_steps=8, strategy="sampling")


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
        """The uniform read, K=3, over a step keeping e = 0.94: off-anchor
        c = (1 - e) / 3 = 0.02 each, anchor e + c = 0.96."""
        probs, overshoot = _cl_step_batch(np.full((1, 3), 1 / 3), np.array([1]), e=0.94,
                                          work=None)
        np.testing.assert_allclose(probs, [[0.02, 0.96, 0.02]], atol=1e-15)
        assert overshoot.tolist() == [0.0]

    def test_zero_dt_is_one_hot(self):
        """A step of zero length keeps e = 1: every trajectory stays at its label."""
        probs, _ = _cl_step_batch(np.full((1, 4), 0.25), np.array([2]), e=1.0, work=None)
        np.testing.assert_allclose(probs, [[0, 0, 1, 0]], atol=1e-15)

    def test_sums_to_one_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            j = int(rng.integers(k))
            values = rng.dirichlet(np.ones(k))
            probs, _ = _cl_step_batch(values[None, :], np.array([j]), e=rng.random(), work=None)
            assert abs(probs.sum() - 1.0) < 1e-12 and probs.min() >= 0.0

    def test_negative_self_probability_clamped_and_counted(self):
        """The read (4, 1, 4) / 9 from label 1, over a step keeping e = 0.5, whose
        floor is c = 1/6: the label's denoised entry 1/9 - c is negative, so it is
        clipped to PROB_FLOOR, its 1/18 counted against the 10/18 kept, and the
        label keeps (c + e) PROB_FLOOR / (c + (c + e) PROB_FLOOR)."""
        values = np.array([[4.0, 1.0, 4.0]]) / 9
        probs, overshoot = _cl_step_batch(values, np.array([1]), e=0.5, work=None)
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
        """Uniform reads give an exchangeable chain; terminal draws stay uniform."""
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
        """Rank-one consistency: every anchor reads the same distribution, so the
        K x K matrix's step is cp's one-read step."""
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
                                      e=0.5, work=None)
        assert clip[0] == pytest.approx((1 / 6 - 0.05) / (0.95 - 2 / 6), rel=1e-12)
        assert 0.0 < p_next[0, 0] < 1e3 * PROB_FLOOR
        assert p_next.sum() == pytest.approx(1.0, abs=1e-15)
        _, clip_cl = _cl_step_batch(np.array([[0.05, 0.45, 0.5]]), np.array([1]), e=0.5,
                                    work=None)
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
            SamplerConfig(n_steps=8, strategy="greedy")
        with pytest.raises(ValidationError):
            SamplerConfig(n_steps=8, n_samples=0)


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
                        n_blocks=2, time_embed_dim=8)
        schedule = LogLinearSchedule(0.6, 0.7)
        scorer = MlpScorer(cfg, schedule, seed=0)
        scorer.params["out_w"] = 0.3 * np.random.default_rng(1).standard_normal((4, 16))
        prepared, scored = [], []
        prepare, score_batch = scorer.prepare, scorer.score_batch
        monkeypatch.setattr(scorer, "prepare", lambda f: prepared.append(len(f)) or prepare(f))
        monkeypatch.setattr(scorer, "score_batch", lambda f, a, t, space: scored.append(len(a))
                            or score_batch(f, a, t, space))
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
        prepare per block and one score_batch per step per block, each at the
        step's time of the grid, as one float.
        (TestSamplerProperties checks that the blocking leaves the outputs
        unchanged.)"""
        cfg = MlpConfig(n_classes=4, feature_dim=2, embed_dim=8, hidden_dim=16,
                        n_blocks=2, time_embed_dim=8)
        schedule = LogLinearSchedule(0.6, 0.7)
        scorer = MlpScorer(cfg, schedule, seed=0)
        y = np.random.default_rng(3).standard_normal((7, 2))
        sampler_cfg = SamplerConfig(n_steps=5, n_samples=3, seed=2)
        prepared, scored = [], []
        prepare, score_batch = scorer.prepare, scorer.score_batch
        monkeypatch.setattr(scorer, "prepare", lambda f: prepared.append(len(f)) or prepare(f))
        monkeypatch.setattr(scorer, "score_batch", lambda f, a, t, space: scored.append((len(a), t))
                            or score_batch(f, a, t, space))
        monkeypatch.setattr(sampler, "SCORER_ROWS", 10)
        grid = [t for t, _ in step_times(5)]
        # r = 1, 3 and 4 rows per input: blocks of at most 10, 3 and 2 inputs
        for method, blocks in (("cp", [7]), ("cl", [2, 2, 3]), ("full", [1, 2, 2, 2])):
            prepared.clear()
            scored.clear()
            est = sampler.METHOD_SAMPLERS[method](y, scorer, schedule, sampler_cfg)
            r = {"cp": 1, "cl": 3, "full": 4}[method]
            assert prepared == [b * r for b in blocks], method
            rows = [b * r for b in blocks for _ in range(5)]
            assert [n for n, _ in scored] == rows, method
            assert all(isinstance(t, float) for _, t in scored), method
            assert [t for _, t in scored] == grid * len(blocks), method
            assert est.probs.shape == (7, 4) and est.nfe == 5 * r


class TestLargeLogitGap:
    @pytest.mark.parametrize("method", ["cp", "cl", "full"])
    def test_a_logit_gap_of_800_nats_gives_finite_posteriors(self, method):
        """A head bias of 800 nats on label 0 puts every other label's read at
        exp(-800), below float64's range: each estimator still returns finite rows
        on the simplex with label 0 on top, and raises nothing."""
        cfg = MlpConfig(n_classes=4, feature_dim=2, embed_dim=8, hidden_dim=16,
                        n_blocks=2, time_embed_dim=8)
        scorer = MlpScorer(cfg, LogLinearSchedule(0.6, 0.7), seed=0)
        rng = np.random.default_rng(4)
        scorer.params["out_w"] = (0.3 * rng.standard_normal((4, 16))).astype(np.float32)
        scorer.params["out_b"] = np.array([800.0, 0.0, 0.0, 0.0], np.float32)
        y = rng.standard_normal((6, 2))
        est = sampler.METHOD_SAMPLERS[method](y, scorer, scorer.schedule,
                                              SamplerConfig(n_steps=4, n_samples=8, seed=1))
        assert np.all(np.isfinite(est.probs)) and est.probs.min() >= 0.0
        np.testing.assert_allclose(est.probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(est.probs.argmax(axis=1) == 0)


class TestClampAccounting:
    def test_every_estimator_counts_clamped_row_steps(self):
        schedule, scorer, y = _below_floor_setup()
        cfg = SamplerConfig(n_steps=2, n_samples=8, seed=3)
        est = {m: sampler.METHOD_SAMPLERS[m](y, scorer, schedule, cfg)
               for m in ("cp", "cl", "full")}
        for method, rows in (("cp", 4), ("cl", 4 * 8), ("full", 4)):
            assert 0 < est[method].n_clamped <= rows * 2, method
            assert est[method].clamp_mass > 0.0, method
        # every anchor of this scorer reads one distribution, so cp and full clip
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
                                     n_blocks=1, time_embed_dim=8), schedule, seed=seed)
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


def _worker_scorer(k=5):
    """A small untrained scorer whose random head makes its reads differ by anchor."""
    scorer = MlpScorer(MlpConfig(n_classes=k, feature_dim=3, embed_dim=16, hidden_dim=32,
                                 n_blocks=2, time_embed_dim=16), LogLinearSchedule(1.0, 0.5),
                       seed=0)
    rng = np.random.default_rng(100)
    for name in ("out_w", "out_b"):
        scorer.params[name] = (0.8 * rng.standard_normal(scorer.params[name].shape)
                               ).astype(np.float32)
    return scorer


def _on_pool_thread() -> bool:
    return threading.current_thread().name.startswith("diffclass-tiles")


def _outputs(est):
    """Every output of an estimate, as bytes and numbers, for exact comparison."""
    return (est.probs.tobytes(), est.trajectory.tobytes(), est.clamp_mass, est.n_clamped, est.nfe)


@pytest.fixture
def set_workers(monkeypatch):
    """set_workers(n) sets sampler.WORKERS to n and drops the pool, so the next
    multi-tile block starts a pool of n - 1 threads (the pool keeps the size it
    started with); a dropped pool, and the last one after the test, is shut down."""
    monkeypatch.setattr(sampler, "_pool", None)

    def set_to(n):
        if sampler._pool is not None:
            sampler._pool.shutdown()
        monkeypatch.setattr(sampler, "WORKERS", n)
        sampler._pool = None

    yield set_to
    if sampler._pool is not None:
        sampler._pool.shutdown()


@pytest.fixture
def short_switches():
    """A 1 us switch interval, so the workers interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def _run_in_child(code: str) -> None:
    src = str(Path(sampler.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


class TestWorkers:
    """Tiles of each engine block, stepped by the calling thread and the pool (_run_units)."""

    @pytest.mark.parametrize("method", ["cp", "cl", "full"])
    def test_the_schedule_cannot_change_an_output(self, method, monkeypatch, set_workers,
                                                  short_switches):
        """7-row tiles on 1, 2 and 3 workers, in blocks of several tiles, and with the
        queue forced to hand out the tile returned last (each worker then keeps one
        tile to its last step, while the other tiles wait at their first): the
        probabilities, trajectory, clamp_mass and n_clamped are equal bit for bit."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        monkeypatch.setattr(sampler, "SCORER_ROWS", 120)
        scorer = _worker_scorer()
        y = np.random.default_rng(5).standard_normal((90, 3))
        cfg = SamplerConfig(n_steps=4, n_samples=4, seed=3, record_trajectory=True)
        runs = []
        for workers, take in ((1, None), (2, None), (3, None), (2, "last"), (3, "last")):
            set_workers(workers)
            if take == "last":
                monkeypatch.setattr(sampler, "_take", lambda ready: ready.pop())
            runs.append(_outputs(sampler.METHOD_SAMPLERS[method](y, scorer, scorer.schedule, cfg)))
        assert runs[0][3] > 0
        assert all(run == runs[0] for run in runs[1:])

    def test_every_unit_runs_once_and_in_step_order(self, monkeypatch, set_workers,
                                                    short_switches):
        """Three workers read each tile of each block once per step, at the grid's
        times in order, on rows of the scorer's tiles."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        monkeypatch.setattr(sampler, "SCORER_ROWS", 100)
        set_workers(3)
        scorer = _worker_scorer()
        lock, reads = threading.Lock(), {}
        score_batch = scorer.score_batch

        def spy(features, anchors, t, space):
            with lock:
                # keyed by the tile's prepared rows, kept so that no id is reused
                reads.setdefault(id(features), (features, []))[1].append((len(anchors), t))
            return score_batch(features, anchors, t, space)

        monkeypatch.setattr(scorer, "score_batch", spy)
        y = np.random.default_rng(6).standard_normal((230, 3))
        posterior_cp(y, scorer, scorer.schedule, SamplerConfig(n_steps=5))
        grid = [t for t, _ in step_times(5)]
        units = [tile_units for _, tile_units in reads.values()]
        # 230 inputs: three blocks of 76-77 inputs, each of ten or eleven 7-row tiles
        tiles = [tile.stop - tile.start for n in (76, 77, 77) for tile in mlp.row_tiles(n)]
        assert sorted(tile[0][0] for tile in units) == sorted(tiles)
        assert all([t for _, t in tile] == grid and len({rows for rows, _ in tile}) == 1
                   for tile in units)

    @pytest.mark.parametrize("error", [ValidationError, NumericalError])
    def test_a_pool_error_reaches_the_caller_and_stops_the_other_worker(self, monkeypatch,
                                                                         set_workers, error):
        """An error raised in a pool unit's read is the caller's error, and no worker
        takes a unit after it.  The pool's unit fails once the caller's first unit
        has started, and that unit waits, up to 20 s, for the failure, then 0.2 s
        more for the pool's worker to record it."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        set_workers(2)
        scorer = _worker_scorer()
        y = np.random.default_rng(7).standard_normal((80, 3))
        cfg = SamplerConfig(n_steps=4)
        expected = posterior_cp(y, scorer, scorer.schedule, cfg).probs
        score_batch = scorer.score_batch
        caller_started, pool_failed = threading.Event(), threading.Event()
        lock, taken = threading.Lock(), []

        def failing(features, anchors, t, space):
            with lock:
                taken.append((_on_pool_thread(), pool_failed.is_set()))
            if _on_pool_thread():
                assert caller_started.wait(timeout=20), "no unit started on the caller"
                pool_failed.set()
                raise error("a pool unit failed")
            caller_started.set()
            assert pool_failed.wait(timeout=20), "no unit started on the pool"
            time.sleep(0.2)
            return score_batch(features, anchors, t, space)

        monkeypatch.setattr(scorer, "score_batch", failing)
        with pytest.raises(error, match="a pool unit failed"):
            posterior_cp(y, scorer, scorer.schedule, cfg)
        assert sorted(taken) == [(False, False), (True, False)]
        monkeypatch.setattr(scorer, "score_batch", score_batch)
        assert np.array_equal(posterior_cp(y, scorer, scorer.schedule, cfg).probs, expected)

    @pytest.mark.parametrize("error", [ValidationError, NumericalError])
    def test_an_error_in_the_scorer_on_the_pool_reaches_the_caller(self, monkeypatch,
                                                                   set_workers, error):
        """An error raised inside MlpScorer's read on the pool thread, in the pool's
        first unit, which also runs its tile's prefix, is the caller's error; the
        caller's unit waits, up to 20 s, until it has been raised.  The scorer
        then reads as before."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        set_workers(2)
        scorer = _worker_scorer()
        y = np.random.default_rng(8).standard_normal((80, 3))
        cfg = SamplerConfig(n_steps=4)
        expected = posterior_cp(y, scorer, scorer.schedule, cfg).probs
        branch = mlp._inference_branch
        pool_failed = threading.Event()

        def failing(*args):
            if _on_pool_thread():
                pool_failed.set()
                raise error("a pool read failed")
            assert pool_failed.wait(timeout=20), "no unit started on the pool"
            return branch(*args)

        monkeypatch.setattr(mlp, "_inference_branch", failing)
        with pytest.raises(error, match="a pool read failed"):
            posterior_cp(y, scorer, scorer.schedule, cfg)
        monkeypatch.setattr(mlp, "_inference_branch", branch)
        assert np.array_equal(posterior_cp(y, scorer, scorer.schedule, cfg).probs, expected)

    def test_workers_keep_the_callers_errstate(self, monkeypatch, set_workers):
        """A multi-tile posterior on non-finite parameters raises NumericalError: the
        pool's units run under the caller's np.errstate, so no RuntimeWarning
        escapes (warnings are errors in this suite)."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        set_workers(2)
        scorer = _worker_scorer()
        scorer.params["in_w"][:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            posterior_cp(np.ones((40, 3)), scorer, scorer.schedule, SamplerConfig(n_steps=2))

    def test_a_busy_pool_does_not_hold_up_a_block(self, monkeypatch, set_workers):
        """A multi-tile block finishes while the pool's only thread is busy: the
        caller runs every unit and cancels the job that never started."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        set_workers(2)
        scorer = _worker_scorer()
        y, cfg = np.ones((40, 3)), SamplerConfig(n_steps=3)
        expected = posterior_cp(y, scorer, scorer.schedule, cfg).probs
        release = threading.Event()
        busy = sampler._executor().submit(release.wait)
        results = []
        caller = threading.Thread(
            target=lambda: results.append(posterior_cp(y, scorer, scorer.schedule, cfg).probs))
        try:
            caller.start()
            caller.join(timeout=20)
            finished = not caller.is_alive()
        finally:
            release.set()
            busy.result(timeout=20)
            caller.join(timeout=20)
        assert finished, "the block waited for the busy pool"
        assert np.array_equal(results[0], expected)

    def test_three_workers_run_on_three_threads(self, monkeypatch, set_workers):
        """A multi-tile block at three workers, after one at two, runs its units on
        three threads under set_workers, which the other three-worker tests use:
        each worker holds its first unit until three have one."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        scorer = _worker_scorer()
        y, cfg = np.ones((40, 3)), SamplerConfig(n_steps=2)
        set_workers(2)
        expected = posterior_cp(y, scorer, scorer.schedule, cfg).probs
        set_workers(3)
        score_batch = scorer.score_batch
        lock, threads = threading.Lock(), set()
        meeting = threading.Barrier(3, timeout=10)

        def first_units_meet(*args):
            with lock:
                first = threading.current_thread().name not in threads
                threads.add(threading.current_thread().name)
            if first:
                meeting.wait()
            return score_batch(*args)

        monkeypatch.setattr(scorer, "score_batch", first_units_meet)
        got = posterior_cp(y, scorer, scorer.schedule, cfg).probs
        assert len(threads) == 3 and np.array_equal(got, expected)

    def test_concurrent_callers_get_their_own_posteriors(self, monkeypatch, set_workers,
                                                         short_switches):
        """Callers on more threads than CPUs, each sharing its blocks' units with a
        pool of two threads: every result equals the serial one, and every caller
        finishes."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 50)
        set_workers(3)
        scorer = _worker_scorer()
        cfg = SamplerConfig(n_steps=3)
        inputs = [np.random.default_rng(seed).standard_normal((300, 3)) for seed in range(6)]
        expected = [posterior_cp(y, scorer, scorer.schedule, cfg).probs for y in inputs]
        results = [None] * len(inputs)

        def call(i):
            for _ in range(3):
                results[i] = posterior_cp(inputs[i], scorer, scorer.schedule, cfg).probs

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert all(np.array_equal(got, want) for got, want in zip(results, expected))

    def test_an_unreadable_cpu_moves_no_thread(self, monkeypatch, set_workers, tmp_path):
        """Where reading the caller's CPU raises OSError, a pool unit still runs, no
        thread's CPUs are set, and the posteriors are the same."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        set_workers(2)
        scorer = _worker_scorer()
        y, cfg = np.ones((40, 3)), SamplerConfig(n_steps=2)
        expected = posterior_cp(y, scorer, scorer.schedule, cfg).probs
        monkeypatch.setattr(sampler, "_THREAD_STAT", str(tmp_path / "missing"))
        placed = []
        monkeypatch.setattr(os, "sched_setaffinity", lambda *args: placed.append(args),
                            raising=False)
        score_batch, pool_ran = scorer.score_batch, threading.Event()

        def spy(*args):
            if _on_pool_thread():
                pool_ran.set()
            else:
                assert pool_ran.wait(timeout=20), "no unit ran on the pool"
            return score_batch(*args)

        monkeypatch.setattr(scorer, "score_batch", spy)
        got = posterior_cp(y, scorer, scorer.schedule, cfg).probs
        assert sampler._pool_cpus() is None and pool_ran.is_set()
        assert not placed and np.array_equal(got, expected)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs fork")
    def test_a_forked_child_starts_its_own_pool(self, monkeypatch, set_workers):
        """The child's copy of the pool has no threads; the child drops it and
        starts a pool of its own on its first multi-tile block."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        set_workers(2)
        scorer = _worker_scorer()
        y, cfg = np.ones((40, 3)), SamplerConfig(n_steps=2)
        expected = posterior_cp(y, scorer, scorer.schedule, cfg).probs.tobytes()
        assert sampler._pool is not None

        def child():
            fresh = sampler._pool is None
            same = posterior_cp(y, scorer, scorer.schedule, cfg).probs.tobytes() == expected
            os._exit(0 if fresh and same else 1)

        process = multiprocessing.get_context("fork").Process(target=child)
        with warnings.catch_warnings():
            # Python 3.12+ warns about fork() in a process with threads.
            warnings.simplefilter("ignore", DeprecationWarning)
            process.start()
        process.join(timeout=120)
        if process.is_alive():
            process.kill()
            process.join(timeout=10)
        assert process.exitcode == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_one_usable_cpu_starts_no_thread(self):
        """In a process pinned to one CPU a multi-tile block runs inline."""
        _run_in_child("""
import os, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from diffclass import mlp, sampler
mlp.TILE_ROWS = 7
cfg = mlp.MlpConfig(n_classes=5, feature_dim=3, embed_dim=16, hidden_dim=32, n_blocks=2,
                    time_embed_dim=16)
scorer = mlp.MlpScorer(cfg, mlp.LogLinearSchedule(1.0, 0.5), seed=0)
sampler.posterior_cp(np.ones((100, 3)), scorer, scorer.schedule, sampler.SamplerConfig(n_steps=2))
assert sampler.WORKERS == 1 and sampler._pool is None and threading.active_count() == 1
""")

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2
                        or not os.path.exists(sampler._THREAD_STAT),
                        reason="needs sched_setaffinity, 2 usable CPUs and /proc/thread-self")
    def test_the_pool_thread_runs_off_the_callers_cpu(self):
        """With the caller pinned to CPU a, a pool unit of a two-worker block runs on
        the usable CPUs but a; re-pinned to b, the next block moves the pool off b.
        The caller's units wait until a pool unit has run: a cancelled job never moves."""
        _run_in_child("""
import os, threading
import numpy as np
from diffclass import mlp, sampler
usable = os.sched_getaffinity(0)
a, b = min(usable), max(usable)
mlp.TILE_ROWS = 7
sampler.WORKERS = 2
cfg = mlp.MlpConfig(n_classes=5, feature_dim=3, embed_dim=16, hidden_dim=32, n_blocks=2,
                    time_embed_dim=16)
scorer = mlp.MlpScorer(cfg, mlp.LogLinearSchedule(1.0, 0.5), seed=0)
score_batch, seen, pool_ran = scorer.score_batch, [], threading.Event()

def spy(*args):
    if threading.current_thread().name.startswith("diffclass-tiles"):
        seen.append((caller, os.sched_getaffinity(0)))
        pool_ran.set()
    else:
        assert pool_ran.wait(timeout=20), "no unit ran on the pool"
    return score_batch(*args)

scorer.score_batch = spy
for caller in (a, b):
    os.sched_setaffinity(0, {caller})
    pool_ran.clear()
    sampler.posterior_cp(np.ones((100, 3)), scorer, scorer.schedule,
                         sampler.SamplerConfig(n_steps=2))
assert {cpu for cpu, _ in seen} == {a, b}, seen
assert all(cpus == usable - {cpu} for cpu, cpus in seen), seen
""")

    def test_one_tile_blocks_start_no_thread(self, tmp_path):
        """Posteriors whose blocks each hold one tile run inline and start no thread:
        train's 512-row validation, a one-input trace and a 1,900-row eval, in a
        fresh process on as many CPUs as this one.  This keeps train's peak memory
        free of a second worker's."""
        _run_in_child(f"""
import threading
from diffclass import cli, sampler
stem = {str(tmp_path)!r}
for name, n, seed in (("train", 1024, 0), ("held", 1900, 1)):
    assert cli.main(["gen-data", "--k", "4", "--n", str(n), "--seed", str(seed),
                     "--stem", f"{{stem}}/{{name}}"]) == 0
assert cli.main(["train", "--data", f"{{stem}}/train", "--eval-data", f"{{stem}}/held",
                 "--epochs", "2", "--batch-size", "64", "--hidden-dim", "32", "--blocks", "2",
                 "--checkpoint", f"{{stem}}/m.ckpt"]) == 0
assert cli.main(["trace", "--data", f"{{stem}}/held", "--checkpoint", f"{{stem}}/m.ckpt",
                 "--steps", "8", "--out", f"{{stem}}/trace.csv"]) == 0
assert cli.main(["eval", "--data", f"{{stem}}/held", "--checkpoint", f"{{stem}}/m.ckpt",
                 "--out", f"{{stem}}/eval.csv"]) == 0
assert sampler._pool is None and threading.active_count() == 1, threading.enumerate()
""")
