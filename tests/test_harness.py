"""Evaluation harness: metrics, sweeps, ablation, trace, comparison grid, CSV."""

import numpy as np
import pytest

from diffclass.data import CorruptionSpec, MixtureTask, generate, true_posterior_batch
from diffclass.errors import NumericalError, ValidationError
from diffclass.harness import (compare_grid, evaluate, nfe_sweep, selection_ablation,
                               topk_hits, trace_topk, write_csv)
from diffclass.sampler import SamplerConfig, step_times
from diffclass.schedule import LogLinearSchedule
from diffclass.train import TrainConfig, ce_baseline_proba, fit_without_validation
from oracles import ExactScorer, UniformScorer, bayes_accuracy

NONE = CorruptionSpec()
TINY = dict(embed_dim=16, hidden_dim=32, n_blocks=2, time_embed_dim=16, groups=4)


def _exact(task, sched):
    return ExactScorer(lambda y: true_posterior_batch(task, y), task.k, sched)


class TestTopK:
    def test_ties_break_by_lowest_class_index(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25]])
        assert topk_hits(probs, np.array([0]), 1)[0]
        assert not topk_hits(probs, np.array([1]), 1)[0]
        assert topk_hits(probs, np.array([1]), 2)[0]


class TestEvaluate:
    def test_exact_scorer_tracks_bayes_accuracy(self):
        task = MixtureTask.ring(10, 2, separation=2.0)
        sched = LogLinearSchedule(1.0, 0.9)
        n_eval = 2000
        report = evaluate(_exact(task, sched), task, NONE, SamplerConfig(n_steps=256),
                          n_eval, np.random.default_rng(0), sched)
        bayes, se = bayes_accuracy(task, NONE, 200_000, np.random.default_rng(1))
        margin = 0.01 + 3 * np.sqrt(bayes * (1 - bayes) / n_eval)
        assert abs(report.top1 - bayes) < margin
        assert report.mean_tv < 1e-2
        assert report.nfe == 256
        assert 0.0 <= report.top1 <= report.top5 <= 1.0

    def test_uniform_scorer_sits_at_chance(self):
        task = MixtureTask.ring(10, 2, separation=2.0)
        sched = LogLinearSchedule(1.0, 0.9)
        n_eval = 4000
        report = evaluate(UniformScorer(10), task, NONE, SamplerConfig(n_steps=8),
                          n_eval, np.random.default_rng(2), sched)
        bound = 5 * np.sqrt(0.1 * 0.9 / n_eval)
        assert abs(report.top1 - 0.1) < bound
        assert abs(report.top5 - 0.5) < 5 * np.sqrt(0.5 * 0.5 / n_eval)

    def test_small_k_omits_top5(self):
        task = MixtureTask.ring(3, 2)
        sched = LogLinearSchedule(1.0, 0.5)
        report = evaluate(_exact(task, sched), task, NONE, SamplerConfig(n_steps=8),
                          100, np.random.default_rng(3), sched)
        assert np.isnan(report.top5)

    def test_wall_time_omitted_unless_requested(self):
        task = MixtureTask.ring(3, 2)
        sched = LogLinearSchedule(1.0, 0.5)
        cfg = SamplerConfig(n_steps=4)
        silent = evaluate(_exact(task, sched), task, NONE, cfg, 50,
                          np.random.default_rng(4), sched)
        timed = evaluate(_exact(task, sched), task, NONE, cfg, 50,
                         np.random.default_rng(4), sched, timing=True)
        assert np.isnan(silent.wall_ms) and timed.wall_ms > 0.0


class TestSweep:
    def test_nfe_accounting_in_rows(self):
        task = MixtureTask.ring(10, 2, separation=2.0)
        sched = LogLinearSchedule(1.0, 0.9)
        grid = [("cp", 8, 1), ("cl", 2, 16), ("full", 4, 1)]
        rows = nfe_sweep(_exact(task, sched), task, NONE, sched, 20, seed=0, grid=grid)
        by_method = {r["method"]: r for r in rows}
        assert by_method["cp"]["nfe"] == 8
        assert by_method["cl"]["nfe"] == 32
        assert by_method["full"]["nfe"] == 40

    def test_empty_grid_rejected(self):
        task = MixtureTask.ring(3, 2)
        sched = LogLinearSchedule(1.0, 0.5)
        with pytest.raises(ValidationError):
            nfe_sweep(_exact(task, sched), task, NONE, sched, 10, seed=0, grid=[])

    def test_deterministic_per_seed(self, tmp_path):
        task = MixtureTask.ring(5, 2, separation=2.0)
        sched = LogLinearSchedule(1.0, 0.5)
        grid = [("cp", 4, 1), ("cl", 2, 8)]
        paths = []
        for run in range(2):
            rows = nfe_sweep(_exact(task, sched), task, NONE, sched, 50, seed=7, grid=grid)
            path = tmp_path / f"sweep{run}.csv"
            write_csv(str(path), rows)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestAblation:
    def test_exact_scorer_strategies_agree(self):
        task = MixtureTask.ring(6, 2, separation=2.0)
        sched = LogLinearSchedule(1.0, 0.5)
        rows = selection_ablation(_exact(task, sched), task, NONE, sched,
                                  steps=16, n_eval=200, seed=0)
        assert len(rows) == 3
        assert len({r["nfe"] for r in rows}) == 1
        top1s = {r["top1"] for r in rows}
        assert max(top1s) - min(top1s) < 1e-12
        assert sum(r["best"] for r in rows) == 1


class TestTrace:
    def test_trajectory_rows_well_formed(self):
        task = MixtureTask.ring(8, 2, separation=2.0)
        sched = LogLinearSchedule(1.0, 0.5)
        y = np.array([1.0, 0.5])
        rows = trace_topk(_exact(task, sched), y, sched, SamplerConfig(n_steps=16), k=8)
        first = [r for r in rows if r["step"] == 0]
        np.testing.assert_allclose([r["prob"] for r in first], 1 / 8, atol=1e-12)
        last = [r for r in rows if r["step"] == 16]
        assert abs(sum(r["prob"] for r in last) - 1.0) < 1e-9
        assert all(0.0 <= r["prob"] <= 1.0 for r in rows)
        assert {r["step"] for r in rows} == set(range(17))


    def test_steps_labelled_with_the_sampler_grid(self):
        """The t column follows step_times, 1 - step/n, and the last snapshot reads 0."""
        task = MixtureTask.ring(4, 2, separation=2.0)
        sched = LogLinearSchedule(1.0, 0.5)
        cfg = SamplerConfig(n_steps=8)
        rows = trace_topk(_exact(task, sched), np.array([1.0, 0.5]), sched, cfg, k=1)
        expected = [t for t, _ in step_times(8)] + [0.0]
        assert [r["t"] for r in rows] == expected
        np.testing.assert_allclose(expected, 1.0 - np.arange(9) / 8, rtol=0, atol=1e-15)


class TestCompareGrid:
    def test_grid_shape_and_bayes_sanity(self):
        task = MixtureTask.ring(4, 2, separation=3.0)
        config = TrainConfig(epochs=2, batch_size=64, seed=0, **TINY)
        rows = compare_grid(task, [0.0, 0.8], [0.5, 1.0], config,
                            n_train=600, n_eval=400, steps=4, seed=0)
        assert len(rows) == 4
        for row in rows:
            bound = row["bayes_top1"] + 3 * row["bayes_se"]
            assert row["diffusion_top1"] <= bound
            assert row["baseline_top1"] <= bound
            assert row["gain"] == pytest.approx(
                row["diffusion_top1"] - row["baseline_top1"], abs=1e-12)

    def test_ce_baseline_learns(self):
        task = MixtureTask(means=np.array([[-2.0, 0.0], [2.0, 0.0]]))
        config = TrainConfig(epochs=3, batch_size=64, seed=1, **TINY)
        rng = np.random.default_rng(2)
        train = generate(task, 1000, NONE, rng)
        test_y, test_c = generate(task, 1000, NONE, rng)
        model = fit_without_validation(config, task, train, cross_entropy=True)
        acc = (ce_baseline_proba(model, test_y).argmax(axis=1) == test_c).mean()
        assert acc > 0.9

    def test_diverged_ce_baseline_raises(self):
        """A non-finite loss or gradient stops the baseline, as it stops train_step."""
        task = MixtureTask.ring(4, 2)
        config = TrainConfig(epochs=2, batch_size=64, seed=0, learning_rate=1e308, **TINY)
        train = generate(task, 256, NONE, np.random.default_rng(3))
        with pytest.raises(NumericalError):
            fit_without_validation(config, task, train, cross_entropy=True)


class TestCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), [{"a": 1, "b": 0.5, "c": float("nan"), "d": "x"}])
        text = path.read_bytes()
        assert text == b"a,b,c,d\n1,0.5,,x\n"

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_csv(str(tmp_path / "e.csv"), [])
