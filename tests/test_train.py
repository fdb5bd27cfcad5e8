"""Training loop: optimum behavior, determinism, pipeline gradients, smoke runs."""

import tracemalloc

import numpy as np
import pytest

from diffclass import mlp, train
from diffclass.data import CorruptionSpec, MixtureTask, generate, true_posterior_batch
from diffclass.errors import NumericalError, ValidationError
from diffclass.loss import score_entropy_terms
from diffclass.mlp import MlpScorer
from diffclass.sampler import SamplerConfig, posterior_cp_batch
from diffclass.schedule import LogLinearSchedule
from diffclass.score import floor_probs
from diffclass.train import (AdamState, TrainConfig, TrainingDiverged, adam_update,
                             batch_loss_and_grads, clip_global_norm, fit, learning_rate,
                             train_step)
from diffclass.transition import forward_marginal, sample_categorical_rows
from oracles import ExactScorer, adam_reference, bayes_accuracy, fit_data, in_float64

TINY = dict(embed_dim=16, hidden_dim=32, n_blocks=2, time_embed_dim=16)


def _tiny_config(**kw):
    base = dict(epochs=2, batch_size=64, seed=0, **TINY)
    base.update(kw)
    return TrainConfig(**base)


class TestOptimumBehavior:
    def test_exact_oracle_predictions_give_zero_loss(self):
        """On a task with deterministic labels the ratios of the oracle scorer's
        distribution, read at each row's own t, reproduce the per-example noisy
        ratios exactly, so the objective sits at its minimum."""
        from diffclass.data import true_posterior_batch

        task = MixtureTask.ring(4, 2, separation=60.0)
        schedule = LogLinearSchedule(1.0, 0.5)
        scorer = ExactScorer(lambda y: true_posterior_batch(task, y), 4, schedule)
        rng = np.random.default_rng(0)
        n = 4096
        y, labels = generate(task, n, CorruptionSpec(), rng)
        q0 = np.zeros((n, 4))
        q0[np.arange(n), labels] = 1.0
        t = rng.random(n)
        qt = floor_probs(forward_marginal(q0, np.asarray(schedule.sigma_bar(t))))
        anchors = sample_categorical_rows(qt, rng.random(n))
        s_true = qt / qt[np.arange(n), anchors][:, None]
        q_pred = floor_probs(np.concatenate([scorer.score_batch(y[i:i + 1], anchors[i:i + 1], t[i])
                                             for i in range(n)]))
        s_pred = q_pred / q_pred[np.arange(n), anchors][:, None]
        per, _ = score_entropy_terms(s_true, s_pred)
        losses = np.asarray(schedule.sigma(t)) / 4 * per.sum(axis=1)
        assert losses.mean() < 1e-10

    def test_zero_gradient_means_zero_update(self):
        """At the objective's minimum the gradient vanishes, and the
        adaptive-moment update with zero gradients is exactly a no-op."""
        config = _tiny_config()
        scorer = MlpScorer(config.mlp_config(4, 2), config.schedule(), seed=0)
        opt = AdamState(scorer.params)
        before = {k: v.copy() for k, v in scorer.params.items()}
        opt.grad[:] = 0.0
        adam_update(opt, lr=1e-3)
        for key in before:
            assert np.array_equal(scorer.params[key], before[key]), key

    def test_true_score_loss_vanishes_over_many_draws(self):
        """Feeding the exact ratio columns into the objective gives zero loss
        across the whole (t, anchor) sampling distribution."""
        task = MixtureTask.ring(6, 2, separation=3.0)
        schedule = LogLinearSchedule(1.0, 0.5)
        rng = np.random.default_rng(2)
        n = 100_000
        y, labels = generate(task, n, CorruptionSpec(), rng)
        q0 = np.zeros((n, 6))
        q0[np.arange(n), labels] = 1.0
        t = rng.random(n)
        qt = floor_probs(forward_marginal(q0, np.asarray(schedule.sigma_bar(t))))
        anchors = sample_categorical_rows(qt, rng.random(n))
        s_true = qt / qt[np.arange(n), anchors][:, None]
        per, _ = score_entropy_terms(s_true, s_true)
        losses = np.asarray(schedule.sigma(t)) / 6 * per.sum(axis=1)
        assert losses.mean() < 1e-10


class TestDeterminism:
    def test_fixed_seed_bit_identical_parameters(self):
        task = MixtureTask.ring(4, 2, separation=2.0)
        runs = []
        for _ in range(2):
            config = _tiny_config(epochs=1)
            scorer, _ = fit(config, task, *fit_data(task, 512, 128, config.seed))
            runs.append(scorer.params)
        for key in runs[0]:
            assert np.array_equal(runs[0][key], runs[1][key]), key

    def test_zero_learning_rate_freezes_parameters_and_metrics(self):
        task = MixtureTask.ring(3, 2, separation=2.0)
        config = _tiny_config(epochs=3, learning_rate=0.0)
        scorer, metrics = fit(config, task, *fit_data(task, 256, 128, config.seed))
        fresh = MlpScorer(config.mlp_config(3, 2), config.schedule(), seed=config.seed)
        for key in fresh.params:
            assert np.array_equal(scorer.params[key], fresh.params[key]), key
        assert len({m.top1 for m in metrics}) == 1
        assert len({m.tv for m in metrics}) == 1

    def test_training_without_validation_gives_fits_scorer(self):
        """fit's per-epoch validation draws nothing from the training stream, so the
        scorer trained without eval_data equals the validated one bit for bit, and its
        epochs carry the same losses with NaN tv and top1."""
        task = MixtureTask.ring(4, 2, separation=2.0)
        data, held_out = fit_data(task, 300, 100, 5)
        config = _tiny_config(epochs=2)
        fitted, metrics = fit(config, task, data, held_out)
        assert all(np.isfinite(m.tv) for m in metrics)      # fit did validate
        scorer, bare = fit(config, task, data)
        assert [m.loss for m in bare] == [m.loss for m in metrics]
        assert all(np.isnan([m.tv, m.top1]).all() for m in bare)
        assert scorer.params.keys() == fitted.params.keys()
        for key in fitted.params:
            assert np.array_equal(scorer.params[key], fitted.params[key]), key

    def test_a_checkpoint_reproduces_the_fitted_scorer(self, tmp_path):
        """The fit's parameters are the float32 values its checkpoint holds, so the
        loaded scorer's cp posteriors on the validation rows equal the fitted one's
        bit for bit, and so does the last epoch's validation."""
        task = MixtureTask.ring(4, 2, separation=2.0)
        data, held_out = fit_data(task, 1024, train.EVAL_SUBSET, 6)
        scorer, metrics = fit(_tiny_config(epochs=2), task, data, held_out)
        path = str(tmp_path / "m.ckpt")
        scorer.save(path)
        loaded = MlpScorer.load(path)
        cfg = SamplerConfig(n_steps=train.EVAL_STEPS)
        want, _ = posterior_cp_batch(held_out[0], scorer, scorer.schedule, cfg)
        got, _ = posterior_cp_batch(held_out[0], loaded, loaded.schedule, cfg)
        assert np.array_equal(got, want)
        assert metrics[-1].top1 == float((np.argmax(got, axis=1) == held_out[1]).mean())

    def test_cross_entropy_with_eval_data_is_rejected(self):
        """The baseline has no score-entropy sampler to validate, so held-out data
        passed with cross_entropy raise rather than go unused."""
        task = MixtureTask.ring(4, 2)
        data, held_out = fit_data(task, 128, 64, 0)
        with pytest.raises(ValidationError, match="cross-entropy baseline takes no eval_data"):
            fit(_tiny_config(), task, data, held_out, cross_entropy=True)


class TestMixedPrecision:
    def test_one_epoch_on_float32_features_ends_near_the_float64_run(self):
        """One epoch of train_step on a float32 scorer and on its float64 copy
        (oracles.in_float64), on the same float32 features, batches and draws, ends
        within 1e-6 in mean loss and in validation TV.

        The copy's optimizer buffers take its float64 (AdamState), so it runs
        the forward, the backward and Adam in float64 throughout.
        """
        task = MixtureTask.ring(8, 2)
        rng = np.random.default_rng(30)
        y, labels = generate(task, 2048, CorruptionSpec(), rng)
        y = y.astype(np.float32)                      # as read from a dataset file
        eval_y, _ = generate(task, 512, CorruptionSpec(), rng)
        config = TrainConfig(epochs=1, seed=0)        # the reference model: hidden 128, 3 blocks
        runs = []
        for dtype in (np.float32, np.float64):
            scorer = MlpScorer(config.mlp_config(8, 2), config.schedule(), seed=config.seed)
            if dtype == np.float64:
                scorer = in_float64(scorer)
            opt = AdamState(scorer.params)
            step_rng = np.random.default_rng(31)
            losses = []
            for lo in range(0, len(y), config.batch_size):
                _, _, stats = train_step(
                    scorer, opt, y[lo:lo + config.batch_size], labels[lo:lo + config.batch_size],
                    scorer.schedule, step_rng,
                    lr=learning_rate(config, opt.step, len(y) // config.batch_size),
                    grad_clip=config.grad_clip, cross_entropy=False)
                losses.append(stats.total)
            _, cache = scorer.logits(y[:1], labels[:1], np.full(1, 0.5))
            assert opt.flat.dtype == cache["h_top"].dtype == dtype
            assert all(v.dtype == dtype for v in scorer.params.values())
            p0, _ = posterior_cp_batch(eval_y, scorer, scorer.schedule,
                                       SamplerConfig(n_steps=train.EVAL_STEPS))
            tv = 0.5 * np.abs(p0 - true_posterior_batch(task, eval_y)).sum(axis=1).mean()
            runs.append((np.mean(losses), tv))
        (loss32, tv32), (loss64, tv64) = runs
        assert abs(loss32 - loss64) <= 1e-6 * abs(loss64)
        assert abs(tv32 - tv64) <= 1e-6 * tv64

    def test_hidden_16_derives_four_groups_and_trains_in_float32(self, monkeypatch):
        """hidden 16 gets 4 groups of 4 units by default, and fit runs its trunk in float32."""
        task = MixtureTask.ring(4, 2)
        config = TrainConfig(epochs=2, batch_size=64, seed=3, embed_dim=16, hidden_dim=16,
                             n_blocks=2, time_embed_dim=16)
        assert config.mlp_config(4, 2).groups == 4
        dtypes = set()
        real_logits = MlpScorer.logits

        def recording_logits(scorer, features, *args, **kwargs):
            z, cache = real_logits(scorer, features, *args, **kwargs)
            dtypes.add(cache["h_top"].dtype)
            return z, cache

        monkeypatch.setattr(MlpScorer, "logits", recording_logits)
        scorer, metrics = fit(config, task, *fit_data(task, 640, 128, config.seed))
        assert dtypes == {np.dtype(np.float32)} and scorer.cfg.groups == 4
        assert all(np.isfinite([m.loss, m.tv, m.top1]).all() for m in metrics)


class TestWorkspace:
    """The optimizer's flat workspace: views, the forward's form of them, whole-buffer updates."""

    def _scorer_and_batches(self, seed=0, n_batches=6):
        config = _tiny_config()
        scorer = MlpScorer(config.mlp_config(4, 2), config.schedule(), seed=seed)
        y, labels = generate(MixtureTask.ring(4, 2), 32 * n_batches, CorruptionSpec(),
                             np.random.default_rng(seed + 1))
        batches = [(y[i:i + 32].astype(np.float32), labels[i:i + 32])
                   for i in range(0, 32 * n_batches, 32)]
        return config, scorer, batches

    def test_every_forward_reads_the_inference_form_of_the_current_master(self, monkeypatch):
        """Each step's forward runs on inference_params of the master parameters as they
        stand, bit for bit; the workspace keeps no copy of its own."""
        config, scorer, batches = self._scorer_and_batches()
        opt = AdamState(scorer.params)
        real_forward = mlp.forward_logits
        forwards = []

        def checking_forward(q, cfg, features, cond, *args, **kwargs):
            want = mlp.inference_params(scorer.params, cfg)
            assert q.keys() == want.keys()
            for name, value in q.items():
                assert value.dtype == want[name].dtype, name
                assert value.tobytes() == want[name].tobytes(), name
            forwards.append((features.dtype, b"".join(v.tobytes() for v in q.values())))
            return real_forward(q, cfg, features, cond, *args, **kwargs)

        monkeypatch.setattr(mlp, "forward_logits", checking_forward)
        rng = np.random.default_rng(7)
        for features, labels in batches:
            train_step(scorer, opt, features, labels, config.schedule(), rng, lr=1e-2,
                       grad_clip=1.0, cross_entropy=False)
        assert [dtype for dtype, _ in forwards] == [np.dtype(np.float32)] * len(batches)
        assert len({form for _, form in forwards}) == len(batches)    # each step moved it

    def test_replaced_parameter_arrays_take_effect(self):
        """A new array assigned to an entry, or a whole new dict, is packed in before
        the next step and trains exactly like the same values written in place."""
        runs = []
        for how in ("untouched", "in place", "new entry", "new dict"):
            config, scorer, batches = self._scorer_and_batches()
            opt = AdamState(scorer.params)
            rng = np.random.default_rng(8)
            head = 0.3 * np.random.default_rng(9).standard_normal(scorer.params["out_w"].shape)
            for i, (features, labels) in enumerate(batches):
                if i == 2 and how == "in place":
                    scorer.params["out_w"][...] = head
                elif i == 2 and how == "new entry":
                    scorer.params["out_w"] = head.copy()
                elif i == 2 and how == "new dict":
                    scorer.params = {k: v.copy() for k, v in scorer.params.items()}
                    scorer.params["out_w"] = head.copy()
                train_step(scorer, opt, features, labels, config.schedule(), rng, lr=1e-2,
                           grad_clip=1.0, cross_entropy=False)
            assert all(np.shares_memory(v, opt.flat) for v in scorer.params.values())
            runs.append((scorer.params, opt))
        (untouched, _), (want, want_opt), *others = runs
        assert not np.array_equal(untouched["out_w"], want["out_w"])
        for got, got_opt in others:
            for name in want:
                assert np.array_equal(got[name], want[name]), name
            assert np.array_equal(got_opt.m, want_opt.m) and np.array_equal(got_opt.v, want_opt.v)

    def test_packing_rejects_a_parameter_of_the_wrong_shape(self):
        _, scorer, _ = self._scorer_and_batches()
        opt = AdamState(scorer.params)
        scorer.params["out_b"] = np.zeros(1)
        with pytest.raises(ValidationError, match="out_b"):
            opt.pack(scorer.params)

    @pytest.mark.parametrize("chunk", [7, train.ADAM_CHUNK])
    def test_whole_buffer_adam_matches_the_per_array_reference(self, chunk, monkeypatch):
        """50 random steps: the float32 moments match a float32 per-array reference
        bit for bit, the update within 6 ulp, whether the 184 parameters take one
        slice or 27.

        Each step starts from zero parameters, so the update is read off
        exactly.  The whole-buffer step folds the bias corrections into two
        scalars, lr/bc1 and 1/sqrt(bc2), where the reference divides m by bc1
        and v by bc2; both round five times, and over two million random
        draws of (m, v, step) they differed by at most 6 ulp.
        """
        monkeypatch.setattr(train, "ADAM_CHUNK", chunk)
        shapes = {"w": (16, 8), "b": (16,), "e": (4, 3, 2)}
        rng = np.random.default_rng(40)
        params = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
        opt = AdamState(params)
        m = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
        v = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
        for step in range(1, 51):
            grads = {name: (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3))
                     .astype(np.float32) for name, shape in shapes.items()}
            for name, g in grads.items():
                opt.grads[name][...] = g
            lr = float(rng.uniform(1e-4, 1e-2))
            want = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
            opt.flat[:] = 0.0
            adam_update(opt, lr)
            adam_reference(want, grads, m, v, step, lr, (0.9, 0.999))
            assert np.array_equal(opt.m, np.concatenate([m[name].ravel() for name in shapes]))
            assert np.array_equal(opt.v, np.concatenate([v[name].ravel() for name in shapes]))
            for name in shapes:
                ulps = np.abs(params[name] - want[name]) / np.spacing(np.abs(want[name]))
                assert ulps.max() <= 6, (step, name, ulps.max())

    def test_a_step_after_the_first_allocates_only_small_arrays(self):
        """After a fit's first step, a step of the reference model (hidden 128, 3
        blocks, 128-row batches, K=8) reuses every workspace array and makes under
        160 KiB of new memory at its peak (131 KiB, tracemalloc, numpy 2.4); making
        its arrays afresh took 2.6 MiB.  What is left: the loss's (rows, K) arrays,
        among them the 8 KiB of float64 logits the forward widens its own to, and
        the buffers of 32-64 KiB numpy makes for a broadcast.  The float32 masters
        removed the ones it made for a ufunc or matmul that cast float64 into a
        float32 out= array."""
        config = TrainConfig()
        scorer = MlpScorer(config.mlp_config(8, 2), config.schedule(), seed=0)
        opt = AdamState(scorer.params)
        rng = np.random.default_rng(50)
        y, labels = generate(MixtureTask.ring(8, 2), 3 * 128, CorruptionSpec(), rng)
        batches = [(y[i:i + 128].astype(np.float32), labels[i:i + 128]) for i in (0, 128, 256)]
        for features, batch_labels in batches[:2]:
            train_step(scorer, opt, features, batch_labels, scorer.schedule, rng, lr=1e-3,
                       grad_clip=1.0, cross_entropy=False)
        kept = dict(opt.work)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_step(scorer, opt, *batches[2], scorer.schedule, rng, lr=1e-3, grad_clip=1.0,
                       cross_entropy=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 160 * 1024, peak
        assert opt.work.keys() == kept.keys()
        assert all(opt.work[name] is array for name, array in kept.items())

    def test_trunk_gradients_go_straight_into_the_gradient_buffer(self):
        """A workspace step writes every gradient into the optimizer's float32 gradient
        views; they equal param_grads into new arrays bit for bit."""
        config, scorer, batches = self._scorer_and_batches()
        opt = AdamState(scorer.params)
        features, labels = batches[0]
        _, want = batch_loss_and_grads(scorer, features, labels, config.schedule(),
                                       np.random.default_rng(10))
        # A clip bound no norm reaches, so the step leaves its gradients as they were made.
        train_step(scorer, opt, features, labels, config.schedule(), np.random.default_rng(10),
                   lr=1e-2, grad_clip=1e30, cross_entropy=False)
        for name, value in want.items():
            assert value.dtype == np.float32, name
            assert opt.grads[name].tobytes() == value.tobytes(), name

    def test_the_workspace_holds_no_gradient_and_no_float64_but_the_angles(self, monkeypatch):
        """After a fit's second step the step arrays hold no grad.* array, and none is
        float64 but the time embedding's angles: the conditioning, the head and the
        gradients run in the parameters' float32.  The reference model's (hidden 128,
        3 blocks, 128-row batches, K=8) then take 1,820 KiB; with a float64
        conditioning, head and embedding gradients they took 2,260 KiB."""
        seen = []
        real_step = train.train_step

        def recording_step(scorer, opt, *args, **kwargs):
            out = real_step(scorer, opt, *args, **kwargs)
            if len(seen) < 2:
                seen.append({name: array.dtype for name, array in opt.work.items()})
            return out

        monkeypatch.setattr(train, "train_step", recording_step)
        task = MixtureTask.ring(8, 2)
        fit(TrainConfig(epochs=1), task, generate(task, 3 * 128, CorruptionSpec(),
                                                  np.random.default_rng(0)))
        work = seen[-1]
        assert len(seen) == 2 and work
        assert not [name for name in work if name.startswith("grad.")]
        assert [name for name, dtype in work.items() if dtype != np.float32] == ["time_angle"]

    def test_a_reference_model_fit_peaks_under_5_5_mib(self):
        """One epoch of the reference model (hidden 128, 3 blocks, K=8) on 2,048
        float32 rows, validated on 512, peaks at 4.62 MiB of traced memory
        (numpy 2.4): the float32 parameters, gradients, Adam moments and epoch
        snapshot take 2.5 MiB of it.  With those buffers in float64 the fit
        peaked at 8.2 MiB, at 5.54 MiB with a float32 workspace copy of each
        trunk weight gradient, and at 5.05 MiB with a float64 conditioning,
        head and embedding gradients; the bound leaves 18% headroom."""
        task = MixtureTask.ring(8, 2)
        (y, labels), held_out = fit_data(task, 2048, 512, 0)
        tracemalloc.start()
        try:
            fit(TrainConfig(epochs=1), task, (y.astype(np.float32), labels), held_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 2**20, peak

    @pytest.mark.parametrize("fail_at", [None, 8])
    def test_workspace_steps_equal_steps_on_new_arrays(self, monkeypatch, fail_at):
        """A fit whose steps take their arrays from the workspace ends, bit for bit,
        where one whose every forward and backward makes new arrays ends: on 48-row
        batches and an 8-row tail, and when epoch 1's third step fails, on the
        parameters epoch 1 started from (best)."""
        real_logits, real_step = MlpScorer.logits, train.train_step

        def run(new_arrays: bool):
            works, starts = [], []

            def logits(scorer, features, anchors, t, work=None):
                out = real_logits(scorer, features, anchors, t, None if new_arrays else work)
                works.append((work, len(work)))
                return out

            def step(scorer, *args, **kwargs):
                starts.append({name: v.copy() for name, v in scorer.params.items()})
                if len(starts) == fail_at:
                    raise NumericalError("injected")
                return real_step(scorer, *args, **kwargs)

            monkeypatch.setattr(MlpScorer, "logits", logits)
            monkeypatch.setattr(train, "train_step", step)
            config = _tiny_config(epochs=2, batch_size=48)
            task = MixtureTask.ring(4, 2)
            try:
                scorer, _ = fit(config, task, *fit_data(task, 200, 64, config.seed))
            except TrainingDiverged as exc:
                assert fail_at is not None
                scorer = exc.scorer
            assert len(works) == len(starts) - (fail_at is not None)
            assert all(work is works[0][0] for work, _ in works)     # one workspace per fit
            assert all(bool(size) is not new_arrays for _, size in works)
            return scorer.params, starts

        kept, starts = run(new_arrays=False)
        new, _ = run(new_arrays=True)
        assert len(starts) == (10 if fail_at is None else fail_at)
        want = new if fail_at is None else starts[5]      # epoch 1 starts at step 6
        for name in want:
            assert kept[name].tobytes() == want[name].tobytes() == new[name].tobytes(), name
        if fail_at is not None:
            assert not np.array_equal(starts[7]["out_w"], starts[5]["out_w"])

    def test_clip_scales_the_buffer_to_the_bound(self):
        grad = np.random.default_rng(41).standard_normal(1000)
        norm = float(np.sqrt(np.sum(grad ** 2)))
        assert clip_global_norm(grad, 2 * norm) == pytest.approx(norm, rel=1e-14)
        assert clip_global_norm(grad, 1.0) == pytest.approx(norm, rel=1e-14)
        assert np.linalg.norm(grad) == pytest.approx(1.0, rel=1e-14)


class TestPipelineGradient:
    def test_full_pipeline_matches_directional_finite_differences(self):
        """Loss through forward-noising, anchoring, and the network: analytic
        gradient dotted with a random direction vs central differences, on 32
        random (example, time, anchor) draws."""
        task = MixtureTask.ring(5, 2, separation=2.5)
        config = _tiny_config()
        schedule = config.schedule()
        scorer = in_float64(MlpScorer(config.mlp_config(5, 2), schedule, seed=3))
        rng = np.random.default_rng(4)
        # non-degenerate head so the objective sees curvature
        scorer.params["out_w"] = 0.3 * rng.standard_normal(scorer.params["out_w"].shape)
        y_all, labels_all = generate(task, 32, CorruptionSpec(), rng)
        h = 1e-6
        worst = 0.0
        for i in range(32):
            draw_seed = 1000 + i
            _, grads = batch_loss_and_grads(scorer, y_all[i:i + 1], labels_all[i:i + 1],
                                            schedule, np.random.default_rng(draw_seed))
            direction = {k: np.random.default_rng((5, i, j)).standard_normal(v.shape)
                         for j, (k, v) in enumerate(sorted(scorer.params.items()))}
            analytic = sum(float((grads[k] * direction[k]).sum()) for k in grads)

            def loss_at(eps):
                saved = {k: v.copy() for k, v in scorer.params.items()}
                for k in scorer.params:
                    scorer.params[k] += eps * direction[k]
                stats, _ = batch_loss_and_grads(scorer, y_all[i:i + 1], labels_all[i:i + 1],
                                                schedule, np.random.default_rng(draw_seed))
                scorer.params.update(saved)
                return stats.total

            fd = (loss_at(h) - loss_at(-h)) / (2 * h)
            denom = max(abs(fd), abs(analytic), 1e-8)
            worst = max(worst, abs(fd - analytic) / denom)
        assert worst < 1e-4


class TestSmokeTraining:
    def test_loss_decreases_on_eight_class_task(self):
        """2000 steps on an 8-class mixture: late running-mean loss is less than
        half the early running mean."""
        task = MixtureTask.ring(8, 2, separation=3.0)
        config = TrainConfig(epochs=1, batch_size=32, seed=5, **TINY)
        schedule = config.schedule()
        scorer = MlpScorer(config.mlp_config(8, 2), schedule, seed=5)
        opt = AdamState(scorer.params)
        rng = np.random.default_rng(6)
        y, labels = generate(task, 2000 * 32, CorruptionSpec(), np.random.default_rng(7))
        losses = []
        for step in range(2000):
            lo = step * 32
            _, _, stats = train_step(scorer, opt, y[lo:lo + 32], labels[lo:lo + 32],
                                     schedule, rng, lr=2e-3, grad_clip=1.0,
                                     cross_entropy=False)
            losses.append(stats.total)
        early = np.mean(losses[:100])
        late = np.mean(losses[-100:])
        assert late <= 0.5 * early

    def test_two_class_single_epoch_reaches_bayes_fraction(self):
        task = MixtureTask(means=np.array([[-2.0, 0.0], [2.0, 0.0]]))
        bayes, _ = bayes_accuracy(task, CorruptionSpec(), 50_000, np.random.default_rng(8))
        config = TrainConfig(epochs=1, batch_size=128, seed=9,
                             sigma_bar_max=3.0, schedule_decay=0.5, **TINY)
        _, metrics = fit(config, task, *fit_data(task, 4000, 1000, config.seed))
        assert metrics[-1].top1 >= 0.95 * bayes

    def test_more_epochs_do_not_hurt_final_accuracy(self):
        """Doubling the epoch budget keeps final accuracy within a one-point
        noise floor across seeds."""
        task = MixtureTask.ring(3, 2, separation=3.0)
        for seed in (0, 1, 2):
            accs = []
            for epochs in (2, 4):
                config = TrainConfig(epochs=epochs, batch_size=64, seed=seed, **TINY)
                _, metrics = fit(config, task, *fit_data(task, 1500, 600, seed))
                accs.append(metrics[-1].top1)
            assert accs[1] >= accs[0] - 0.01


class TestValidationErrors:
    def test_empty_batch_rejected(self):
        config = _tiny_config()
        scorer = MlpScorer(config.mlp_config(3, 2), config.schedule(), seed=0)
        opt = AdamState(scorer.params)
        with pytest.raises(ValidationError):
            train_step(scorer, opt, np.zeros((0, 2)), np.zeros(0, dtype=int),
                       config.schedule(), np.random.default_rng(0), lr=1e-3, grad_clip=1.0,
                       cross_entropy=False)

    def test_out_of_range_labels_rejected(self):
        config = _tiny_config()
        scorer = MlpScorer(config.mlp_config(3, 2), config.schedule(), seed=0)
        opt = AdamState(scorer.params)
        with pytest.raises(ValidationError):
            train_step(scorer, opt, np.zeros((2, 2)), np.array([0, 3]),
                       config.schedule(), np.random.default_rng(0), lr=1e-3, grad_clip=1.0,
                       cross_entropy=False)

    def test_config_bounds(self):
        for field in ("epochs", "batch_size"):
            for bad in (0, -5):
                with pytest.raises(ValidationError, match=field):
                    TrainConfig(**{field: bad})
        for bad in (dict(learning_rate=-1e-3), dict(learning_rate=float("nan")),
                    dict(learning_rate=float("inf")), dict(grad_clip=0.0),
                    dict(grad_clip=-1.0), dict(grad_clip=float("nan")),
                    dict(grad_clip=float("inf"))):
            with pytest.raises(ValidationError):
                TrainConfig(**bad)
        TrainConfig(learning_rate=0.0, grad_clip=1e-300)
