"""Scorer network: output contract, gradients vs finite differences, checkpoints."""

import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffclass import mlp
from diffclass.data import CorruptionSpec, MixtureTask, save_dataset
from diffclass.errors import NumericalError, ValidationError
from diffclass.mlp import (GN_EPS, MlpConfig, MlpScorer, PreparedFeatures,
                           _gn_backward, _gn_forward, _group_expand, _inference_groupnorm,
                           _silu_slope, backward_logits, load_params, param_shapes, row_tiles,
                           silu, silu_from_half)
from diffclass.schedule import LogLinearSchedule
from diffclass.sampler import SamplerConfig, posterior_cp, step_times
from diffclass.train import (BASELINE_T, AdamState, TrainConfig, batch_loss_and_grads,
                             ce_baseline_proba, cross_entropy_loss_and_grads, fit, train_step)
from oracles import (fit_data, in_float64, reference_groupnorm, reference_groupnorm_backward,
                     reference_logits, score_column, silu_grad)

SMALL = MlpConfig(n_classes=5, feature_dim=3, embed_dim=16, hidden_dim=32,
                  n_blocks=2, time_embed_dim=16)
SCHED = LogLinearSchedule(1.0, 0.5)


def _small_scorer(seed=0, head_scale=0.0):
    scorer = MlpScorer(SMALL, SCHED, seed=seed)
    if head_scale:
        rng = np.random.default_rng(seed + 100)
        for name in ("out_w", "out_b"):
            draw = head_scale * rng.standard_normal(scorer.params[name].shape)
            scorer.params[name] = draw.astype(np.float32)
    return scorer


def _per_time(read, features, anchors, t):
    """read(features, anchors, tau) for each distinct time tau of t, each in a call of
    its own on the rows at tau, put back in row order."""
    out = None
    for tau in np.unique(t):
        rows = t == tau
        got = read(features[rows], anchors[rows], float(tau))
        out = np.empty((len(t), got.shape[1]), got.dtype) if out is None else out
        out[rows] = got
    return out


def _assert_distributions(values):
    """Every row is non-negative and sums to one within 1e-12."""
    assert np.all(np.isfinite(values)) and np.all(values >= 0.0)
    assert np.abs(values.sum(axis=1) - 1.0).max() <= 1e-12


class TestOutputContract:
    def test_rows_are_class_distributions(self):
        """Each row of a read is a distribution over the K labels, at every time, each
        time read in a call of its own."""
        scorer = _small_scorer(head_scale=0.5)
        rng = np.random.default_rng(1)
        y = rng.standard_normal((20, 3))
        anchors = rng.integers(0, 5, 20)
        t = rng.random(20)
        values = _per_time(scorer.score_batch, y, anchors, t)
        assert values.shape == (20, 5)
        _assert_distributions(values)

    def test_zero_head_gives_uniform_rows(self):
        scorer = _small_scorer()  # head is zero-initialized
        values = scorer.score_batch(np.ones((4, 3)), np.array([0, 1, 2, 3]), 0.3)
        np.testing.assert_allclose(values, 1.0 / 5, atol=1e-15)

    def test_logit_shift_invariance(self):
        """Adding a constant to every output logit leaves the reads unchanged.

        On float64 parameters, so that the shifted bias is not rounded to float32."""
        scorer = in_float64(_small_scorer(head_scale=0.4))
        y = np.random.default_rng(2).standard_normal((6, 3))
        anchors = np.array([0, 1, 2, 3, 4, 0])
        t = 0.5
        before = scorer.score_batch(y, anchors, t)
        scorer.params["out_b"] = scorer.params["out_b"] + 3.7
        after = scorer.score_batch(y, anchors, t)
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_deterministic(self):
        scorer = _small_scorer(head_scale=0.3)
        y = np.random.default_rng(3).standard_normal((8, 3))
        a = scorer.score_batch(y, np.zeros(8, dtype=int), 0.2)
        b = scorer.score_batch(y, np.zeros(8, dtype=int), 0.2)
        assert np.array_equal(a, b)

    def test_empirical_lipschitz_probe(self):
        """Small input perturbations produce proportionally bounded output changes."""
        scorer = _small_scorer(head_scale=0.3)
        rng = np.random.default_rng(4)
        ratios = []
        for _ in range(100):
            y = rng.standard_normal(3)
            dy = 1e-4 * rng.standard_normal(3)
            s0 = score_column(scorer, y, 1, 0.4).values
            s1 = score_column(scorer, y + dy, 1, 0.4).values
            ratios.append(np.linalg.norm(s1 - s0) / np.linalg.norm(dy))
        assert np.isfinite(ratios).all() and max(ratios) < 1e4

    def test_nonfinite_parameters_raise_with_diagnostic(self):
        scorer = _small_scorer(head_scale=0.3)
        scorer.params["in_w"][0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            scorer.score_batch(np.ones((2, 3)), np.array([0, 1]), 0.1)


@pytest.fixture(scope="module")
def trained_scorer():
    """Reference-size scorer (K=8, hidden 128, 3 blocks) after one short epoch."""
    task = MixtureTask.ring(8, 2)
    scorer, _ = fit(TrainConfig(epochs=1, seed=0), task, *fit_data(task, 4096, 256, 0))
    return scorer


def _shared_time_batch(n, seed):
    """Inputs as one cp step sees them: every row at one t, anchors over all K."""
    rng = np.random.default_rng(seed)
    return 3.0 * rng.standard_normal((n, 2)), rng.integers(0, 8, n), 0.625


def _float64_reference(scorer):
    """A scorer on float64 copies of scorer's parameters (oracles.in_float64), checked to
    run its forward in float64 on float32 features; scorer itself is left as it is."""
    reference = in_float64(MlpScorer(scorer.cfg, scorer.schedule, params=scorer.params))
    _, cache = reference.logits(np.zeros((1, scorer.cfg.feature_dim), np.float32),
                                np.zeros(1, dtype=int), np.full(1, 0.5))
    assert cache["h_top"].dtype == np.float64
    return reference


class TestInferencePath:
    def test_float32_trunk_matches_float64_forward(self, trained_scorer):
        rng = np.random.default_rng(10)
        n = 4000
        y = 3.0 * rng.standard_normal((n, 2))
        anchors = rng.integers(0, 8, n)
        t = rng.choice(np.linspace(1.0, 0.125, 8), n)
        z64, _ = _float64_reference(trained_scorer).logits(y, anchors, t)
        z32 = _per_time(trained_scorer.inference_logits, y, anchors, t)
        assert z32.dtype == np.float64
        assert np.abs(z32 - z64).max() <= 1e-5
        assert np.array_equal(z32.argmax(axis=1), z64.argmax(axis=1))

    def test_conditioning_runs_once_per_call_on_k_rows(self, trained_scorer, monkeypatch):
        """A read, each step of a sampler and the baseline's read each run the
        conditioning once, on the K labels at the call's one t."""
        calls = []
        original = trained_scorer.conditioning

        def spy(anchors, t):
            calls.append((anchors.tolist(), t.tolist()))
            return original(anchors, t)

        monkeypatch.setattr(trained_scorer, "conditioning", spy)
        y, anchors, t = _shared_time_batch(1000, 11)
        trained_scorer.score_batch(y, anchors, t)
        assert calls == [(list(range(8)), [t] * 8)]
        calls.clear()
        posterior_cp(y, trained_scorer, trained_scorer.schedule, SamplerConfig(n_steps=2))
        assert calls == [(list(range(8)), [step_t] * 8) for step_t, _ in step_times(2)]
        calls.clear()
        ce_baseline_proba(trained_scorer, y)
        assert calls == [(list(range(8)), [BASELINE_T] * 8)]

    def test_gathered_conditioning_matches_per_row(self, trained_scorer):
        """The K-row table at one t, gathered by anchor, equals the per-row computation.

        The conditioning runs in the parameters' float32.  A matmul over the
        K label rows and the same rows inside an n-row matmul may round
        differently (BLAS picks its kernel by row count), so the match is to
        float32 rounding, not to the bit: each entry sums time_embed_dim
        products and two table entries, and two orders of that sum differ by
        at most that many float32 epsilons of its absolute terms (16-row and
        600-row calls differed by up to 9.5e-7).  A wrong gather is off by O(1).
        """
        y, anchors, t = _shared_time_batch(600, 12)
        for tau in (t, 0.25):
            table, tf_k = trained_scorer.conditioning(np.arange(8), np.full(8, tau))
            cond_rows, _ = trained_scorer.conditioning(anchors, np.full(600, tau))
            assert table.dtype == cond_rows.dtype == np.float32
            params = trained_scorer.params
            terms = (np.abs(tf_k) @ np.abs(params["time_w"].T) + np.abs(params["time_b"])
                     + np.abs(params["embed"]))
            bound = (trained_scorer.cfg.time_embed_dim + 2) * np.finfo(np.float32).eps * terms
            assert np.all(np.abs(table[anchors] - cond_rows) <= bound[anchors])
            z_gather = trained_scorer.inference_logits(y, anchors, tau)
            z_rows, _ = trained_scorer.logits(y, anchors, np.full(600, tau))
            np.testing.assert_allclose(z_gather, z_rows, rtol=0, atol=1e-5)

    def test_in_place_forms_compute_the_training_arithmetic(self):
        """silu is silu_from_half at x / 2, keeping its 1 + tanh(x / 2), and the in-place
        _gn_forward reproduces the float64 GroupNorm formula, bit for bit."""
        rng = np.random.default_rng(14)
        x = 3.0 * rng.standard_normal((64, 32))
        gamma, beta = rng.standard_normal(32), rng.standard_normal(32)
        kept = np.empty_like(x)
        got = silu(x, kept)
        assert np.array_equal(got, silu_from_half(0.5 * x, np.empty_like(x)))
        assert np.array_equal(silu(x), got) and np.array_equal(kept, 1.0 + np.tanh(0.5 * x))
        np.testing.assert_allclose(got, x / (1.0 + np.exp(-x)), rtol=1e-14, atol=1e-15)
        xg = x.reshape(64, 4, 8)
        var = xg.var(axis=2, keepdims=True)
        xhat = ((xg - xg.mean(axis=2, keepdims=True)) / np.sqrt(var + GN_EPS)).reshape(64, 32)
        out, (cached_xhat, cached_var) = _gn_forward(x.copy(), gamma, beta, 4, np.empty_like(x))
        assert np.array_equal(out, gamma * xhat + beta)
        assert np.array_equal(cached_xhat, xhat) and np.array_equal(cached_var, var)

    def test_parameters_stay_float32_through_training(self):
        """The initial parameters, the fitted ones, the optimizer's buffers, and the
        parameters after a float64-feature step and a scoring call are all float32."""
        config = TrainConfig(epochs=1, batch_size=32, seed=0, embed_dim=16, hidden_dim=32,
                             n_blocks=2, time_embed_dim=16)
        task = MixtureTask.ring(4, 2)
        fresh = MlpScorer(config.mlp_config(4, 2), config.schedule(), seed=0)
        assert all(v.dtype == np.float32 for v in fresh.params.values())
        scorer, _ = fit(config, task, *fit_data(task, 128, 64, 0))
        assert all(v.dtype == np.float32 for v in scorer.params.values())
        rng = np.random.default_rng(15)
        opt = AdamState(scorer.params)
        assert all(a.dtype == np.float32
                   for a in (opt.flat, opt.grad, opt.m, opt.v, opt.best, opt.scratch))
        train_step(scorer, opt, rng.standard_normal((16, 2)),
                   rng.integers(0, 4, 16), config.schedule(), rng, lr=1e-3, grad_clip=1.0,
                   cross_entropy=False)
        scorer.score_batch(rng.standard_normal((16, 2)), rng.integers(0, 4, 16), 0.5)
        assert all(v.dtype == np.float32 for v in scorer.params.values())
        assert all(v.dtype == np.float32 for v in opt.grads.values())

    @pytest.mark.parametrize("name", ["in_w", "cw_0", "gn_g_1", "out_w", "embed"])
    def test_nonfinite_parameter_anywhere_raises(self, name):
        scorer = _small_scorer(head_scale=0.3)
        scorer.params[name].flat[0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            scorer.score_batch(np.ones((5, 3)), np.arange(5), 0.5)

    def test_out_of_range_anchor_rejected(self):
        """Anchors out of range, of the wrong type, or not one anchor per row; and in
        the training forward, not one time per row."""
        scorer = _small_scorer()
        with pytest.raises(ValidationError, match=r"\[0, 5\)"):
            scorer.score_batch(np.ones((2, 3)), np.array([0, 5]), 0.5)
        with pytest.raises(ValidationError, match="integer"):
            scorer.score_batch(np.ones((2, 3)), np.array([0.0, 1.0]), 0.5)
        y = np.ones((5, 3))
        for anchors in (np.arange(4), np.zeros(6, dtype=int), np.zeros((5, 1), dtype=int),
                        np.int64(0)):
            for rows in (y, scorer.prepare(y)):
                with pytest.raises(ValidationError, match="5 rows"):
                    scorer.score_batch(rows, anchors, 0.5)
        for t in (np.full(1, 0.5), np.full(6, 0.5), np.float64(0.5)):
            with pytest.raises(ValidationError, match="one time per row: 5 rows"):
                scorer.logits(y, np.arange(5), t)
        for features in (np.ones((5, 4)), np.ones(3), np.ones((5, 3, 1))):
            with pytest.raises(ValidationError, match="features"):
                scorer.score_batch(features, np.arange(5), 0.5)


class TestPreparedPath:
    def test_prepared_rows_score_like_raw_features_bit_for_bit(self, trained_scorer):
        y, anchors, _ = _shared_time_batch(2500, 16)
        prepared = trained_scorer.prepare(y)
        assert isinstance(prepared, PreparedFeatures) and len(prepared) == 2500
        assert prepared.base.dtype == np.float32
        for t in (0.625, 0.25):
            expected = trained_scorer.score_batch(y, anchors, t)
            assert np.array_equal(trained_scorer.score_batch(prepared, anchors, t), expected)
            # the prepared rows are not written to: a second call gives the same bits
            assert np.array_equal(trained_scorer.score_batch(prepared, anchors, t), expected)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 50_000), tile_rows=st.integers(1, 3000))
    def test_row_tiles_cover_the_rows_in_near_equal_tiles(self, n, tile_rows):
        """row_tiles covers range(n) in order with max(1, n // TILE_ROWS) tiles of at
        least min(n, TILE_ROWS) rows and fewer than 2 * TILE_ROWS each."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mlp, "TILE_ROWS", tile_rows)
            tiles = row_tiles(n)
        assert len(tiles) == max(1, n // tile_rows)
        assert tiles[0].start == 0 and tiles[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
        sizes = [tile.stop - tile.start for tile in tiles]
        assert min(sizes) >= min(n, tile_rows) and max(sizes) < 2 * tile_rows

    @pytest.mark.parametrize("tile_rows", [1, 7, mlp.TILE_ROWS])
    def test_tiled_logits_match_one_untiled_forward(self, trained_scorer, monkeypatch,
                                                    tile_rows):
        """Tiles of any size give the untiled float32 forward's logits to float32
        rounding, and repeat exactly.

        The inference form rounds differently from the training forward,
        and tiles under 1,000 rows may round differently from one call over
        every row (BLAS picks its kernel by row count), hence the tolerance.
        """
        y, anchors, t = _shared_time_batch(2500, 18)
        untiled, _ = trained_scorer.logits(y.astype(np.float32), anchors, np.full(2500, t))
        monkeypatch.setattr(mlp, "TILE_ROWS", tile_rows)
        tiled = trained_scorer.inference_logits(y, anchors, t)
        np.testing.assert_allclose(tiled, untiled, rtol=0, atol=1e-5)
        assert np.array_equal(tiled.argmax(axis=1), untiled.argmax(axis=1))
        assert tiled.tobytes() == trained_scorer.inference_logits(y, anchors, t).tobytes()

    @pytest.mark.parametrize("offset", [0.0, 4.0])
    def test_float32_groupnorm_statistics_match_float64_reductions(self, offset):
        rng = np.random.default_rng(17)
        x = (offset + 3.0 * rng.standard_normal((500, 128))).astype(np.float32)
        gamma = rng.standard_normal(128).astype(np.float32)
        beta = rng.standard_normal(128).astype(np.float32)
        out32, (xhat32, var32) = _gn_forward(x.copy(), gamma, beta, 8, np.empty_like(x))
        out64, xhat64, var64 = reference_groupnorm(x, gamma, beta, 8)
        assert out32.dtype == np.float32 and var32.shape == var64.shape
        for got, want in ((out32, out64), (xhat32, xhat64), (var32, var64)):
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("offset", [0.0, 4.0])
    def test_inference_groupnorm_matches_float64_groupnorm(self, offset):
        """Twice the half-scale output equals float64 GroupNorm to float32 rounding."""
        rng = np.random.default_rng(19)
        x = (offset + 3.0 * rng.standard_normal((500, 128))).astype(np.float32)
        gamma = rng.standard_normal(128).astype(np.float32)
        beta = rng.standard_normal(128).astype(np.float32)
        scale = _group_expand(128, 8, np.float32) * (0.5 * gamma)
        got = _inference_groupnorm(x.copy(), scale, 0.5 * beta, 8, np.empty_like(x))
        want, _, _ = reference_groupnorm(x, gamma, beta, 8)
        assert got.dtype == np.float32
        assert np.abs(2.0 * got - want).max() <= 1e-6 * np.abs(want).max()

    def test_silu_from_half_matches_float64_silu(self):
        """u * (1 + tanh u) at u = x / 2 is float32 SiLU to a few units in the last place.

        The bound is about two units in the last place of float32 x at
        |x| = 32 (one is 3.8e-6).  The tanh form is off by up to 1.4e-6 on
        these inputs, the exp form x / (1 + exp(-x)) by up to 1.3e-6.
        """
        rng = np.random.default_rng(26)
        x = np.concatenate([np.linspace(-40.0, 40.0, 400_001),
                            np.clip(4.0 * rng.standard_normal(1_000_000), -40.0, 40.0)])
        x = x.astype(np.float32)
        want = x.astype(np.float64) / (1.0 + np.exp(-x.astype(np.float64)))
        u = x / np.float32(2.0)
        got = silu_from_half(u, np.empty_like(u))
        assert got is u and got.dtype == np.float32
        assert np.abs(got - want).max() <= 8e-6

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(2, 6), dim=st.integers(1, 4), hidden=st.integers(4, 128),
           blocks=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_prepared_path_on_random_configs(self, k, dim, hidden, blocks, seed):
        """Reads are class distributions, and the float32 inference logits stay near those
        of the float64 training forward on float64 copies of the parameters, at each
        time in a call of its own."""
        cfg = MlpConfig(n_classes=k, feature_dim=dim, embed_dim=8, hidden_dim=hidden,
                        n_blocks=blocks, time_embed_dim=8)
        scorer = MlpScorer(cfg, SCHED, seed=seed)
        rng = np.random.default_rng(seed)
        scorer.params["out_w"] = (0.5 * rng.standard_normal((k, cfg.hidden_dim))).astype(np.float32)
        n = 40
        y = 2.0 * rng.standard_normal((n, dim))
        anchors = rng.integers(0, k, n)
        prepared = scorer.prepare(y)
        assert prepared.base.dtype == np.float32
        reference = _float64_reference(scorer)
        for t in (1.0, 0.5, 0.125):
            _assert_distributions(scorer.score_batch(prepared, anchors, t))
            z64, _ = reference.logits(y, anchors, np.full(n, t))
            assert np.abs(scorer.inference_logits(prepared, anchors, t) - z64).max() <= 1e-4


class TestReads:
    """A read runs inline, in the caller's work space when it gives one."""

    @pytest.mark.parametrize("tile_rows", [7, mlp.TILE_ROWS])
    def test_a_read_into_a_space_equals_one_without(self, trained_scorer, monkeypatch,
                                                    tile_rows):
        """score_batch into a work space of space_words(n) words gives the bits of a
        read without one, returns them as the space's first n * K words, and starts
        no thread; a prepared slice's first read fills the slice's rows only."""
        monkeypatch.setattr(mlp, "TILE_ROWS", tile_rows)
        y, anchors, t = _shared_time_batch(2500, 19)
        expected = trained_scorer.score_batch(y, anchors, t)
        threads = threading.active_count()
        space = np.full(trained_scorer.space_words(2500), np.nan)
        prepared = trained_scorer.prepare(y)
        head = prepared[:1200]
        got = trained_scorer.score_batch(head, anchors[:1200], t, space)
        assert np.shares_memory(got, space[:1200 * 8]) and got.shape == (1200, 8)
        assert np.array_equal(got, expected[:1200])
        assert head.pending is None and prepared.pending is not None
        got = trained_scorer.score_batch(prepared, anchors, t, space)
        assert np.array_equal(got, expected) and threading.active_count() == threads

    def test_first_reads_of_one_prepared_call_on_several_threads_agree(self, monkeypatch):
        """Four threads make the first reads of one prepare call's rows at once, at a
        1 us switch interval, each into its own space: each gets the bits of a lone
        read.  A change to the features after prepare changes no read."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        scorer = _small_scorer(head_scale=0.3)
        rng = np.random.default_rng(21)
        y, anchors = rng.standard_normal((300, 3)), rng.integers(0, 5, 300)
        expected = scorer.score_batch(y, anchors, 0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                features = y.copy()
                prepared = scorer.prepare(features)
                features[...] = 0.0
                start, got = threading.Barrier(4), [None] * 4

                def read(i):
                    start.wait()
                    got[i] = scorer.score_batch(prepared, anchors, 0.5,
                                                np.empty(scorer.space_words(300)))

                threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert all(np.array_equal(g, expected) for g in got)
        finally:
            sys.setswitchinterval(interval)

    def test_the_conditioning_is_built_once_per_time_and_prepare_call(self, monkeypatch):
        """Reads of any slices of one prepare call at one t build one table; a new t
        or a new prepare call builds another."""
        scorer = _small_scorer(head_scale=0.3)
        built = []
        conditioning = scorer.conditioning
        monkeypatch.setattr(scorer, "conditioning",
                            lambda a, t: built.append(float(t[0])) or conditioning(a, t))
        y, anchors = np.ones((40, 3)), np.arange(40) % 5
        prepared = scorer.prepare(y)
        for rows in (slice(0, 10), slice(10, 40), slice(0, 40)):
            scorer.score_batch(prepared[rows], anchors[rows], 0.5)
        scorer.score_batch(prepared, anchors, 0.25)
        scorer.score_batch(scorer.prepare(y), anchors, 0.5)
        assert built == [0.5, 0.25, 0.5]


def _grads_at(scorer, features, labels, seed):
    """Parameter gradients of one training batch, the noise drawn from seed."""
    _, grads = batch_loss_and_grads(scorer, features, labels, scorer.schedule,
                                    np.random.default_rng(seed))
    return grads


def _relative_gap(got, want):
    """Global-norm gap between two gradient dicts, relative to want's norm."""
    gap = np.sqrt(sum(np.sum((got[k] - want[k]) ** 2) for k in want))
    return gap / np.sqrt(sum(np.sum(v ** 2) for v in want.values()))


class TestMixedPrecisionTraining:
    """The training forward and backward run in the parameters' dtype: float32 gradients
    of float32 parameters stay near those of a float64 copy (_float64_reference)."""

    def test_float32_gradients_match_float64_on_the_reference_config(self, trained_scorer):
        rng = np.random.default_rng(20)
        y = (3.0 * rng.standard_normal((128, 2))).astype(np.float32)
        labels = rng.integers(0, 8, 128)
        g32 = _grads_at(trained_scorer, y, labels, seed=21)
        g64 = _grads_at(_float64_reference(trained_scorer), y, labels, seed=21)
        assert list(g32) == list(trained_scorer.params)
        assert all(v.dtype == np.float32 for v in g32.values())
        assert all(v.dtype == np.float64 for v in g64.values())
        assert _relative_gap(g32, g64) <= 1e-4

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(2, 6), dim=st.integers(1, 4), hidden=st.integers(4, 128),
           blocks=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_float32_gradients_on_random_configs(self, k, dim, hidden, blocks, seed):
        cfg = MlpConfig(n_classes=k, feature_dim=dim, embed_dim=8, hidden_dim=hidden,
                        n_blocks=blocks, time_embed_dim=8)
        scorer = MlpScorer(cfg, SCHED, seed=seed)
        rng = np.random.default_rng(seed)
        scorer.params["out_w"] = (0.5 * rng.standard_normal((k, cfg.hidden_dim))).astype(np.float32)
        y = (2.0 * rng.standard_normal((48, dim))).astype(np.float32)
        labels = rng.integers(0, k, 48)
        g32 = _grads_at(scorer, y, labels, seed)
        g64 = _grads_at(_float64_reference(scorer), y, labels, seed)
        assert all(v.dtype == np.float32 for v in g32.values())
        assert all(v.dtype == np.float64 for v in g64.values())
        assert _relative_gap(g32, g64) <= 1e-4

    @pytest.mark.parametrize("offset", [0.0, 4.0])
    def test_float32_groupnorm_backward_matches_float64_reductions(self, offset):
        rng = np.random.default_rng(22)
        x = (offset + 3.0 * rng.standard_normal((300, 128))).astype(np.float32)
        gamma = rng.standard_normal(128).astype(np.float32)
        dout = rng.standard_normal((300, 128)).astype(np.float32)
        _, cache32 = _gn_forward(x.copy(), gamma, np.zeros_like(gamma), 8, np.empty_like(x))
        got = _gn_backward(dout, gamma, cache32, 8, (np.empty_like(dout), np.empty_like(gamma),
                                                      np.empty_like(gamma), np.empty_like(dout)))
        want = reference_groupnorm_backward(dout, x, gamma, 8)
        for g, w in zip(got, want):
            assert g.dtype == np.float32 and g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-5 * np.abs(w).max()

    def test_the_forward_runs_in_the_parameters_dtype(self):
        """Float32 and float64 parameters each run the whole training forward in their
        own dtype, whatever the features' dtype, on the form inference_params builds,
        whose untouched entries are the master arrays; only the logits are float64."""
        rng = np.random.default_rng(23)
        y = rng.standard_normal((6, 3))
        anchors = rng.integers(0, 5, 6)
        for dtype in (np.float32, np.float64):
            scorer = _small_scorer(head_scale=0.3)
            if dtype == np.float64:
                scorer = in_float64(scorer)
            want = mlp.inference_params(scorer.params, SMALL, None)
            for features in (y, y.astype(np.float32)):
                z, cache = scorer.logits(features, anchors, rng.random(6))
                assert z.dtype == np.float64
                assert all(cache[k].dtype == dtype for k in ("features", "sc", "h_top", "tf"))
                q = cache["params"]
                assert q.keys() == want.keys()
                assert all(v.dtype == dtype and v.tobytes() == want[k].tobytes()
                           for k, v in q.items())
                assert all(q[k] is scorer.params[k] for k in ("w2_0", "cw_1", "out_w", "out_b"))


class TestGradients:
    def test_param_grads_match_finite_differences(self):
        """Backprop through head, blocks, group norm, and embeddings vs central FD."""
        scorer = in_float64(_small_scorer(head_scale=0.3))
        rng = np.random.default_rng(5)
        n = 6
        y = rng.standard_normal((n, 3))
        anchors = rng.integers(0, 5, n)
        t = rng.random(n)
        target = rng.standard_normal((n, 5))

        def objective():
            z, cache = scorer.logits(y, anchors, t)
            return float(np.sum(np.sin(z) * target)), cache

        _, cache = objective()
        z, _ = scorer.logits(y, anchors, t)
        grads = scorer.param_grads(np.cos(z) * target, cache)
        h = 1e-6
        for name in scorer.params:
            arr = scorer.params[name]
            for _ in range(3):
                idx = tuple(int(rng.integers(s)) for s in arr.shape)
                arr[idx] += h
                up, _ = objective()
                arr[idx] -= 2 * h
                down, _ = objective()
                arr[idx] += h
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(grads[name][idx]), 1e-7)
                assert abs(fd - grads[name][idx]) / denom < 1e-5, name


class TestReferenceForward:
    """Both forwards and the gradients against tests/oracles.reference_logits, a plain
    float64 forward on the master parameters: a mistake in folding the master parameters
    into the inference form, shared by the forward and the backward, shows here."""

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(2, 6), dim=st.integers(1, 4), hidden=st.integers(4, 128),
           blocks=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_forwards_and_gradients_match_the_reference(self, k, dim, hidden, blocks, seed):
        cfg = MlpConfig(n_classes=k, feature_dim=dim, embed_dim=8, hidden_dim=hidden,
                        n_blocks=blocks, time_embed_dim=8)
        scorer = in_float64(MlpScorer(cfg, SCHED, seed=seed))
        rng = np.random.default_rng(seed)
        # Every entry off its initial value, so b2, the biases, the GroupNorm shifts and
        # the head all reach the logits.
        for v in scorer.params.values():
            v += 0.3 * rng.standard_normal(v.shape)
        n = 12
        y = rng.standard_normal((n, dim))
        anchors = rng.integers(0, k, n)
        t = rng.random(n)
        want = reference_logits(scorer.params, cfg, y, anchors, t, SCHED)
        scale = max(1.0, np.abs(want).max())
        z, cache = scorer.logits(y, anchors, t)
        assert np.abs(z - want).max() <= 1e-12 * scale
        got = _per_time(scorer.inference_logits, y, anchors, t)
        assert np.abs(got - want).max() <= 1e-5 * scale

        target = rng.standard_normal((n, k))
        grads = scorer.param_grads(np.cos(z) * target, cache)

        def objective():
            return np.sum(np.sin(reference_logits(scorer.params, cfg, y, anchors, t, SCHED))
                          * target)

        def slope(arr, direction, h):
            """Central difference of the oracle's objective along direction in arr."""
            arr += h * direction
            up = objective()
            arr -= 2 * h * direction
            down = objective()
            arr += h * direction
            return (up - down) / (2 * h)

        # A group's variance can be near zero, where the objective
        # bends too sharply for any one step: each difference is allowed its own
        # truncation error, twice its gap to the difference at the doubled step.
        # Over 1,200 random configs the worst error was 0.4 of this bound, and a
        # doubled b2 gradient broke it wherever b2 reached the logits.
        for name, arr in scorer.params.items():
            direction = rng.standard_normal(arr.shape)
            fd, fd_wide = slope(arr, direction, 1e-5), slope(arr, direction, 2e-5)
            analytic = float(np.sum(grads[name] * direction))
            bound = 1e-5 * max(abs(fd), abs(analytic), 1e-4) + 2 * abs(fd - fd_wide)
            assert abs(fd - analytic) <= bound, name


class TestBackwardReuse:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_slope_from_the_kept_output_matches_a_fresh_exp(self, dtype):
        """The slope in u is t + s * (2 - t) from silu_from_half's output s and its
        t = 1 + tanh u, bit for bit, and 2 * silu'(2u) from a fresh exp to rounding.

        t carries tanh's absolute rounding, which s = u * t scales by |u|, so
        the bound is 8 units in the last place of 1 + |u|; over 100,000
        draws at four seeds the gap was at most 1.6 such units in float32
        and 3.4 in float64, where the float64 oracle rounds as much.
        """
        u = (2.0 * np.random.default_rng(24).standard_normal(10_000)).astype(dtype)
        t = np.empty_like(u)
        s = silu_from_half(u.copy(), t)
        slope = _silu_slope(s, t, np.empty_like(s))
        assert slope.dtype == dtype and slope.tobytes() == (t + s * (2 - t)).tobytes()
        want = 2.0 * silu_grad(2.0 * u.astype(np.float64))
        assert np.all(np.abs(slope - want) <= 8 * np.finfo(dtype).eps * (1.0 + np.abs(u)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embedding_gradient_is_the_scatter_add_over_the_anchors(self, dtype):
        """The one-hot matmul, in the parameters' dtype, equals a float64 np.add.at of
        dL/dcond over the anchors to that dtype's summation rounding: n terms, each
        product exact, sum to within n epsilons of their absolute sum.  A label no
        anchor holds gets exactly zero."""
        rng = np.random.default_rng(25)
        for k in (2, 5, 13):
            cfg = MlpConfig(n_classes=k, feature_dim=3, embed_dim=8, hidden_dim=16,
                            n_blocks=2, time_embed_dim=8)
            scorer = MlpScorer(cfg, SCHED, seed=k)
            scorer.params["out_w"] = (0.5 * rng.standard_normal((k, 16))).astype(np.float32)
            if dtype == np.float64:
                scorer = in_float64(scorer)
            for n in (1, 7, 64, 300):
                y = rng.standard_normal((n, 3))
                anchors = rng.integers(0, k, n)
                _, cache = scorer.logits(y, anchors, rng.random(n))
                dz = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-6, 2, (n, 1))
                dz[rng.random(n) < 0.2] = -0.0
                out = {name: np.empty_like(v) for name, v in scorer.params.items()}
                dcond = backward_logits(cache["params"], cfg, dz, cache, out).astype(np.float64)
                want, scale = np.zeros((k, 8)), np.zeros((k, 8))
                np.add.at(want, anchors, dcond)
                np.add.at(scale, anchors, np.abs(dcond))
                got = scorer.param_grads(dz, cache)["embed"]
                assert got.dtype == dtype
                assert np.all(np.abs(got - want) <= n * np.finfo(dtype).eps * scale), (k, n)
                assert not got[np.bincount(anchors, minlength=k) == 0].any()


class TestCeBaseline:
    """The cross-entropy baseline: the scorer read at (BASELINE_ANCHOR, BASELINE_T)."""

    def test_gradients_match_finite_differences(self):
        """Float64 features and parameters keep the whole path float64, so central
        differences of the loss check every parameter group, the conditioning's among them."""
        scorer = in_float64(_small_scorer(seed=1, head_scale=0.5))
        rng = np.random.default_rng(6)
        y = rng.standard_normal((8, 3))
        labels = rng.integers(0, 5, 8)
        _, grads = cross_entropy_loss_and_grads(scorer, y, labels)
        assert not grads["embed"][1:].any()     # only the baseline's anchor row is read
        h = 1e-6
        for name in ("embed", "time_w", "time_b", "cw_0", "cb_1", "b2_0", "cw_1",
                     "in_w", "w1_0", "gn_g_1", "gn_b_0", "out_w", "out_b"):
            arr = scorer.params[name]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            if name == "embed":
                idx = (0, idx[1])
            arr[idx] += h
            up = cross_entropy_loss_and_grads(scorer, y, labels)[0].total
            arr[idx] -= 2 * h
            down = cross_entropy_loss_and_grads(scorer, y, labels)[0].total
            arr[idx] += h
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(grads[name][idx]), 1e-7)
            assert abs(fd - grads[name][idx]) / denom < 1e-5, name

    def test_probabilities_on_simplex(self):
        scorer = _small_scorer(seed=2, head_scale=0.5)
        probs = ce_baseline_proba(scorer, np.random.default_rng(7).standard_normal((10, 3)))
        assert probs.shape == (10, 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() > 0.0

    def test_training_starts_from_zero_conditioning_projections(self):
        """At a zero learning rate the trained baseline is its initial network,
        whose blocks add no conditioning offset."""
        config = TrainConfig(epochs=1, batch_size=64, learning_rate=0.0, seed=4, embed_dim=16,
                             hidden_dim=32, n_blocks=2, time_embed_dim=16)
        rng = np.random.default_rng(9)
        data = (rng.standard_normal((100, 3)), rng.integers(0, 5, 100))
        scorer, _ = fit(config, MixtureTask(np.eye(5, 3)), data, cross_entropy=True)
        assert not scorer.params["cw_0"].any() and not scorer.params["cw_1"].any()
        assert scorer.params["w1_0"].any()

    def test_prediction_keeps_no_backprop_cache(self):
        """Predicting 2,000 rows of a reference-size baseline runs the inference
        path; the training forward's float32 backprop cache would take ~20 MiB."""
        scorer = MlpScorer(MlpConfig(8, 2), SCHED, seed=3)
        y = np.random.default_rng(8).standard_normal((2000, 2))
        ce_baseline_proba(scorer, y[:10])       # warm the lru caches outside the trace
        tracemalloc.start()
        try:
            ce_baseline_proba(scorer, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak / 2**20


FIXTURES = Path(__file__).parent / "checkpoints"


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        scorer = _small_scorer(head_scale=0.5)
        path1 = str(tmp_path / "a.ckpt")
        path2 = str(tmp_path / "b.ckpt")
        scorer.save(path1)
        reloaded = MlpScorer.load(path1)
        reloaded.save(path2)
        assert Path(path1).read_bytes() == Path(path2).read_bytes()
        assert reloaded.cfg == scorer.cfg
        assert reloaded.schedule == scorer.schedule

    def test_loaded_scorer_reproduces_outputs(self, tmp_path):
        scorer = _small_scorer(head_scale=0.5)
        path = str(tmp_path / "m.ckpt")
        scorer.save(path)
        a = MlpScorer.load(path)
        b = MlpScorer.load(path)
        y = np.random.default_rng(8).standard_normal((5, 3))
        anchors = np.array([0, 1, 2, 3, 4])
        assert np.array_equal(a.score_batch(y, anchors, 0.7), b.score_batch(y, anchors, 0.7))

    def test_sidecar_metadata_written(self, tmp_path):
        scorer = _small_scorer()
        path = str(tmp_path / "m.ckpt")
        scorer.save(path)
        meta = Path(path + ".meta").read_text(encoding="utf-8")
        assert meta.startswith("format=scorer-checkpoint\nformat_version=2\n")
        assert "n_classes=5" in meta and "hidden_dim=32" in meta
        assert "sigma_bar_max=1.0" in meta

    def test_truncated_or_padded_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        _small_scorer(head_scale=0.5).save(str(path))
        blob = path.read_bytes()
        for cut in [*range(0, len(blob), 97), len(blob) - 1]:
            path.write_bytes(blob[:cut])
            with pytest.raises(ValidationError):
                load_params(str(path))
        path.write_bytes(blob + b"\x00")
        with pytest.raises(ValidationError):
            load_params(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        """The .meta's format entries take the place of a magic number: a file whose
        header is a dataset's is no checkpoint, even at the right length."""
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(ValidationError, match="the header file is missing"):
            load_params(str(path))
        save_dataset(str(tmp_path / "d"), np.zeros((3, 2)), np.arange(3), MixtureTask(np.eye(3, 2)),
                     CorruptionSpec(), seed=0)
        os.replace(tmp_path / "d.meta", str(path) + ".meta")
        with pytest.raises(ValidationError, match="format=None, format_version=None"):
            load_params(str(path))


class TestFormatFixtures:
    """tests/checkpoints holds one 1-epoch run (K=3, hidden 16, 1 block) in both formats
    (see its README): v1.ckpt as the version-1 writer saved it, v2.ckpt as save_params
    does.  They pin the format: a change to it shows here."""

    def test_version_1_file_is_rejected_naming_its_version(self):
        with pytest.raises(ValidationError,
                           match=r"v1\.ckpt\.meta: format=None, format_version=1;"):
            load_params(str(FIXTURES / "v1.ckpt"))

    def test_version_2_file_loads_and_saves_to_the_same_bytes(self, tmp_path):
        params, cfg, schedule = load_params(str(FIXTURES / "v2.ckpt"))
        assert cfg == MlpConfig(3, 2, hidden_dim=16, n_blocks=1) and cfg.groups == 4
        assert schedule == LogLinearSchedule(0.6, 0.7)
        path = str(tmp_path / "again.ckpt")
        mlp.save_params(path, params, cfg, schedule)
        for suffix in ("", ".meta"):
            assert (Path(path + suffix).read_bytes()
                    == (FIXTURES / f"v2.ckpt{suffix}").read_bytes()), suffix

    def test_version_2_file_holds_the_arrays_of_version_1(self):
        """Each array the v2 file loads is in the v1 file of the same run, after its
        name, ndim (u8) and dims (u32 each), as version 1 laid arrays out."""
        params, _, _ = load_params(str(FIXTURES / "v2.ckpt"))
        v1 = (FIXTURES / "v1.ckpt").read_bytes()
        for name, value in params.items():
            record = (name.encode() + bytes([value.ndim]) + np.array(value.shape, "<u4").tobytes()
                      + value.astype("<f4").tobytes())
            assert record in v1, name


def _n_parameters(cfg: MlpConfig) -> int:
    """The parameter count in closed form, from the shapes the network documents."""
    k, f, d, h, dt = (cfg.n_classes, cfg.feature_dim, cfg.embed_dim, cfg.hidden_dim,
                      cfg.time_embed_dim)
    return k * d + d * dt + d + h * f + h + cfg.n_blocks * (2 * h * h + 5 * h + h * d) + k * h + k


@st.composite
def _models(draw):
    """A small random MlpConfig and schedule."""
    cfg = MlpConfig(draw(st.integers(2, 6)), draw(st.integers(1, 4)),
                    embed_dim=draw(st.integers(1, 8)), hidden_dim=draw(st.integers(4, 36)),
                    n_blocks=draw(st.integers(1, 3)),
                    time_embed_dim=2 * draw(st.integers(1, 4)))
    schedule = LogLinearSchedule(draw(st.floats(1e-3, 10.0)), draw(st.floats(1e-3, 0.999)))
    return cfg, schedule


def _saved(tmp_path, cfg, schedule, seed):
    """A checkpoint of random values for cfg and schedule: (params, path)."""
    rng = np.random.default_rng(seed)
    params = {name: rng.standard_normal(shape) for name, shape in param_shapes(cfg).items()}
    path = str(tmp_path / "m.ckpt")
    mlp.save_params(path, params, cfg, schedule)
    return params, path


class TestCheckpointProperties:
    @settings(max_examples=100, deadline=None)
    @given(model=_models(), seed=st.integers(0, 2**16))
    def test_round_trip_keeps_the_float32_values_cfg_and_schedule(self, tmp_path_factory, model,
                                                                  seed):
        cfg, schedule = model
        params, path = _saved(tmp_path_factory.mktemp("ckpt"), cfg, schedule, seed)
        assert os.path.getsize(path) == 4 * _n_parameters(cfg)
        loaded, cfg2, schedule2 = load_params(path)
        assert (cfg2, schedule2) == (cfg, schedule)
        assert loaded.keys() == params.keys()
        for name, value in params.items():
            assert loaded[name].dtype == np.float32
            assert np.array_equal(loaded[name], value.astype(np.float32)), name

    @settings(max_examples=100, deadline=None)
    @given(model=_models(), key=st.sampled_from(["n_classes", "hidden_dim", "n_blocks"]),
           value=st.integers(1, 8) | st.just(10**9))
    def test_a_meta_of_another_model_names_both_byte_counts(self, tmp_path_factory, model, key,
                                                            value):
        """Also at a block count of 10**9, whose shape table the loader must not build:
        param_shapes is patched to fail above both 2 blocks and the saved model's."""
        cfg, schedule = model
        value *= 4 if key == "hidden_dim" else 1
        assume(value != getattr(cfg, key) and (key != "n_classes" or value >= 2))
        _, path = _saved(tmp_path_factory.mktemp("ckpt"), cfg, schedule, 0)
        meta = Path(path + ".meta").read_text(encoding="utf-8")
        Path(path + ".meta").write_text(
            meta.replace(f"\n{key}={getattr(cfg, key)}\n", f"\n{key}={value}\n"), encoding="utf-8")
        other = replace(cfg, **{key: value})
        shapes = mlp.param_shapes

        def small_tables_only(c):
            assert c.n_blocks <= max(2, cfg.n_blocks), "built a large block count's shape table"
            return shapes(c)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mlp, "param_shapes", small_tables_only)
            with pytest.raises(ValidationError) as info:
                load_params(path)
        message = str(info.value)
        assert message.startswith(f"{path}: {4 * _n_parameters(cfg)} bytes, "), message
        assert f"describes {4 * _n_parameters(other)} bytes" in message, message


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """(scorer, checkpoint bytes, .meta bytes, path for altered copies)."""
    scorer = _small_scorer(head_scale=0.5)
    path = str(tmp_path_factory.mktemp("checkpoint") / "m.ckpt")
    scorer.save(path)
    with open(path, "rb") as fh, open(path + ".meta", "rb") as meta:
        return scorer, fh.read(), meta.read(), path


def _altered(blob: bytes, cut: int | None, edits: list[tuple[int, int]]) -> bytes:
    """blob cut to its first cut bytes, or with byte i set to v for each (i, v) in edits."""
    if cut is not None:
        return blob[:cut % len(blob)]
    out = bytearray(blob)
    for i, v in edits:
        out[i % len(out)] = v
    return bytes(out)


def _with_values(meta: bytes, values: list[tuple[int, str]]) -> bytes:
    """meta with the value of line i set to v for each (i, v) in values."""
    lines = meta.split(b"\n")
    for i, v in values:
        key = lines[i % len(lines)].partition(b"=")[0]
        lines[i % len(lines)] = key + b"=" + v.encode()
    return b"\n".join(lines)


# Byte edits land in the binary or the .meta (in_meta); value edits set .meta entries to
# values either side of the valid ones, and can come with edits to the binary.
ALTERATIONS = dict(
    in_meta=st.booleans(),
    cut=st.none() | st.integers(0, 2**16),
    edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=3),
    values=st.lists(st.tuples(st.integers(0, 15), st.sampled_from(
        ["0", "1", "2", "4", "16", "-1", "1000000000", "0.5", "1e9", "nan", "inf", "", "x",
         "scorer-checkpoint"])), max_size=2),
)


class TestLoaderProperties:
    @settings(max_examples=300, deadline=None)
    @given(**ALTERATIONS)
    def test_altered_checkpoint_loads_or_raises_validation_error(
            self, saved_checkpoint, in_meta, cut, edits, values):
        scorer, blob, meta, path = saved_checkpoint
        new_blob = blob if in_meta else _altered(blob, cut, edits)
        new_meta = _with_values(_altered(meta, cut, edits) if in_meta else meta, values)
        with open(path, "wb") as fh, open(path + ".meta", "wb") as fh_meta:
            fh.write(new_blob)
            fh_meta.write(new_meta)
        try:
            params, cfg, schedule = load_params(path)
        except ValidationError:
            assert (new_blob, new_meta) != (blob, meta)
            return
        assert cut is None or in_meta               # a cut checkpoint never loads
        assert {k: v.shape for k, v in params.items()} == param_shapes(cfg)
        assert all(np.all(np.isfinite(v)) for v in params.values())
        if (new_blob, new_meta) == (blob, meta):
            assert (cfg, schedule) == (scorer.cfg, scorer.schedule)
            for name, value in scorer.params.items():
                assert np.array_equal(params[name], value.astype(np.float32)), name


class TestConfigValidation:
    def test_derived_groups_are_the_most_of_at_least_four_units_up_to_eight(self):
        """For every width from 4 to 512 the group count divides the width, leaves each
        group at least 4 units, and is the largest such count up to 8 (brute force)."""
        for hidden in range(4, 513):
            groups = MlpConfig(n_classes=3, feature_dim=2, hidden_dim=hidden).groups
            assert hidden % groups == 0 and hidden // groups >= 4, hidden
            assert groups == max(g for g in range(1, 9) if hidden % g == 0 and hidden // g >= 4)

    def test_at_least_one_block(self):
        with pytest.raises(ValidationError):
            MlpConfig(n_classes=3, feature_dim=2, n_blocks=0)

    @settings(max_examples=300, deadline=None)
    @given(hidden=st.integers(1, 512))
    def test_built_configs_have_groups_of_at_least_four_units(self, hidden):
        """TrainConfig.mlp_config gives every GroupNorm group at least 4 units or raises
        naming hidden_dim; a width of 32 or more divisible by 8 gets 8 groups."""
        eight = hidden >= 32 and hidden % 8 == 0
        try:
            cfg = TrainConfig(hidden_dim=hidden).mlp_config(4, 2)
        except ValidationError as exc:
            assert "hidden_dim" in str(exc) and not eight
            return
        assert cfg.hidden_dim % cfg.groups == 0 and cfg.hidden_dim // cfg.groups >= 4
        assert cfg.groups == 8 or not eight

    @settings(max_examples=300, deadline=None)
    @given(hidden=st.integers(4, 4096))
    def test_default_groups_accept_every_width_of_at_least_four(self, hidden):
        """Every width of at least 4 builds a config, on the most groups of at least 4
        units, up to 8, that divide it."""
        groups = TrainConfig(hidden_dim=hidden).mlp_config(4, 2).groups
        assert hidden % groups == 0 and hidden // groups >= 4
        assert not any(hidden % more == 0 for more in range(groups + 1, min(8, hidden // 4) + 1))
