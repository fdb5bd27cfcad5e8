"""Scorer network: output contract, gradients vs finite differences, serialization."""

import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffclass import mlp
from diffclass.data import MixtureTask
from diffclass.errors import NumericalError, ValidationError
from diffclass.mlp import (GN_EPS, MlpConfig, MlpScorer, PreparedFeatures,
                           _gn_backward, _gn_forward, _group_expand, _inference_groupnorm,
                           _silu_slope, backward_logits, load_params, param_shapes, row_tiles,
                           silu, silu_from_half)
from diffclass.schedule import LogLinearSchedule
from diffclass.train import (AdamState, TrainConfig, batch_loss_and_grads, ce_baseline_proba,
                             cross_entropy_loss_and_grads, fit, fit_without_validation,
                             train_step)
from oracles import (reference_groupnorm, reference_groupnorm_backward, reference_logits,
                     score_column, silu_grad)

SMALL = MlpConfig(n_classes=5, feature_dim=3, embed_dim=16, hidden_dim=32,
                  n_blocks=2, time_embed_dim=16, groups=4)
SCHED = LogLinearSchedule(1.0, 0.5)


def _small_scorer(seed=0, head_scale=0.0):
    scorer = MlpScorer(SMALL, SCHED, seed=seed)
    if head_scale:
        rng = np.random.default_rng(seed + 100)
        scorer.params["out_w"] = head_scale * rng.standard_normal(scorer.params["out_w"].shape)
        scorer.params["out_b"] = head_scale * rng.standard_normal(scorer.params["out_b"].shape)
    return scorer


class TestOutputContract:
    def test_anchor_entry_exactly_one(self):
        scorer = _small_scorer(head_scale=0.5)
        rng = np.random.default_rng(1)
        y = rng.standard_normal((20, 3))
        anchors = rng.integers(0, 5, 20)
        t = rng.random(20)
        values = scorer.score_batch(y, anchors, t)
        assert np.all(values[np.arange(20), anchors] == 1.0)
        assert np.all(values > 0.0)

    def test_zero_head_gives_all_ones(self):
        scorer = _small_scorer()  # head is zero-initialized
        values = scorer.score_batch(np.ones((4, 3)), np.array([0, 1, 2, 3]), np.full(4, 0.3))
        np.testing.assert_allclose(values, 1.0, atol=1e-15)

    def test_logit_shift_invariance(self):
        """Adding a constant to every output logit leaves the scores unchanged."""
        scorer = _small_scorer(head_scale=0.4)
        y = np.random.default_rng(2).standard_normal((6, 3))
        anchors = np.array([0, 1, 2, 3, 4, 0])
        t = np.full(6, 0.5)
        before = scorer.score_batch(y, anchors, t)
        scorer.params["out_b"] = scorer.params["out_b"] + 3.7
        after = scorer.score_batch(y, anchors, t)
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_deterministic(self):
        scorer = _small_scorer(head_scale=0.3)
        y = np.random.default_rng(3).standard_normal((8, 3))
        a = scorer.score_batch(y, np.zeros(8, dtype=int), np.full(8, 0.2))
        b = scorer.score_batch(y, np.zeros(8, dtype=int), np.full(8, 0.2))
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
            scorer.score_batch(np.ones((2, 3)), np.array([0, 1]), np.array([0.1, 0.2]))


@pytest.fixture(scope="module")
def trained_scorer():
    """Reference-size scorer (K=8, hidden 128, 3 blocks) after one short epoch."""
    scorer, _ = fit(TrainConfig(epochs=1, seed=0), MixtureTask.ring(8, 2),
                    n_train=4096, n_eval=256)
    return scorer


def _shared_time_batch(n, seed):
    """Inputs as one cp step sees them: every row at one t, anchors over all K."""
    rng = np.random.default_rng(seed)
    return 3.0 * rng.standard_normal((n, 2)), rng.integers(0, 8, n), np.full(n, 0.625)


def _distinct_pairs(anchors, t):
    """(first row, row -> pair index) of the distinct (anchor, t) pairs."""
    _, first, index = np.unique(np.stack([t, anchors]), axis=1,
                                return_index=True, return_inverse=True)
    return first, index.ravel()


class TestInferencePath:
    def test_float32_trunk_matches_float64_forward(self, trained_scorer):
        rng = np.random.default_rng(10)
        n = 4000
        y = 3.0 * rng.standard_normal((n, 2))
        anchors = rng.integers(0, 8, n)
        t = rng.choice(np.linspace(1.0, 0.125, 8), n)
        z64, _ = trained_scorer.logits(y, anchors, t)
        z32 = trained_scorer.inference_logits(y, anchors, t)
        assert z32.dtype == np.float64
        assert np.abs(z32 - z64).max() <= 1e-5
        assert np.array_equal(z32.argmax(axis=1), z64.argmax(axis=1))

    def test_conditioning_runs_once_per_distinct_pair(self, trained_scorer, monkeypatch):
        rows_seen = []
        original = trained_scorer.conditioning

        def spy(anchors, t):
            rows_seen.append(len(anchors))
            return original(anchors, t)

        monkeypatch.setattr(trained_scorer, "conditioning", spy)
        trained_scorer.score_batch(*_shared_time_batch(1000, 11))
        assert rows_seen == [8]

    @pytest.mark.parametrize("labels", [[3], [0, 7], [1, 2, 5, 6], list(range(8))])
    def test_shared_time_pairs_match_the_sorted_pairs(self, trained_scorer, labels):
        """At one shared t the presence mask finds the pairs, in the order and
        with the row indices that sorting gives."""
        anchors = np.random.default_rng(len(labels)).choice(labels, 300)
        t = np.full(300, 0.625)
        first, index = _distinct_pairs(anchors, t)
        pair_anchors, pair_t, got_index = trained_scorer._distinct_pairs(anchors, t)
        assert np.array_equal(pair_anchors, anchors[first]) and np.array_equal(pair_t, t[first])
        assert np.array_equal(got_index, index)

    def test_gathered_conditioning_matches_per_row(self, trained_scorer):
        """Distinct rows gathered per row equal the per-row computation.

        A matmul over the few distinct rows and the same rows inside an n-row
        matmul may round differently (BLAS picks its kernel by row count), so
        the match is to rounding, not to the bit; a wrong gather is off by O(1).
        """
        y, anchors, t = _shared_time_batch(600, 12)
        t[::3] = 0.25
        first, index = _distinct_pairs(anchors, t)
        assert len(first) == 16
        cond_u, _ = trained_scorer.conditioning(anchors[first], t[first])
        cond_rows, _ = trained_scorer.conditioning(anchors, t)
        np.testing.assert_allclose(cond_u[index], cond_rows, rtol=0, atol=1e-13)
        z_gather = trained_scorer.inference_logits(y, anchors, t)
        z_rows, _ = trained_scorer.logits(y.astype(np.float32), anchors, t)
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
        out, (cached_xhat, cached_var) = _gn_forward(x.copy(), gamma, beta, 4)
        assert np.array_equal(out, gamma * xhat + beta)
        assert np.array_equal(cached_xhat, xhat) and np.array_equal(cached_var, var)

    def test_parameters_stay_float64_through_training(self):
        config = TrainConfig(epochs=1, batch_size=32, seed=0, embed_dim=16, hidden_dim=32,
                             n_blocks=2, time_embed_dim=16, groups=4)
        task = MixtureTask.ring(4, 2)
        scorer, _ = fit(config, task, n_train=128, n_eval=64)
        assert all(v.dtype == np.float64 for v in scorer.params.values())
        rng = np.random.default_rng(15)
        train_step(scorer, AdamState(scorer.params), rng.standard_normal((16, 2)),
                   rng.integers(0, 4, 16), config.schedule(), rng, lr=1e-3)
        scorer.score_batch(rng.standard_normal((16, 2)), rng.integers(0, 4, 16), np.full(16, 0.5))
        assert all(v.dtype == np.float64 for v in scorer.params.values())

    @pytest.mark.parametrize("name", ["in_w", "cw_0", "gn_g_1", "out_w", "embed"])
    def test_nonfinite_parameter_anywhere_raises(self, name):
        scorer = _small_scorer(head_scale=0.3)
        scorer.params[name].flat[0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            scorer.score_batch(np.ones((5, 3)), np.arange(5), np.full(5, 0.5))

    def test_out_of_range_anchor_rejected(self):
        """Anchors out of range, of the wrong type, or not one anchor and one t per row."""
        scorer = _small_scorer()
        with pytest.raises(ValidationError, match=r"\[0, 5\)"):
            scorer.score_batch(np.ones((2, 3)), np.array([0, 5]), np.full(2, 0.5))
        with pytest.raises(ValidationError, match="integer"):
            scorer.score_batch(np.ones((2, 3)), np.array([0.0, 1.0]), np.full(2, 0.5))
        y = np.ones((5, 3))
        for anchors, t in ((np.arange(5), np.full(1, 0.5)),      # once broadcast
                           (np.arange(4), np.full(5, 0.5)),
                           (np.zeros(6, dtype=int), np.full(5, 0.5)),
                           (np.arange(5), np.full(6, 0.5)),
                           (np.zeros((5, 1), dtype=int), np.full(5, 0.5)),
                           (np.int64(0), np.float64(0.5))):
            for rows in (y, scorer.prepare(y)):
                with pytest.raises(ValidationError, match="5 rows"):
                    scorer.score_batch(rows, anchors, t)
        for features in (np.ones((5, 4)), np.ones(3), np.ones((5, 3, 1))):
            with pytest.raises(ValidationError, match="features"):
                scorer.score_batch(features, np.arange(5), np.full(5, 0.5))


class TestPreparedPath:
    def test_prepared_rows_score_like_raw_features_bit_for_bit(self, trained_scorer):
        y, anchors, t = _shared_time_batch(2500, 16)
        t[::2] = 0.25
        prepared = trained_scorer.prepare(y)
        assert isinstance(prepared, PreparedFeatures) and len(prepared) == 2500
        assert prepared.base.dtype == np.float32
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
        t[::3] = 0.25
        untiled, _ = trained_scorer.logits(y.astype(np.float32), anchors, t)
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
        out32, (xhat32, var32) = _gn_forward(x.copy(), gamma, beta, 8)
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
    @given(k=st.integers(2, 6), dim=st.integers(1, 4), groups=st.sampled_from([1, 2, 4, 8]),
           group_size=st.sampled_from([4, 8, 16]), blocks=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_prepared_path_on_random_configs(self, k, dim, groups, group_size, blocks, seed):
        """Scores keep their contract and the float32 inference logits stay near float64's."""
        cfg = MlpConfig(n_classes=k, feature_dim=dim, embed_dim=8,
                        hidden_dim=groups * group_size, n_blocks=blocks, time_embed_dim=8,
                        groups=groups)
        scorer = MlpScorer(cfg, SCHED, seed=seed)
        rng = np.random.default_rng(seed)
        scorer.params["out_w"] = 0.5 * rng.standard_normal((k, cfg.hidden_dim))
        n = 40
        y = 2.0 * rng.standard_normal((n, dim))
        anchors = rng.integers(0, k, n)
        t = rng.choice([1.0, 0.5, 0.125], n)
        prepared = scorer.prepare(y)
        assert prepared.base.dtype == np.float32
        values = scorer.score_batch(prepared, anchors, t)
        assert np.all(np.isfinite(values)) and np.all(values > 0.0)
        assert np.all(values[np.arange(n), anchors] == 1.0)
        z64, _ = scorer.logits(y, anchors, t)
        assert np.abs(scorer.inference_logits(prepared, anchors, t) - z64).max() <= 1e-4


def _on_pool_thread() -> bool:
    return threading.current_thread().name.startswith("diffclass-tiles")


@pytest.fixture
def set_workers(monkeypatch):
    """set_workers(n) sets mlp.WORKERS to n and drops the pool, so the next
    multi-tile call starts a pool of n - 1 threads (the pool keeps the size it
    started with); a dropped pool, and the last one after the test, is shut down."""
    monkeypatch.setattr(mlp, "_pool", None)

    def set_to(n):
        if mlp._pool is not None:
            mlp._pool.shutdown()
        monkeypatch.setattr(mlp, "WORKERS", n)
        mlp._pool = None

    yield set_to
    if mlp._pool is not None:
        mlp._pool.shutdown()


class TestWorkers:
    """Row tiles shared through one queue by the calling thread and the pool (_run_workers)."""

    @pytest.mark.parametrize("tile_rows", [7, mlp.TILE_ROWS])
    def test_logits_do_not_depend_on_the_worker_count(self, trained_scorer, monkeypatch,
                                                      set_workers, tile_rows):
        y, anchors, t = _shared_time_batch(3500, 19)
        t[::3] = 0.25
        monkeypatch.setattr(mlp, "TILE_ROWS", tile_rows)
        assert len(row_tiles(len(y))) >= 3
        runs = []
        for workers in (1, 2, 3):
            set_workers(workers)
            prepared = trained_scorer.prepare(y)
            runs.append((prepared.base.tobytes(),
                         trained_scorer.inference_logits(prepared, anchors, t).tobytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_workers_keep_the_callers_errstate(self, monkeypatch):
        """A multi-worker call on non-finite parameters raises NumericalError: the
        pool's tiles run under the caller's np.errstate, so no RuntimeWarning
        escapes (warnings are errors in this suite)."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        monkeypatch.setattr(mlp, "WORKERS", 2)
        scorer = _small_scorer(head_scale=0.3)
        scorer.params["in_w"][:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            scorer.score_batch(np.ones((40, 3)), np.arange(40) % 5, np.full(40, 0.5))

    @pytest.mark.parametrize("error", [ValidationError, NumericalError])
    def test_an_error_in_a_pool_tile_reaches_the_caller(self, monkeypatch, error):
        """The caller's tiles wait, up to 20 s, until a pool tile has started and
        failed, so the pool cannot be left without a tile."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        monkeypatch.setattr(mlp, "WORKERS", 2)
        scorer = _small_scorer(head_scale=0.3)
        y, anchors, t = np.ones((40, 3)), np.arange(40) % 5, np.full(40, 0.5)
        expected = scorer.score_batch(y, anchors, t)
        prepared = scorer.prepare(y)
        branch = mlp._inference_branch
        pool_failed = threading.Event()

        def failing(*args):
            if _on_pool_thread():
                pool_failed.set()
                raise error("a pool tile failed")
            assert pool_failed.wait(timeout=20), "no tile started on the pool"
            return branch(*args)

        monkeypatch.setattr(mlp, "_inference_branch", failing)
        with pytest.raises(error, match="a pool tile failed"):
            scorer.prepare(y)
        pool_failed.clear()
        with pytest.raises(error, match="a pool tile failed"):
            scorer.score_batch(prepared, anchors, t)
        monkeypatch.setattr(mlp, "_inference_branch", branch)
        assert np.array_equal(scorer.score_batch(y, anchors, t), expected)

    def test_a_busy_pool_does_not_hold_up_a_call(self, monkeypatch):
        """A multi-tile call finishes while the pool's only thread is busy: the
        caller takes every tile and cancels the job that never started."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        monkeypatch.setattr(mlp, "WORKERS", 2)
        monkeypatch.setattr(mlp, "_pool", None)      # a pool of WORKERS - 1 = 1 thread
        scorer = _small_scorer(head_scale=0.3)
        y, anchors, t = np.ones((40, 3)), np.arange(40) % 5, np.full(40, 0.5)
        expected = scorer.score_batch(y, anchors, t)
        release = threading.Event()
        busy = mlp._executor().submit(release.wait)
        results = []
        caller = threading.Thread(target=lambda: results.append(scorer.score_batch(y, anchors, t)))
        try:
            caller.start()
            caller.join(timeout=20)
            finished = not caller.is_alive()
        finally:
            release.set()
            busy.result(timeout=20)
            caller.join(timeout=20)
            mlp._pool.shutdown()
        assert finished, "the call waited for the busy pool"
        assert np.array_equal(results[0], expected)

    def test_three_workers_run_on_three_threads(self, monkeypatch, set_workers):
        """A multi-tile call at three workers, after one at two, runs its tiles on
        three threads under set_workers, which the other three-worker tests use:
        each worker holds its first tile until three have one."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        scorer = _small_scorer(head_scale=0.3)
        y, anchors, t = np.ones((40, 3)), np.arange(40) % 5, np.full(40, 0.5)
        set_workers(2)
        expected = scorer.score_batch(y, anchors, t)
        prepared = scorer.prepare(y)
        set_workers(3)
        branch = mlp._inference_branch
        lock, threads = threading.Lock(), set()
        meeting = threading.Barrier(3, timeout=10)

        def first_tiles_meet(*args):
            with lock:
                first = threading.current_thread().name not in threads
                threads.add(threading.current_thread().name)
            if first:
                meeting.wait()
            return branch(*args)

        monkeypatch.setattr(mlp, "_inference_branch", first_tiles_meet)
        got = scorer.score_batch(prepared, anchors, t)
        assert len(threads) == 3 and np.array_equal(got, expected)

    def test_every_tile_runs_exactly_once(self, trained_scorer, monkeypatch):
        """Three workers under a 1 us switch interval run each tile of row_tiles(n)
        once, in prepare and in inference_logits, and give the one-worker logits."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        y, anchors, t = _shared_time_batch(400, 22)
        monkeypatch.setattr(mlp, "WORKERS", 1)
        expected = trained_scorer.inference_logits(y, anchors, t)
        monkeypatch.setattr(mlp, "WORKERS", 3)
        monkeypatch.setattr(mlp, "_pool", None)      # a pool of WORKERS - 1 = 2 threads
        run_workers = mlp._run_workers
        calls = []

        def spy(n, alloc, run):
            ran = []
            calls.append((n, ran))

            def recording(tiles, *work):
                def record():
                    for tile in tiles:
                        ran.append((tile.start, tile.stop))
                        yield tile
                run(record(), *work)

            run_workers(n, alloc, recording)

        monkeypatch.setattr(mlp, "_run_workers", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = trained_scorer.inference_logits(y, anchors, t)
        finally:
            sys.setswitchinterval(interval)
            mlp._pool.shutdown()
        assert len(calls) == 2 and np.array_equal(got, expected)
        for n, ran in calls:
            assert sorted(ran) == [(tile.start, tile.stop) for tile in row_tiles(n)]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_one_usable_cpu_starts_no_thread(self):
        """In a process pinned to one CPU a multi-tile call runs inline."""
        code = """
import os, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from diffclass import mlp
mlp.TILE_ROWS = 7
cfg = mlp.MlpConfig(n_classes=5, feature_dim=3, embed_dim=16, hidden_dim=32, n_blocks=2,
                    time_embed_dim=16, groups=4)
scorer = mlp.MlpScorer(cfg, mlp.LogLinearSchedule(1.0, 0.5), seed=0)
scorer.score_batch(np.ones((100, 3)), np.arange(100) % 5, np.full(100, 0.5))
assert mlp.WORKERS == 1 and mlp._pool is None and threading.active_count() == 1
"""
        src = str(Path(mlp.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs fork")
    def test_a_forked_child_starts_its_own_pool(self, monkeypatch):
        """The child's copy of the pool has no threads; the child drops it and
        starts a pool of its own on its first multi-worker call."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 7)
        monkeypatch.setattr(mlp, "WORKERS", 2)
        scorer = _small_scorer(head_scale=0.3)
        y, anchors, t = np.ones((40, 3)), np.arange(40) % 5, np.full(40, 0.5)
        expected = scorer.score_batch(y, anchors, t).tobytes()
        assert mlp._pool is not None

        def child():
            fresh = mlp._pool is None
            same = scorer.score_batch(y, anchors, t).tobytes() == expected
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

    def test_concurrent_callers_get_their_own_logits(self, trained_scorer, monkeypatch,
                                                     set_workers):
        """Callers on more threads than CPUs, each sharing its tiles over three
        workers, under a short switch interval: every result equals the
        serial one, and every caller finishes."""
        monkeypatch.setattr(mlp, "TILE_ROWS", 50)
        set_workers(3)
        batches = [_shared_time_batch(400, seed) for seed in range(6)]
        expected = [trained_scorer.inference_logits(*batch) for batch in batches]
        results = [None] * len(batches)

        def call(i):
            for _ in range(3):
                results[i] = trained_scorer.inference_logits(*batches[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(np.array_equal(got, want) for got, want in zip(results, expected))


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
    """Float32 features run the training trunk in float32; the gradients stay float64."""

    def test_float32_gradients_match_float64_on_the_reference_config(self, trained_scorer):
        rng = np.random.default_rng(20)
        y = (3.0 * rng.standard_normal((128, 2))).astype(np.float32)
        labels = rng.integers(0, 8, 128)
        g32 = _grads_at(trained_scorer, y, labels, seed=21)
        g64 = _grads_at(trained_scorer, y.astype(np.float64), labels, seed=21)
        assert list(g32) == list(trained_scorer.params)
        assert all(v.dtype == np.float64 for v in g32.values())
        assert _relative_gap(g32, g64) <= 1e-4

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(2, 6), dim=st.integers(1, 4), groups=st.sampled_from([1, 2, 4, 8]),
           group_size=st.sampled_from([4, 8, 16]), blocks=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_float32_gradients_on_random_configs(self, k, dim, groups, group_size, blocks, seed):
        cfg = MlpConfig(n_classes=k, feature_dim=dim, embed_dim=8,
                        hidden_dim=groups * group_size, n_blocks=blocks, time_embed_dim=8,
                        groups=groups)
        scorer = MlpScorer(cfg, SCHED, seed=seed)
        rng = np.random.default_rng(seed)
        scorer.params["out_w"] = 0.5 * rng.standard_normal((k, cfg.hidden_dim))
        y = (2.0 * rng.standard_normal((48, dim))).astype(np.float32)
        labels = rng.integers(0, k, 48)
        g32 = _grads_at(scorer, y, labels, seed)
        g64 = _grads_at(scorer, y.astype(np.float64), labels, seed)
        assert all(v.dtype == np.float64 for v in g32.values())
        assert _relative_gap(g32, g64) <= 1e-4

    @pytest.mark.parametrize("offset", [0.0, 4.0])
    def test_float32_groupnorm_backward_matches_float64_reductions(self, offset):
        rng = np.random.default_rng(22)
        x = (offset + 3.0 * rng.standard_normal((300, 128))).astype(np.float32)
        gamma = rng.standard_normal(128).astype(np.float32)
        dout = rng.standard_normal((300, 128)).astype(np.float32)
        _, cache32 = _gn_forward(x.copy(), gamma, np.zeros_like(gamma), 8)
        got = _gn_backward(dout, gamma, cache32, 8)
        want = reference_groupnorm_backward(dout, x, gamma, 8)
        for g, w in zip(got, want):
            assert g.dtype == np.float32 and g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-5 * np.abs(w).max()

    def test_float64_features_keep_the_trunk_float64(self):
        scorer = _small_scorer(head_scale=0.3)
        rng = np.random.default_rng(23)
        y = rng.standard_normal((6, 3))
        anchors = rng.integers(0, 5, 6)
        _, cache = scorer.logits(y, anchors, rng.random(6))
        q = cache["params"]
        assert cache["h_top"].dtype == np.float64
        want = mlp.inference_params(scorer.params, SMALL, np.float64)
        assert all(v.dtype == np.float64 and v.tobytes() == want[k].tobytes()
                   for k, v in q.items())
        # The entries the form leaves as they are are the master arrays: no cast, no copy.
        assert all(q[k] is scorer.params[k] for k in ("w2_0", "cw_1", "out_w", "out_b"))
        _, cache = scorer.logits(y.astype(np.float32), anchors, rng.random(6))
        q = cache["params"]
        assert cache["h_top"].dtype == np.float32
        assert all(q[k].dtype == (np.float64 if k.startswith("out_") else np.float32) for k in q)


class TestGradients:
    def test_param_grads_match_finite_differences(self):
        """Backprop through head, blocks, group norm, and embeddings vs central FD."""
        scorer = _small_scorer(head_scale=0.3)
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
    @given(k=st.integers(2, 6), dim=st.integers(1, 4), groups=st.sampled_from([1, 2, 4, 8]),
           group_size=st.sampled_from([4, 8, 16]), blocks=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_forwards_and_gradients_match_the_reference(self, k, dim, groups, group_size,
                                                        blocks, seed):
        cfg = MlpConfig(n_classes=k, feature_dim=dim, embed_dim=8,
                        hidden_dim=groups * group_size, n_blocks=blocks, time_embed_dim=8,
                        groups=groups)
        scorer = MlpScorer(cfg, SCHED, seed=seed)
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
        assert np.abs(scorer.inference_logits(y, anchors, t) - want).max() <= 1e-5 * scale

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
        slope = _silu_slope(s, t)
        assert slope.dtype == dtype and slope.tobytes() == (t + s * (2 - t)).tobytes()
        want = 2.0 * silu_grad(2.0 * u.astype(np.float64))
        assert np.all(np.abs(slope - want) <= 8 * np.finfo(dtype).eps * (1.0 + np.abs(u)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embedding_gradient_is_the_scatter_add_over_the_anchors(self, dtype):
        """The one-hot matmul equals np.add.at byte for byte, signed zeros included."""
        rng = np.random.default_rng(25)
        for k in (2, 5, 13):
            cfg = MlpConfig(n_classes=k, feature_dim=3, embed_dim=8, hidden_dim=16,
                            n_blocks=2, time_embed_dim=8, groups=4)
            scorer = MlpScorer(cfg, SCHED, seed=k)
            scorer.params["out_w"] = 0.5 * rng.standard_normal((k, 16))
            for n in (1, 7, 64, 300):
                y = rng.standard_normal((n, 3)).astype(dtype)
                anchors = rng.integers(0, k, n)
                _, cache = scorer.logits(y, anchors, rng.random(n))
                dz = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-6, 2, (n, 1))
                dz[rng.random(n) < 0.2] = -0.0
                dcond = backward_logits(cache["params"], cfg, dz, cache)["_dcond"]
                want = np.zeros((k, 8))
                np.add.at(want, anchors, dcond.astype(np.float64))
                got = scorer.param_grads(dz, cache)["embed"]
                assert got.tobytes() == want.tobytes(), (k, n)


class TestCeBaseline:
    """The cross-entropy baseline: the scorer read at (BASELINE_ANCHOR, BASELINE_T)."""

    def test_gradients_match_finite_differences(self):
        """Float64 features keep the whole path float64, so central differences of
        the loss check every parameter group, the conditioning's among them."""
        scorer = _small_scorer(seed=1, head_scale=0.5)
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
                             hidden_dim=32, n_blocks=2, time_embed_dim=16, groups=4)
        rng = np.random.default_rng(9)
        data = (rng.standard_normal((100, 3)), rng.integers(0, 5, 100))
        scorer = fit_without_validation(config, MixtureTask(np.eye(5, 3)), data,
                                        cross_entropy=True)
        assert not scorer.params["cw_0"].any() and not scorer.params["cw_1"].any()
        assert scorer.params["w1_0"].any()

    def test_prediction_keeps_no_backprop_cache(self):
        """Predicting 2,000 rows of a reference-size baseline runs the inference
        path; the training forward's float64 backprop cache would take ~52 MiB."""
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
        t = np.full(5, 0.7)
        assert np.array_equal(a.score_batch(y, anchors, t), b.score_batch(y, anchors, t))

    def test_sidecar_metadata_written(self, tmp_path):
        scorer = _small_scorer()
        path = str(tmp_path / "m.ckpt")
        scorer.save(path)
        meta = Path(path + ".meta").read_text(encoding="utf-8")
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
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(ValidationError):
            load_params(str(path))


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """(scorer, checkpoint bytes, sidecar bytes, path for altered copies)."""
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


# Half the edits land in the first 128 bytes: the header and the first array's name and shape.
ALTERATIONS = dict(
    in_sidecar=st.booleans(),
    cut=st.none() | st.integers(0, 2**16),
    edits=st.lists(st.tuples(st.integers(0, 127) | st.integers(0, 2**16), st.integers(0, 255)),
                   min_size=1, max_size=3),
)


class TestLoaderProperties:
    @settings(max_examples=300, deadline=None)
    @given(**ALTERATIONS)
    def test_altered_checkpoint_loads_or_raises_validation_error(
            self, saved_checkpoint, in_sidecar, cut, edits):
        scorer, blob, meta, path = saved_checkpoint
        new_blob = blob if in_sidecar else _altered(blob, cut, edits)
        new_meta = _altered(meta, cut, edits) if in_sidecar else meta
        with open(path, "wb") as fh, open(path + ".meta", "wb") as fh_meta:
            fh.write(new_blob)
            fh_meta.write(new_meta)
        try:
            params, cfg, schedule = load_params(path)
        except ValidationError:
            assert (new_blob, new_meta) != (blob, meta)
            return
        assert cut is None or in_sidecar            # a cut checkpoint never loads
        assert {k: v.shape for k, v in params.items()} == param_shapes(cfg)
        if new_blob == blob:                        # the sidecar only confirms the header
            assert (cfg, schedule) == (scorer.cfg, scorer.schedule)
            for name, value in scorer.params.items():
                assert np.array_equal(params[name], value.astype(np.float32)), name


class TestConfigValidation:
    def test_hidden_must_divide_groups(self):
        with pytest.raises(ValidationError):
            MlpConfig(n_classes=3, feature_dim=2, hidden_dim=30, groups=8)

    def test_at_least_one_block(self):
        with pytest.raises(ValidationError):
            MlpConfig(n_classes=3, feature_dim=2, n_blocks=0)

    @settings(max_examples=300, deadline=None)
    @given(hidden=st.integers(1, 512), groups=st.one_of(st.none(), st.integers(1, 64)))
    def test_built_configs_have_groups_of_at_least_four_units(self, hidden, groups):
        """TrainConfig.mlp_config gives every GroupNorm group at least 4 units or raises
        naming hidden_dim; by default a width of 32 or more divisible by 8 gets 8 groups."""
        eight = groups is None and hidden >= 32 and hidden % 8 == 0
        try:
            cfg = TrainConfig(hidden_dim=hidden, groups=groups).mlp_config(4, 2)
        except ValidationError as exc:
            assert "hidden_dim" in str(exc) and not eight
            return
        assert cfg.hidden_dim % cfg.groups == 0 and cfg.hidden_dim // cfg.groups >= 4
        assert cfg.groups == 8 or not eight

    @settings(max_examples=300, deadline=None)
    @given(hidden=st.integers(4, 4096))
    def test_default_groups_accept_every_width_of_at_least_four(self, hidden):
        """With groups unset, every width of at least 4 builds a config, on the most
        groups of at least 4 units, up to 8, that divide it."""
        groups = TrainConfig(hidden_dim=hidden).mlp_config(4, 2).groups
        assert hidden % groups == 0 and hidden // groups >= 4
        assert not any(hidden % more == 0 for more in range(groups + 1, min(8, hidden // 4) + 1))
