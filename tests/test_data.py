"""Synthetic tasks: generation, exact posteriors, quadrature agreement, file format."""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffclass.data import (CorruptionSpec, MixtureTask, generate, load_dataset, save_dataset,
                            true_posterior_batch)
from diffclass.errors import ValidationError
from diffclass.transition import sample_categorical_rows
from oracles import bayes_accuracy, posterior_quadrature

NONE = CorruptionSpec()


class TestGenerate:
    def test_deterministic_per_seed(self):
        task = MixtureTask.ring(4, 2)
        y1, c1 = generate(task, 100, NONE, np.random.default_rng(5))
        y2, c2 = generate(task, 100, NONE, np.random.default_rng(5))
        assert np.array_equal(y1, y2) and np.array_equal(c1, c2)

    def test_one_hot_priors_fix_labels(self):
        priors = np.array([0.0, 0.0, 1.0])
        task = MixtureTask(means=np.eye(3), priors=priors)
        _, labels = generate(task, 200, NONE, np.random.default_rng(0))
        assert np.all(labels == 2)

    def test_label_frequencies_match_priors(self):
        priors = np.array([0.5, 0.3, 0.2])
        task = MixtureTask(means=np.zeros((3, 2)), priors=priors)
        _, labels = generate(task, 100_000, NONE, np.random.default_rng(1))
        freqs = np.bincount(labels, minlength=3) / 100_000
        bounds = 5.0 * np.sqrt(priors * (1 - priors) / 100_000)
        assert np.all(np.abs(freqs - priors) < bounds)

    @settings(max_examples=100, deadline=None)
    @given(weights=st.lists(st.sampled_from([0.0, 0.001, 0.3, 1.0, 7.0]), min_size=2,
                            max_size=50).filter(any),
           n=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
    def test_labels_are_the_per_row_inverse_cdf_draw(self, weights, n, seed):
        """One cumulative prior row draws the labels sample_categorical_rows draws
        from the priors repeated on every row, bit for bit."""
        priors = np.array(weights) / sum(weights)
        task = MixtureTask(means=np.zeros((len(priors), 1)), priors=priors)
        _, labels = generate(task, n, NONE, np.random.default_rng(seed))
        expected = sample_categorical_rows(np.tile(task.priors, (n, 1)),
                                           np.random.default_rng(seed).random(n))
        assert labels.dtype == expected.dtype and np.array_equal(labels, expected)

    def test_mask_zeroes_leading_coordinates(self):
        task = MixtureTask.ring(3, dim=4)
        y, _ = generate(task, 50, CorruptionSpec("mask-coordinates", 2), np.random.default_rng(2))
        assert np.all(y[:, :2] == 0.0) and np.any(y[:, 2:] != 0.0)

    def test_quantize_snaps_to_grid(self):
        task = MixtureTask.ring(3, 2)
        y, _ = generate(task, 50, CorruptionSpec("quantize", 0.5), np.random.default_rng(3))
        np.testing.assert_allclose(y, np.round(y / 0.5) * 0.5, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            CorruptionSpec("blur", 1.0)


class TestTruePosterior:
    def test_equidistant_point_splits_evenly(self):
        task = MixtureTask(means=np.array([[-1.0, 0.0], [1.0, 0.0]]))
        post = true_posterior_batch(task, np.array([0.0, 5.0]))[0]
        np.testing.assert_allclose(post, [0.5, 0.5], atol=1e-12)

    def test_well_separated_mean_is_nearly_one_hot(self):
        task = MixtureTask.ring(4, 2, separation=10.0)
        post = true_posterior_batch(task, task.means[1])[0]
        assert post[1] > 1.0 - 1e-6
        assert np.delete(post, 1).max() < 1e-6

    def test_additive_noise_equals_inflated_variance(self):
        """Gaussian convolution: corruption level tau acts as variance tau^2."""
        task = MixtureTask.ring(5, 2, separation=3.0, variance=1.0)
        inflated = MixtureTask(means=task.means, variance=1.0 + 0.8 ** 2, priors=task.priors)
        rng = np.random.default_rng(4)
        y = rng.standard_normal((50, 2)) * 2.0
        a = true_posterior_batch(task, y, CorruptionSpec("additive-noise", 0.8))
        b = true_posterior_batch(inflated, y, NONE)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_fully_masked_returns_priors(self):
        priors = np.array([0.6, 0.4])
        task = MixtureTask(means=np.array([[1.0], [-1.0]]), priors=priors)
        masked = CorruptionSpec("mask-coordinates", 1)
        post = true_posterior_batch(task, np.array([0.0]), masked)[0]
        np.testing.assert_allclose(post, priors, atol=1e-12)

    def test_quadrature_oracle_agrees_with_closed_forms(self):
        """Numerical marginalization vs analytic posterior within declared 1e-6."""
        task = MixtureTask.random(4, 3, spread=2.0, seed=9)
        rng = np.random.default_rng(5)
        specs = [NONE, CorruptionSpec("additive-noise", 0.7),
                 CorruptionSpec("quantize", 0.6), CorruptionSpec("mask-coordinates", 1)]
        for spec in specs:
            for _ in range(25):
                y = 3.0 * rng.standard_normal(3)
                if spec.kind == "quantize":
                    y = np.round(y / spec.level) * spec.level
                if spec.kind == "mask-coordinates":
                    y[:1] = 0.0
                closed = true_posterior_batch(task, y, spec)[0]
                quad = posterior_quadrature(task, y, spec)
                assert 0.5 * np.abs(closed - quad).sum() < 1e-6

    def test_nonfinite_features_rejected(self):
        task = MixtureTask.ring(3, 2)
        with pytest.raises(ValidationError):
            true_posterior_batch(task, np.array([np.nan, 0.0]))


class TestBayesAccuracy:
    def test_identical_means_is_chance(self):
        task = MixtureTask(means=np.zeros((2, 2)))
        acc, se = bayes_accuracy(task, NONE, 20_000, np.random.default_rng(6))
        assert abs(acc - 0.5) < 5 * se

    def test_separation_drives_accuracy_to_one(self):
        task = MixtureTask.ring(4, 2, separation=20.0)
        acc, _ = bayes_accuracy(task, NONE, 5_000, np.random.default_rng(7))
        assert acc > 0.999

    def test_corruption_never_helps(self):
        """More feature noise cannot increase the exact-posterior accuracy."""
        task = MixtureTask.ring(6, 2, separation=3.0)
        rng = np.random.default_rng(8)
        accs, ses = [], []
        for level in (0.0, 1.0, 2.0):
            spec = NONE if level == 0.0 else CorruptionSpec("additive-noise", level)
            acc, se = bayes_accuracy(task, spec, 40_000, rng)
            accs.append(acc)
            ses.append(se)
        assert accs[1] <= accs[0] + 3 * (ses[0] + ses[1])
        assert accs[2] <= accs[1] + 3 * (ses[1] + ses[2])

    def test_pinned_reference_task(self):
        """Regression constant: 1e6-draw oracle value for the 8-class ring at 3-sigma
        separation is 0.8666; re-estimate must agree within Monte-Carlo error."""
        task = MixtureTask.ring(8, 2, separation=3.0)
        acc, se = bayes_accuracy(task, NONE, 200_000, np.random.default_rng(9))
        assert acc == pytest.approx(0.866563, abs=4 * se)


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    """(what load_dataset returns, record bytes, header bytes, stem for altered copies)."""
    task = MixtureTask.ring(3, 2)
    spec = CorruptionSpec("additive-noise", 0.5)
    y, labels = generate(task, 12, spec, np.random.default_rng(15))
    stem = str(tmp_path_factory.mktemp("dataset") / "d")
    save_dataset(stem, y, labels, task, spec, seed=15)
    with open(stem + ".bin", "rb") as fh, open(stem + ".meta", "rb") as meta:
        return load_dataset(stem), fh.read(), meta.read(), stem


def _altered(blob: bytes, cut: int | None, edits: list[tuple[int, int]]) -> bytes:
    """blob cut to its first cut bytes, or with byte i set to v for each (i, v) in edits."""
    if cut is not None:
        return blob[:cut % len(blob)]
    out = bytearray(blob)
    for i, v in edits:
        out[i % len(out)] = v
    return bytes(out)


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        task = MixtureTask.ring(5, 3, separation=2.5, variance=0.9)
        spec = CorruptionSpec("additive-noise", 0.4)
        y, labels = generate(task, 64, spec, np.random.default_rng(10))
        stem = str(tmp_path / "train")
        save_dataset(stem, y, labels, task, spec, seed=10)
        y2, c2, task2, spec2, seed2 = load_dataset(stem)
        np.testing.assert_array_equal(y2, y.astype(np.float32).astype(np.float64))
        assert np.array_equal(c2, labels)
        np.testing.assert_allclose(task2.means, task.means)
        assert task2.variance == task.variance
        assert (spec2.kind, spec2.level, seed2) == (spec.kind, spec.level, 10)

    def test_bytes_match_the_per_record_layout(self, tmp_path):
        """Each record is dim float32 features then one int32 label, little-endian."""
        task = MixtureTask.ring(4, 3)
        y, labels = generate(task, 50, NONE, np.random.default_rng(12))
        stem = str(tmp_path / "d")
        save_dataset(stem, y, labels, task, NONE, seed=0)
        expected = b"".join(row.astype("<f4").tobytes() + struct.pack("<i", int(c))
                            for row, c in zip(y, labels))
        assert Path(stem + ".bin").read_bytes() == expected

    @pytest.mark.parametrize("mutate", ["label_high", "label_negative", "nan", "inf"])
    def test_corrupt_records_rejected(self, tmp_path, mutate):
        task = MixtureTask.ring(3, 2)
        y, labels = generate(task, 10, NONE, np.random.default_rng(13))
        if mutate.startswith("label"):
            labels[4] = 3 if mutate == "label_high" else -1
        elif mutate in ("nan", "inf"):
            y[7, 1] = float(mutate)
        stem = str(tmp_path / "bad")
        save_dataset(stem, y, labels, task, NONE, seed=0)
        with pytest.raises(ValidationError, match="bad.bin"):
            load_dataset(stem)

    def test_incomplete_header_rejected(self, tmp_path):
        task = MixtureTask.ring(3, 2)
        y, labels = generate(task, 10, NONE, np.random.default_rng(14))
        stem = str(tmp_path / "bad")
        save_dataset(stem, y, labels, task, NONE, seed=0)
        with open(stem + ".meta", encoding="utf-8") as fh:
            lines = [line for line in fh if not line.startswith("priors=")]
        with open(stem + ".meta", "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        with pytest.raises(ValidationError, match="bad.meta"):
            load_dataset(stem)

    def test_empty_dataset_rejected(self, tmp_path):
        """A header claiming no records (with an empty .bin) would train nothing."""
        task = MixtureTask.ring(3, 2)
        y, labels = generate(task, 1, NONE, np.random.default_rng(15))
        stem = str(tmp_path / "empty")
        save_dataset(stem, y, labels, task, NONE, seed=0)
        with open(stem + ".meta", encoding="utf-8") as fh:
            meta = fh.read().replace("\nn=1\n", "\nn=0\n")
        with open(stem + ".meta", "w", encoding="utf-8") as fh:
            fh.write(meta)
        open(stem + ".bin", "wb").close()
        with pytest.raises(ValidationError, match="empty.meta: n=0"):
            load_dataset(stem)

    @settings(max_examples=300, deadline=None)
    @given(in_meta=st.booleans(), cut=st.none() | st.integers(0, 2**16),
           edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                          min_size=1, max_size=3))
    def test_altered_dataset_loads_or_raises_validation_error(self, saved_dataset, in_meta,
                                                               cut, edits):
        original, blob, meta, stem = saved_dataset
        new_blob = blob if in_meta else _altered(blob, cut, edits)
        new_meta = _altered(meta, cut, edits) if in_meta else meta
        with open(stem + ".bin", "wb") as fh, open(stem + ".meta", "wb") as fh_meta:
            fh.write(new_blob)
            fh_meta.write(new_meta)
        try:
            y, labels, task, corruption, seed = load_dataset(stem)
        except ValidationError:
            assert (new_blob, new_meta) != (blob, meta)
            return
        assert cut is None or in_meta               # a cut record file never loads
        assert y.shape == (labels.size, task.dim) and task.priors.shape == (task.k,)
        assert np.all(np.isfinite(y)) and np.all((0 <= labels) & (labels < task.k))
        assert np.all(np.isfinite(task.means)) and np.isfinite(task.variance)
        assert np.isfinite(corruption.level)
        if (new_blob, new_meta) == (blob, meta):
            y0, labels0, task0, corruption0, seed0 = original
            assert np.array_equal(y, y0) and np.array_equal(labels, labels0)
            assert np.array_equal(task.means, task0.means) and task.variance == task0.variance
            assert (corruption, seed) == (corruption0, seed0)

    def test_truncated_file_rejected(self, tmp_path):
        task = MixtureTask.ring(3, 2)
        y, labels = generate(task, 10, NONE, np.random.default_rng(11))
        stem = str(tmp_path / "bad")
        save_dataset(stem, y, labels, task, NONE, seed=0)
        with open(stem + ".bin", "r+b") as fh:
            fh.truncate(17)
        with pytest.raises(ValidationError):
            load_dataset(stem)
