"""Synthetic classification tasks with exactly computable posteriors.

Class-conditional densities are isotropic Gaussians with shared variance,
so the clean-label posterior is closed-form and every estimator can be
scored against ground truth.  An observation operator corrupts features
before they reach the model:

  none            identity
  additive-noise  y = x + level * standard normal  (variances add)
  mask-coordinates  first int(level) coordinates zeroed (observed subspace)
  quantize        y = round(x / level) * level  (per-cell interval mass)

Datasets are stored as <stem>.bin (little-endian float32 features followed
by an int32 zero-based label per record) with a plain-text <stem>.meta header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .transition import ensure_distribution

CORRUPTION_KINDS = ("none", "additive-noise", "mask-coordinates", "quantize")

_erf = np.vectorize(math.erf)


def _log_norm_cdf_diff(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """log(Phi(hi) - Phi(lo)) for standard normal, elementwise, floored."""
    val = 0.5 * (_erf(hi / math.sqrt(2.0)) - _erf(lo / math.sqrt(2.0)))
    return np.log(np.maximum(val, 1e-300))


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str = "none"
    level: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CORRUPTION_KINDS:
            raise ValidationError(f"unknown corruption kind {self.kind!r}")
        if not 0.0 <= self.level < math.inf:
            raise ValidationError("corruption level must be nonnegative and finite")
        if self.kind == "quantize" and self.level <= 0.0:
            raise ValidationError("quantize needs a positive cell size")


@dataclass(frozen=True)
class MixtureTask:
    """Gaussian mixture with shared isotropic variance and known priors."""

    means: np.ndarray          # (K, dim)
    variance: float = 1.0
    priors: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        object.__setattr__(self, "means", means)
        if means.ndim != 2 or means.shape[0] < 2 or means.shape[1] < 1:
            raise ValidationError("means must be (K, dim) with K >= 2 and dim >= 1")
        if not np.all(np.isfinite(means)):
            raise ValidationError("means must be finite")
        if not 0.0 < self.variance < math.inf:
            raise ValidationError("variance must be positive and finite")
        if self.priors is None:
            object.__setattr__(self, "priors", np.full(means.shape[0], 1.0 / means.shape[0]))
        elif np.shape(self.priors) != (means.shape[0],):
            raise ValidationError(f"priors must have one entry per class, K={means.shape[0]}")
        else:
            object.__setattr__(self, "priors", ensure_distribution(self.priors, "priors"))

    @property
    def k(self) -> int:
        return int(self.means.shape[0])

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])

    @classmethod
    def ring(cls, k: int, dim: int = 2, separation: float = 3.0,
             variance: float = 1.0, seed: int = 0) -> "MixtureTask":
        """Means equally spaced on a circle with the given nearest-neighbor distance."""
        if k < 2 or dim < 2:
            raise ValidationError("ring layout needs k >= 2 and dim >= 2")
        radius = (separation / 2.0) / math.sin(math.pi / k)
        ang = 2.0 * math.pi * np.arange(k) / k
        means = np.zeros((k, dim))
        means[:, 0] = radius * np.cos(ang)
        means[:, 1] = radius * np.sin(ang)
        return cls(means=means, variance=variance, seed=seed)

    @classmethod
    def random(cls, k: int, dim: int, spread: float = 3.0,
               variance: float = 1.0, seed: int = 0) -> "MixtureTask":
        if k < 2 or dim < 1:
            raise ValidationError("random layout needs k >= 2 and dim >= 1")
        rng = np.random.default_rng(seed)
        return cls(means=spread * rng.standard_normal((k, dim)), variance=variance, seed=seed)


def generate(task: MixtureTask, n: int, corruption: CorruptionSpec,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw n labeled observations (features after corruption, zero-based labels)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    # The inverse-CDF draw of transition.sample_categorical_rows on one shared
    # prior row: the first label whose cumulative prior exceeds u times the total.
    cum = np.cumsum(task.priors)
    labels = np.minimum(np.searchsorted(cum, rng.random(n) * cum[-1], side="right"), task.k - 1)
    x = task.means[labels] + math.sqrt(task.variance) * rng.standard_normal((n, task.dim))
    if corruption.kind == "none":
        y = x
    elif corruption.kind == "additive-noise":
        y = x + corruption.level * rng.standard_normal((n, task.dim))
    elif corruption.kind == "mask-coordinates":
        y = x.copy()
        y[:, : _mask_count(task, corruption)] = 0.0
    else:  # quantize
        y = np.round(x / corruption.level) * corruption.level
    return y, labels


def _mask_count(task: MixtureTask, corruption: CorruptionSpec) -> int:
    m = int(corruption.level)
    if m > task.dim:
        raise ValidationError(f"cannot mask {m} of {task.dim} coordinates")
    return m


def _class_log_likelihood(task: MixtureTask, y: np.ndarray,
                          corruption: CorruptionSpec) -> np.ndarray:
    """Log p(y | class) for each row of y, shape (n, K); closed form per kind."""
    mu = task.means[None, :, :]          # (1, K, dim)
    yb = y[:, None, :]                   # (n, 1, dim)
    if corruption.kind in ("none", "additive-noise"):
        var = task.variance + (corruption.level ** 2 if corruption.kind == "additive-noise" else 0.0)
        return -0.5 * ((yb - mu) ** 2).sum(axis=2) / var
    if corruption.kind == "mask-coordinates":
        m = _mask_count(task, corruption)
        if m == task.dim:
            return np.zeros((y.shape[0], task.k))
        d2 = ((yb[:, :, m:] - mu[:, :, m:]) ** 2).sum(axis=2)
        return -0.5 * d2 / task.variance
    # quantize: product over coordinates of the Gaussian mass in the cell
    std = math.sqrt(task.variance)
    half = corruption.level / 2.0
    lo = (yb - half - mu) / std
    hi = (yb + half - mu) / std
    return _log_norm_cdf_diff(lo, hi).sum(axis=2)


def true_posterior_batch(task: MixtureTask, y: np.ndarray,
                         corruption: CorruptionSpec = CorruptionSpec()) -> np.ndarray:
    """Exact posterior over classes for each row of y, shape (n, K)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[None, :]
    if not np.all(np.isfinite(y)):
        raise ValidationError("features must be finite")
    logp = _class_log_likelihood(task, y, corruption) + np.log(task.priors)[None, :]
    logp -= logp.max(axis=1, keepdims=True)
    p = np.exp(logp)
    return ensure_distribution(p / p.sum(axis=1, keepdims=True), "posterior")


def _record_dtype(dim: int) -> np.dtype:
    """One .bin record: dim little-endian float32 features, then an int32 label."""
    return np.dtype([("y", "<f4", (dim,)), ("c", "<i4")])


def save_dataset(stem: str, y: np.ndarray, labels: np.ndarray, task: MixtureTask,
                 corruption: CorruptionSpec, seed: int) -> None:
    n, dim = np.shape(y)
    records = np.empty(n, dtype=_record_dtype(dim))
    records["y"] = y
    records["c"] = labels
    with open(stem + ".bin", "wb") as fh:
        fh.write(records.tobytes())
    with open(stem + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"k={task.k}\n")
        fh.write(f"dim={dim}\n")
        fh.write(f"n={n}\n")
        fh.write(f"corruption={corruption.kind}\n")
        fh.write(f"level={corruption.level!r}\n")
        fh.write(f"seed={seed}\n")
        fh.write("labels=zero-based\n")
        fh.write(f"variance={task.variance!r}\n")
        fh.write("means=" + ",".join(repr(float(v)) for v in task.means.ravel()) + "\n")
        fh.write("priors=" + ",".join(repr(float(v)) for v in task.priors) + "\n")


def load_dataset(stem: str):
    """Read a dataset back; returns (features, labels, task, corruption, seed).

    Raises ValidationError naming the file when the header is not UTF-8
    text, is incomplete, or describes no valid task or corruption, when the
    record count is below one or disagrees with the file length, a label
    falls outside [0, k), or a feature is not finite.
    """
    meta: dict[str, str] = {}
    try:
        with open(stem + ".meta", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.strip().partition("=")
                meta[key] = value
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{stem}.meta: not UTF-8 text") from exc
    try:
        k, dim, n = int(meta["k"]), int(meta["dim"]), int(meta["n"])
        means = np.array([float(v) for v in meta["means"].split(",")]).reshape(k, dim)
        priors = np.array([float(v) for v in meta["priors"].split(",")])
        variance, level, seed = float(meta["variance"]), float(meta["level"]), int(meta["seed"])
        task = MixtureTask(means=means, variance=variance, priors=priors, seed=seed)
        corruption = CorruptionSpec(meta["corruption"], level)
    except (KeyError, ValueError, NumericalError) as exc:   # ValidationError is a ValueError
        raise ValidationError(f"{stem}.meta: missing or malformed entry ({exc})") from exc
    if n < 1:
        raise ValidationError(f"{stem}.meta: n={n}, a dataset holds at least one record")
    dtype = _record_dtype(dim)
    with open(stem + ".bin", "rb") as fh:
        raw = fh.read()
    if len(raw) != n * dtype.itemsize:
        raise ValidationError(f"{stem}.bin: expected {n * dtype.itemsize} bytes, found {len(raw)}")
    records = np.frombuffer(raw, dtype=dtype)
    y = records["y"].astype(np.float64)
    labels = records["c"].astype(np.int64)
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"{stem}.bin: label outside [0, {k})")
    if not np.all(np.isfinite(y)):
        raise ValidationError(f"{stem}.bin: non-finite feature")
    return y, labels, task, corruption, seed
