"""Reference implementations the tests compare the package against.

Each one is written independently of the fast path it checks: a series
matrix exponential for the closed-form forward marginal, the rate applied
explicitly for Euler stepping, quadrature for the closed-form posteriors,
single-column score and loss helpers for the batched training loss, the
SiLU slope from a fresh exp, GroupNorm and its backward by numpy's mean and
variance, the scorer network's forward on its master parameters as the
textbook writes it, and a per-array Adam in its textbook order for the
optimizer's whole-buffer update.  ExactScorer scores from a known
posterior through the closed-form forward marginal, and bayes_accuracy
draws the exact-posterior argmax's accuracy, the ceiling a trained
classifier is held to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from diffclass.data import CorruptionSpec, MixtureTask, generate, true_posterior_batch
from diffclass.errors import ValidationError
from diffclass.loss import score_entropy_terms
from diffclass.mlp import GN_EPS, MlpConfig
from diffclass.schedule import LogLinearSchedule
from diffclass.score import PROB_FLOOR, Scorer, floor_probs
from diffclass.transition import ensure_distribution, forward_marginal

ORACLE_MAX_K = 64


def matrix_exponential_oracle(k: int, sigma_bar: float) -> np.ndarray:
    """exp(sigma_bar * R) by scaling-and-squaring of the truncated series.

    k is capped at ORACLE_MAX_K.  Columns sum to one and all entries are
    nonnegative.
    """
    if k < 2 or k > ORACLE_MAX_K:
        raise ValidationError(f"oracle supports 2 <= K <= {ORACLE_MAX_K}, got {k}")
    if sigma_bar < 0.0:
        raise ValidationError("sigma_bar must be nonnegative")
    a = sigma_bar * (np.ones((k, k)) - k * np.eye(k))
    norm = np.abs(a).sum(axis=0).max()
    n_squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1) if norm > 0.5 else 0
    t = a / (2.0**n_squarings)
    term = np.eye(k)
    result = np.eye(k)
    for i in range(1, 200):
        term = term @ t / i
        result = result + term
        if np.abs(term).max() < 1e-16 * max(np.abs(result).max(), 1.0):
            break
    for _ in range(n_squarings):
        result = result @ result
    return result


def apply_rate(sigma: float, q: np.ndarray) -> np.ndarray:
    """Time derivative sigma * R @ q, computed in O(K) via the rank-one structure.

    Works on a vector or on rows of a matrix; output entries sum to zero.
    """
    q = np.asarray(q, dtype=np.float64)
    if sigma < 0.0:
        raise ValidationError(f"sigma must be nonnegative, got {sigma}")
    k = q.shape[-1]
    if k < 2:
        raise ValidationError("need at least 2 classes")
    return sigma * (q.sum(axis=-1, keepdims=True) - k * q)


def posterior_quadrature(task: MixtureTask, y: np.ndarray,
                         corruption: CorruptionSpec = CorruptionSpec(),
                         n_nodes: int = 96) -> np.ndarray:
    """Posterior by numerical marginalization over the latent clean features.

    Independent oracle for the closed forms in diffclass.data; agrees within
    1e-6 total variation at the default node count.  Gauss-Hermite handles
    the additive convolution, Gauss-Legendre the per-cell quantization mass.
    """
    y = np.asarray(y, dtype=np.float64)
    std = math.sqrt(task.variance)
    if corruption.kind in ("none", "mask-coordinates"):
        # Marginalizing unobserved coordinates integrates to one; closed path is exact.
        return true_posterior_batch(task, y, corruption)[0]
    loglik = np.zeros(task.k)
    if corruption.kind == "additive-noise":
        nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
        tau = max(corruption.level, 1e-12)
        for ki in range(task.k):
            total = 0.0
            for d in range(task.dim):
                x = task.means[ki, d] + std * math.sqrt(2.0) * nodes
                dens = np.exp(-0.5 * ((y[d] - x) / tau) ** 2) / (tau * math.sqrt(2.0 * math.pi))
                val = float(weights @ dens) / math.sqrt(math.pi)
                total += math.log(max(val, 1e-300))
            loglik[ki] = total
    else:  # quantize
        nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
        half = corruption.level / 2.0
        for ki in range(task.k):
            total = 0.0
            for d in range(task.dim):
                x = y[d] + half * nodes
                dens = np.exp(-0.5 * ((x - task.means[ki, d]) / std) ** 2) / (std * math.sqrt(2.0 * math.pi))
                val = half * float(weights @ dens)
                total += math.log(max(val, 1e-300))
            loglik[ki] = total
    logp = loglik + np.log(task.priors)
    logp -= logp.max()
    p = np.exp(logp)
    return ensure_distribution(p / p.sum(), "quadrature posterior")


@dataclass(frozen=True)
class ScoreColumn:
    """Positive ratio vector with the anchor entry pinned to one."""

    values: np.ndarray
    anchor: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValidationError("score column must be one-dimensional")
        if not (0 <= self.anchor < values.shape[0]):
            raise ValidationError(f"anchor {self.anchor} out of range for K={values.shape[0]}")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValidationError("score column entries must be positive and finite")
        if values[self.anchor] != 1.0:
            raise ValidationError(f"anchor entry must equal 1, got {values[self.anchor]!r}")

    @property
    def k(self) -> int:
        return int(self.values.shape[0])


def exact_score_column(q: np.ndarray, j: int) -> ScoreColumn:
    """Ratio column q / q[j] of a known distribution, anchored at j."""
    q = np.asarray(q, dtype=np.float64)
    if not (0 <= j < q.shape[0]):
        raise ValidationError(f"anchor {j} out of range for K={q.shape[0]}")
    qf = floor_probs(q)
    if not (qf[j] >= PROB_FLOOR):
        raise ValidationError(f"q[{j}] is not strictly positive after flooring")
    values = qf / qf[j]
    values[j] = 1.0
    return ScoreColumn(values, j)


def score_matrix_rank_one(q: np.ndarray) -> np.ndarray:
    """Full K x K ratio matrix q * (1/q)^T; column j equals the column anchored at j."""
    qf = floor_probs(q)
    return np.outer(qf, 1.0 / qf)


def normalize_scores(s: ScoreColumn) -> np.ndarray:
    """Distribution recovered from a score column; inverts exact_score_column."""
    q = s.values / s.values.sum()
    return ensure_distribution(q, "normalize_scores output")


def score_column(scorer: Scorer, y: np.ndarray, j: int, t: float) -> ScoreColumn:
    """One input's ratio column anchored at j, from a one-row score_batch read at t."""
    q = scorer.score_batch(np.asarray(y, dtype=np.float64)[None, :], np.asarray([j]), t)[0]
    return exact_score_column(q, int(j))


class ExactScorer(Scorer):
    """Oracle scorer built from a known clean-label posterior.

    posterior_fn maps a batch of features (n, dim) to exact clean posteriors
    (n, K); the read at time t is the forward marginal after sigma_bar(t)
    total noise, whatever the anchor.
    """

    def __init__(self, posterior_fn, k: int, schedule: LogLinearSchedule):
        self.posterior_fn = posterior_fn
        self.k = k
        self.schedule = schedule

    def score_batch(self, features, anchors, t, space=None):
        if isinstance(features, tuple):      # an engine tile's (prepared, inputs, tables)
            features = features[0][features[1]]
        features = np.asarray(features, dtype=np.float64)
        self._check_anchors(len(features), anchors)
        return forward_marginal(self.posterior_fn(features), self.schedule.sigma_bar(float(t)))


def bayes_accuracy(task: MixtureTask, corruption: CorruptionSpec, n: int,
                   rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo accuracy of the exact-posterior argmax, with binomial s.e."""
    y, labels = generate(task, n, corruption, rng)
    pred = np.argmax(true_posterior_batch(task, y, corruption), axis=1)
    acc = float((pred == labels).mean())
    return acc, math.sqrt(max(acc * (1.0 - acc), 1e-12) / n)


def fit_data(task: MixtureTask, n_train: int, n_eval: int, seed: int):
    """(training, held-out) (features, labels) draws of a task for train.fit: n_train
    then n_eval rows from default_rng([seed, 1]), a stream apart from fit's own."""
    rng = np.random.default_rng([seed, 1])
    return tuple(generate(task, n, CorruptionSpec(), rng) for n in (n_train, n_eval))


def in_float64(scorer):
    """The scorer, its float32 parameters replaced by float64 copies.

    A float32 entry cannot take a finite difference's small step.  On
    float64 parameters every forward, backward and gradient runs in
    float64, whatever the features' dtype, and so does an optimizer
    (train.AdamState) made on them.
    """
    scorer.params = {name: value.astype(np.float64) for name, value in scorer.params.items()}
    return scorer


class UniformScorer(Scorer):
    """The uniform distribution for every query; the uniform-belief fixed point."""

    def __init__(self, k: int):
        self.k = k

    def score_batch(self, features, anchors, t, space=None):
        return np.full((len(anchors), self.k), 1.0 / self.k)


@dataclass(frozen=True)
class LossBreakdown:
    """Value of the objective for one (true, predicted) column pair."""

    total: float
    per_class: np.ndarray
    sigma_t: float
    anchor: int
    n_floored: int = 0  # log arguments lifted to the floor; diagnostic only


def _check_pair(s_true: ScoreColumn, s_pred: ScoreColumn) -> None:
    if s_true.anchor != s_pred.anchor:
        raise ValidationError(
            f"anchor mismatch: true={s_true.anchor}, pred={s_pred.anchor}"
        )
    if s_true.k != s_pred.k:
        raise ValidationError("score columns differ in length")


def score_entropy_loss(s_true: ScoreColumn, s_pred: ScoreColumn, sigma_t: float) -> LossBreakdown:
    """Weighted loss (sigma_t / K) * sum_i f(s_hat_i); zero iff the columns match."""
    _check_pair(s_true, s_pred)
    per, n_floored = score_entropy_terms(s_true.values, s_pred.values)
    total = float(sigma_t / s_true.k * per.sum())
    return LossBreakdown(total, per, float(sigma_t), s_true.anchor, n_floored)


def score_entropy_grad(s_true: ScoreColumn, s_pred: ScoreColumn, sigma_t: float) -> np.ndarray:
    """Analytic gradient of the loss with respect to the predicted column.

    d/ds_hat_i = (sigma_t / K) * (1 - s_i / s_hat_i); vanishes exactly at
    s_hat = s and matches central finite differences of score_entropy_loss.
    """
    _check_pair(s_true, s_pred)
    sp = np.maximum(s_pred.values, PROB_FLOOR)
    st = np.maximum(s_true.values, PROB_FLOOR)
    return sigma_t / s_true.k * (1.0 - st / sp)


def silu_grad(x: np.ndarray) -> np.ndarray:
    """d/dx of x * sigmoid(x), from a fresh exp."""
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def reference_groupnorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, groups: int):
    """GroupNorm of (n, h) rows in float64 by numpy's mean and variance over each
    group of h // groups units: (out, xhat, variances of shape (n, groups, 1))."""
    n = len(x)
    xg = np.asarray(x, dtype=np.float64).reshape(n, groups, -1)
    var = xg.var(axis=2, keepdims=True)
    xhat = ((xg - xg.mean(axis=2, keepdims=True)) / np.sqrt(var + GN_EPS)).reshape(n, -1)
    out = xhat * np.asarray(gamma, dtype=np.float64) + np.asarray(beta, dtype=np.float64)
    return out, xhat, var


def reference_groupnorm_backward(dout: np.ndarray, x: np.ndarray, gamma: np.ndarray,
                                 groups: int):
    """(dx, dgamma, dbeta) of reference_groupnorm's output at input x, given dL/dout, in
    float64: dx = (g - mean(g) - xhat * mean(g * xhat)) / std per group, g = dout * gamma."""
    n = len(x)
    dout = np.asarray(dout, dtype=np.float64)
    _, xhat, var = reference_groupnorm(x, gamma, np.zeros_like(gamma), groups)
    g = (dout * np.asarray(gamma, dtype=np.float64)).reshape(n, groups, -1)
    xh = xhat.reshape(g.shape)
    dx = (g - g.mean(axis=2, keepdims=True)
          - xh * (g * xh).mean(axis=2, keepdims=True)) / np.sqrt(var + GN_EPS)
    return dx.reshape(n, -1), (dout * xhat).sum(axis=0), dout.sum(axis=0)


def reference_logits(params: dict, cfg: MlpConfig, features: np.ndarray, anchors: np.ndarray,
                     t: np.ndarray, schedule: LogLinearSchedule) -> np.ndarray:
    """The scorer network's logits in plain float64 on its master parameters.

    Written from the network's definition, apart from the package's forward
    and its inference form: SiLU as x / (1 + exp(-x)), b2 on the residual
    branch, GroupNorm by numpy's mean and variance with the unhalved gain
    and shift, and the conditioning added after the branch.
    """
    def silu(x):
        return x / (1.0 + np.exp(-x))

    p = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}
    scalar = schedule.sigma_bar(np.asarray(t, dtype=np.float64)) / schedule.sigma_bar_max
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), cfg.time_embed_dim // 2))
    angles = np.outer(scalar, freqs)
    time_embedding = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)
    cond = p["embed"][anchors] + time_embedding @ p["time_w"].T + p["time_b"]
    h = silu(np.asarray(features, dtype=np.float64) @ p["in_w"].T + p["in_b"])
    for b in range(cfg.n_blocks):
        branch = silu(h @ p[f"w1_{b}"].T + p[f"b1_{b}"]) @ p[f"w2_{b}"].T + p[f"b2_{b}"]
        x = h + branch + silu(cond) @ p[f"cw_{b}"].T + p[f"cb_{b}"]
        h = silu(reference_groupnorm(x, p[f"gn_g_{b}"], p[f"gn_b_{b}"], cfg.groups)[0])
    return h @ p["out_w"].T + p["out_b"]


def adam_reference(params: dict, grads: dict, m: dict, v: dict, step: int, lr: float,
                   betas: tuple[float, float], eps: float = 1e-8) -> None:
    """One Adam step (step counts from 1) per array, replacing the dicts' entries:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2, p -= lr * (m/bc1) / (sqrt(v/bc2) + eps)."""
    b1, b2 = betas
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    for name, g in grads.items():
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * g ** 2
        params[name] = params[name] - lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
