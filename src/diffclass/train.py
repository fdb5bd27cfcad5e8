"""Stochastic training of the ratio-score network.

One step per batch: build the clean one-hot label distribution, draw a
noise time uniformly per example, push the distribution through the
closed-form forward marginal, sample a noisy label from it, form the true
ratio column against that anchor, score with the network, and descend the
score-entropy objective with an adaptive-moment update.

fit trains in mixed precision: it casts the features to float32 once, so
the scorer's forward and backward run the trunk in float32 on a per-step
cast of the parameters (the head stays float64), while the master
parameters, the gradients handed to clipping, the Adam moments and the
checkpoints stay float64.  train_step itself runs in the dtype of the
features it is given; on float64 features the whole step is float64.

All randomness flows from the config seed, so a fixed seed reproduces the
run bit-for-bit in single-threaded mode.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import CorruptionSpec, MixtureTask, generate, true_posterior_batch
from .errors import NumericalError, ValidationError
from .loss import loss_grad_wrt_logits, score_entropy_terms
from .mlp import MlpConfig, MlpScorer
from .schedule import LogLinearSchedule
from .score import floor_probs
from .transition import forward_marginal, sample_categorical_rows


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    batch_size: int = 128
    learning_rate: float = 2e-3
    betas: tuple[float, float] = (0.9, 0.999)
    seed: int = 0
    sigma_bar_max: float = 0.6
    schedule_decay: float = 0.7
    grad_clip: float = 1.0
    embed_dim: int = 64
    hidden_dim: int = 128
    n_blocks: int = 3
    time_embed_dim: int = 64
    groups: int = 8
    time_input: str = "total-noise"
    lr_schedule: str = "cosine"     # or "constant"
    stratified_t: bool = False      # low-discrepancy time draws instead of iid
    eval_steps: int = 8             # reverse steps for per-epoch validation
    eval_subset: int = 512          # validation inputs scored per epoch

    def __post_init__(self) -> None:
        if min(self.epochs, self.batch_size) < 1:
            raise ValidationError("epochs and batch_size must be positive")
        if self.learning_rate < 0.0 or self.grad_clip <= 0.0:
            raise ValidationError("learning_rate must be >= 0 and grad_clip > 0")
        if not (0.0 < self.betas[0] < 1.0 and 0.0 < self.betas[1] < 1.0):
            raise ValidationError("moment decays must lie in (0, 1)")
        if self.lr_schedule not in ("cosine", "constant"):
            raise ValidationError("lr_schedule must be 'cosine' or 'constant'")

    def schedule(self) -> LogLinearSchedule:
        return LogLinearSchedule(self.sigma_bar_max, self.schedule_decay)

    def mlp_config(self, n_classes: int, feature_dim: int) -> MlpConfig:
        return MlpConfig(
            n_classes, feature_dim, embed_dim=self.embed_dim, hidden_dim=self.hidden_dim,
            n_blocks=self.n_blocks, time_embed_dim=self.time_embed_dim,
            groups=self.groups, time_input=self.time_input,
        )


# The dtype fit casts the training features to, and so the dtype of the trunk's
# forward and backward; the master parameters stay float64 whatever it is.
TRAIN_FEATURE_DTYPE = np.float32


def learning_rate(config: TrainConfig, step: int, total_steps: int) -> float:
    """The step's learning rate: cosine decay from config.learning_rate, or constant."""
    if config.lr_schedule == "constant":
        return config.learning_rate
    frac = step / max(total_steps, 1)
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * frac))


@dataclass
class AdamState:
    """First/second moment accumulators mirroring the parameter shapes."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


@dataclass(frozen=True)
class TrainStepStats:
    """Aggregate loss of one batch: mean total, mean per-class terms, mean weight."""

    total: float
    per_class: np.ndarray
    mean_sigma: float
    grad_norm: float
    n_floored: int


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    norm = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def adam_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                state: AdamState, lr: float, betas: tuple[float, float],
                eps: float = 1e-8) -> None:
    state.step += 1
    b1, b2 = betas
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    # In place, in the order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2 and
    # p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), so the result is the same to the bit.
    for key, p in params.items():
        g, m, v = grads[key], state.m[key], state.v[key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        step = np.divide(m, bc1)
        step *= lr
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p -= step


def batch_loss_and_grads(scorer: MlpScorer, features: np.ndarray, q0: np.ndarray,
                         schedule: LogLinearSchedule, rng: np.random.Generator,
                         stratified_t: bool = False):
    """Forward-noise a batch, score it, and return (stats, parameter grads).

    q0 rows may be one-hot labels or any distribution on the simplex (mixed
    targets are supported structurally).
    """
    n, k = q0.shape
    if stratified_t:
        t = (np.arange(n) + rng.random(n)) / n
    else:
        t = rng.random(n)
    q_t = forward_marginal(q0, np.asarray(schedule.sigma_bar(t)))
    anchors = sample_categorical_rows(rng, q_t)
    q_t = floor_probs(q_t)
    s_true = q_t / q_t[np.arange(n), anchors][:, None]
    s_true[np.arange(n), anchors] = 1.0

    z, cache = scorer.logits(features, anchors, t)
    s_pred = np.exp(z - z[np.arange(n), anchors][:, None])
    s_pred[np.arange(n), anchors] = 1.0

    sigma_t = np.asarray(schedule.sigma(t))
    per, n_floored = score_entropy_terms(s_true, s_pred)
    weights = sigma_t / k
    losses = weights * per.sum(axis=1)
    total = float(losses.mean())
    if not math.isfinite(total):
        raise NumericalError("non-finite training loss; aborting step")

    dz = loss_grad_wrt_logits(s_true, s_pred, anchors, sigma_t, k) / n
    grads = scorer.param_grads(dz, cache)
    stats = TrainStepStats(total, per.mean(axis=0), float(sigma_t.mean()), 0.0, n_floored)
    return stats, grads


@np.errstate(over="ignore", invalid="ignore")   # a diverging step raises NumericalError
def train_step(scorer: MlpScorer, opt_state: AdamState, features: np.ndarray,
               labels: np.ndarray, schedule: LogLinearSchedule,
               rng: np.random.Generator, lr: float, betas=(0.9, 0.999),
               grad_clip: float = 1.0, stratified_t: bool = False):
    """One stochastic update on a labeled batch; mutates scorer params and opt state.

    Returns (scorer, opt_state, stats) for callers that prefer the
    functional shape.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValidationError("batch must be non-empty")
    if labels.min() < 0 or labels.max() >= scorer.k:
        raise ValidationError("labels out of range")
    q0 = np.zeros((labels.size, scorer.k))
    q0[np.arange(labels.size), labels] = 1.0
    stats, grads = batch_loss_and_grads(scorer, features, q0, schedule, rng, stratified_t)
    norm = clip_global_norm(grads, grad_clip)
    if not math.isfinite(norm):
        raise NumericalError("non-finite gradient; aborting step")
    adam_update(scorer.params, grads, opt_state, lr, betas)
    stats = TrainStepStats(stats.total, stats.per_class, stats.mean_sigma, norm, stats.n_floored)
    return scorer, opt_state, stats


class TrainingDiverged(NumericalError):
    """An epoch of fit failed numerically; carries what the epochs before it made.

    scorer holds the parameters after the last finished epoch (the initial
    parameters when none finished) and metrics the finished epochs' metrics.
    """

    def __init__(self, epoch: int, scorer: MlpScorer, metrics: list, cause: NumericalError):
        kept = f"epoch {epoch - 1}" if metrics else "initialization"
        super().__init__(f"training diverged in epoch {epoch} ({cause}); "
                         f"kept the parameters from {kept}")
        self.epoch = epoch
        self.scorer = scorer
        self.metrics = metrics


@dataclass
class EpochMetrics:
    epoch: int
    loss: float
    tv: float
    top1: float
    wall_ms: float


def fit(config: TrainConfig, task: MixtureTask, n_train: int = 20000, n_eval: int = 2000,
        corruption: CorruptionSpec = CorruptionSpec(),
        train_data=None, eval_data=None):
    """Train a scorer on a mixture task; returns (scorer, per-epoch metrics).

    Data is generated from the task unless (features, labels) pairs are
    passed explicitly; the training features are cast to
    TRAIN_FEATURE_DTYPE once, which is exact for features read from a
    dataset file (stored as float32).  Validation runs the
    class-probability sampler at config.eval_steps on a held-out subset
    each epoch.  A numerical failure
    in an epoch's steps or validation raises TrainingDiverged, which names
    the epoch and carries the scorer with the last finished epoch's
    parameters and the finished epochs' metrics.
    """
    from .sampler import SamplerConfig, posterior_cp_batch  # deferred: avoids cycle

    rng = np.random.default_rng(config.seed)
    if train_data is None:
        train_data = generate(task, n_train, corruption, rng)
    if eval_data is None:
        eval_data = generate(task, n_eval, corruption, rng)
    features, labels = train_data
    features = np.asarray(features, dtype=TRAIN_FEATURE_DTYPE)
    eval_y, eval_c = eval_data
    n_sub = min(config.eval_subset, eval_y.shape[0])
    eval_y_sub, eval_c_sub = eval_y[:n_sub], eval_c[:n_sub]
    eval_q = true_posterior_batch(task, eval_y_sub, corruption)

    schedule = config.schedule()
    scorer = MlpScorer(config.mlp_config(task.k, task.dim), schedule, seed=config.seed)
    opt = AdamState.init(scorer.params)
    n = features.shape[0]
    steps_per_epoch = max(1, math.ceil(n / config.batch_size))
    total_steps = config.epochs * steps_per_epoch
    cp_cfg = SamplerConfig(n_steps=config.eval_steps, seed=config.seed)

    metrics: list[EpochMetrics] = []
    best = {k: p.copy() for k, p in scorer.params.items()}
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        try:
            for lo in range(0, n, config.batch_size):
                idx = order[lo:lo + config.batch_size]
                _, _, stats = train_step(
                    scorer, opt, features[idx], labels[idx], schedule, rng,
                    lr=learning_rate(config, opt.step, total_steps), betas=config.betas,
                    grad_clip=config.grad_clip, stratified_t=config.stratified_t,
                )
                epoch_loss += stats.total
                n_batches += 1
            p0, _, _ = posterior_cp_batch(eval_y_sub, scorer, schedule, cp_cfg)
        except NumericalError as exc:
            scorer.params = best
            raise TrainingDiverged(epoch, scorer, metrics, exc) from exc
        best = {k: p.copy() for k, p in scorer.params.items()}
        tv = float(0.5 * np.abs(p0 - eval_q).sum(axis=1).mean())
        top1 = float((np.argmax(p0, axis=1) == eval_c_sub).mean())
        wall_ms = (time.perf_counter() - t0) * 1e3
        metrics.append(EpochMetrics(epoch, epoch_loss / max(n_batches, 1), tv, top1, wall_ms))
    return scorer, metrics
