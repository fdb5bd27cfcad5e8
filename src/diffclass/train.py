"""Stochastic training of the scorer network on ratio scores.

One step per batch: build the clean one-hot label distribution, draw one
noise time per example, iid uniform on [0, 1), push the distribution
through the closed-form forward marginal, sample a noisy label from it,
form the true ratio column against that anchor, score with the network,
and descend the score-entropy objective with an adaptive-moment update.

fit trains in float32.  The master parameters, their gradients, the Adam
moments and so the checkpoints are float32: the optimizer's buffers are,
and the gradient norm and the Adam step run in float32, so a checkpoint
holds exactly the parameters the fit ends with.  The scorer's forward and
backward run in the parameters' dtype, on an inference form of them that
each forward builds from the master ones (mlp.inference_params), and take
each batch of features in that dtype: a dataset file's float32 rows
(data.load_dataset) as they are, so they are held once.  Only the logits
and the loss, noise and ratio columns around them are float64.

Each optimizer (AdamState) owns one workspace, allocated once per fit:
contiguous float32 buffers for the parameters, their gradients, the two
moments and the epoch's starting parameters, one small scratch array, and
the step arrays (work).  The scorer's params entries are views into the
parameter buffer, and param_grads writes into the gradient buffer's views:
the backward writes every gradient there itself, and no step array holds
one.  So each gradient is held once, clipping is one dot product and one
scale, and the Adam step is thirteen ufuncs over each cache-sized slice
of the buffers:

    m = b1*m + (1-b1)*g,  v = b2*v + (1-b2)*g**2,
    p -= (lr/bc1) * m / (sqrt(v) * (1/sqrt(bc2)) + eps),

with the bias corrections bc = 1 - b**step folded into scalars (in exact
arithmetic, lr * (m/bc1) / (sqrt(v/bc2) + eps)), and Kingma & Ba's
published (b1, b2) = ADAM_BETAS and eps = ADAM_EPS (arXiv:1412.6980).

The step arrays are every array a step's forward and backward make for up
to batch_size rows: the float32 inference form, which each forward
rebuilds in place from the master views, the trunk's logits, the backprop
cache and the backward's temporaries (mlp._array; a short tail batch
takes views of their first rows).  An epoch's first step makes them and
the epoch's validation, which needs memory of its own, starts by freeing
them.  Freed and made again at every step, they cost a
fresh-process train of the reference model (1 epoch on 32,000 rows, 2-vCPU
Xeon) 158,000 minor page faults, as glibc returned the heap's top to the
system after each step and faulted it back in at the next; kept, 8,400.
Kept through the validation, they raised that process's peak RSS by 1.7
MiB.  Each epoch starts by copying the parameter buffer into best, which a
numerical failure copies back (TrainingDiverged).

The comparison grid's cross-entropy baseline is the same network read at
one fixed (BASELINE_ANCHOR, BASELINE_T), where the conditioning is one
constant row that each block's cb could hold: the scorer's trunk,
GroupNorm and head as a plain classifier.  fit trains it with
cross_entropy on the same loop, and ce_baseline_proba is the scorer's
read there (MlpScorer.score_batch, the softmax of its logits).  fit's
per-epoch validation (EVAL_STEPS cp steps on EVAL_SUBSET held-out
inputs) runs only when the caller passes held-out data, and draws
nothing from the training stream.

All randomness flows from the config seed, so a fixed seed reproduces the
run bit-for-bit with one BLAS thread.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .data import CorruptionSpec, MixtureTask, true_posterior_batch
from .errors import NumericalError, ValidationError
from .loss import loss_grad_wrt_logits, score_entropy_terms
from .mlp import MlpConfig, MlpScorer
from .sampler import SamplerConfig, check_samplable, posterior_cp_batch
from .schedule import LogLinearSchedule
from .score import floor_probs
from .transition import forward_marginal, sample_categorical_rows


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    batch_size: int = 128
    learning_rate: float = 2e-3
    seed: int = 0
    sigma_bar_max: float = 0.6
    schedule_decay: float = 0.7
    grad_clip: float = 1.0
    embed_dim: int = MlpConfig.embed_dim
    hidden_dim: int = MlpConfig.hidden_dim
    n_blocks: int = MlpConfig.n_blocks
    time_embed_dim: int = MlpConfig.time_embed_dim

    def __post_init__(self) -> None:
        if min(self.epochs, self.batch_size) < 1:
            raise ValidationError("epochs and batch_size must be positive")
        # Written so that NaN fails too: a NaN grad_clip would never clip.
        if not (0.0 <= self.learning_rate < math.inf and 0.0 < self.grad_clip < math.inf):
            raise ValidationError("learning_rate must be finite and >= 0, "
                                  "and grad_clip finite and > 0")

    def schedule(self) -> LogLinearSchedule:
        return LogLinearSchedule(self.sigma_bar_max, self.schedule_decay)

    def mlp_config(self, n_classes: int, feature_dim: int) -> MlpConfig:
        """The scorer's shape: this config's widths and block count."""
        return MlpConfig(n_classes, feature_dim, embed_dim=self.embed_dim,
                         hidden_dim=self.hidden_dim, n_blocks=self.n_blocks,
                         time_embed_dim=self.time_embed_dim)


# The (anchor, t) at which the cross-entropy baseline reads its scorer.
BASELINE_ANCHOR = 0
BASELINE_T = 0.0

# fit's per-epoch validation: reverse steps, and held-out inputs scored.
EVAL_STEPS = 8
EVAL_SUBSET = 512
# Adam's moment decays and denominator offset.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def learning_rate(config: TrainConfig, step: int, total_steps: int) -> float:
    """The step's learning rate: cosine decay from config.learning_rate."""
    frac = step / max(total_steps, 1)
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * frac))


# Elements per slice of adam_update.  Five float32 slices of this size (640 KiB)
# stay in a 2 MiB L2 cache.  On such a Xeon (2 vCPUs, medians of 9 runs of 400
# steps) the reference model's 130,888-element float32 step took 0.345 ms in
# slices of 16,384 elements, 0.296 ms in slices of 32,768, and 0.293 ms in
# slices of 65,536 and over the whole buffers; the float64 step took 0.76 ms.
ADAM_CHUNK = 32768


class AdamState:
    """Adam's step count and the optimizer's one workspace.

    The workspace is four contiguous buffers of the parameters' total size
    and dtype (float32 in every fit, float64 on a float64 copy of the
    parameters), rows of one block: the master parameters (flat), their
    gradients (grad) and the two moments (m, v); one more, the epoch's
    snapshot of flat (best); one scratch buffer of ADAM_CHUNK elements for
    adam_update; and work, the step arrays that MlpScorer.logits and
    param_grads take from it by name (mlp._array), made by an epoch's first
    step and freed before its validation (fit).  params and grads
    map each parameter name to its view into flat and grad.  Packing a
    parameter dict (the constructor, pack) copies its arrays into flat and
    makes its entries those views, so the optimizer's whole-buffer updates
    are updates to the dict.  Each forward rebuilds the inference form it
    runs on from the master views, in work's arrays.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        size = sum(np.size(v) for v in params.values())
        dtype = next(iter(params.values())).dtype
        self.step = 0
        self.flat, self.grad, self.m, self.v = np.zeros((4, size), dtype)
        # Apart from flat's block, which the scorer's parameter views keep alive after the fit.
        self.best = np.empty(size, dtype)
        self.scratch = np.empty(min(size, ADAM_CHUNK), dtype)
        self.work: dict[str, np.ndarray] = {}
        self.params = self._views(self.flat, params)
        self.grads = self._views(self.grad, params)
        self.pack(params)

    @staticmethod
    def _views(buffer: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        views, lo = {}, 0
        for name, value in like.items():
            views[name] = buffer[lo:lo + np.size(value)].reshape(np.shape(value))
            lo += np.size(value)
        return views

    def pack(self, params: dict[str, np.ndarray]) -> None:
        """Make params' entries the workspace's views, copying in any array that is not.

        An entry a caller replaced with a new array since the last pack is
        copied into the buffer here, rounded to its dtype; one changed in place
        already is the buffer.
        """
        for name, view in self.params.items():
            value = params[name]
            if value is not view:
                if np.shape(value) != view.shape:
                    raise ValidationError(f"parameter {name!r} has shape {np.shape(value)}, "
                                          f"expected {view.shape}")
                view[...] = value
                params[name] = view


@dataclass(frozen=True)
class TrainStepStats:
    """One batch's mean loss, gradient norm before clipping, and floored log arguments."""

    total: float
    grad_norm: float
    n_floored: int


def clip_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale a flat gradient buffer in place to norm max_norm if it is longer; return its norm."""
    norm = math.sqrt(float(np.dot(grad, grad)))
    if norm > max_norm:
        grad *= max_norm / norm
    return norm


def adam_update(state: AdamState, lr: float) -> None:
    """One Adam step over the workspace: the parameters from the gradient buffer.

    The buffers are walked in ADAM_CHUNK-element slices, so each slice's
    thirteen ufuncs run on data the cache holds.
    """
    state.step += 1
    b1, b2 = ADAM_BETAS
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    # p -= (lr / bc1) * m / (sqrt(v) * (1 / sqrt(bc2)) + eps): the bias corrections are
    # folded into scalars, which in exact arithmetic is lr * (m/bc1) / (sqrt(v/bc2) + eps).
    step_size, v_scale = lr / bc1, 1.0 / math.sqrt(bc2)
    for lo in range(0, state.flat.size, ADAM_CHUNK):
        p, g, m, v = (a[lo:lo + ADAM_CHUNK] for a in (state.flat, state.grad, state.m, state.v))
        s = state.scratch[:p.size]
        m *= b1
        np.multiply(g, 1.0 - b1, out=s)
        m += s
        v *= b2
        np.square(g, out=s)
        s *= 1.0 - b2
        v += s
        np.sqrt(v, out=s)
        s *= v_scale
        s += ADAM_EPS
        np.divide(m, s, out=s)
        s *= step_size
        p -= s


def batch_loss_and_grads(scorer: MlpScorer, features: np.ndarray, labels: np.ndarray,
                         schedule: LogLinearSchedule, rng: np.random.Generator,
                         workspace: AdamState | None = None):
    """Forward-noise a labeled batch, score it, and return (stats, parameter grads).

    Each example draws its time iid uniform on [0, 1), then its anchor from
    the forward marginal of its one-hot label at that time.  With a
    workspace, packed with scorer.params, the gradients are written into
    its gradient views.
    """
    q0 = np.eye(scorer.k)[labels]
    n, k = q0.shape
    t = rng.random(n)
    q_t = forward_marginal(q0, np.asarray(schedule.sigma_bar(t)))
    anchors = sample_categorical_rows(q_t, rng.random(n))
    q_t = floor_probs(q_t)
    s_true = q_t / q_t[np.arange(n), anchors][:, None]
    s_true[np.arange(n), anchors] = 1.0

    z, cache = scorer.logits(features, anchors, t, None if workspace is None else workspace.work)
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
    grads = scorer.param_grads(dz, cache, None if workspace is None else workspace.grads)
    return TrainStepStats(total, 0.0, n_floored), grads


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z


def cross_entropy_loss_and_grads(scorer: MlpScorer, features: np.ndarray, labels: np.ndarray,
                                 workspace: AdamState | None = None):
    """Mean cross-entropy of the scorer's logits at (BASELINE_ANCHOR, BASELINE_T) on a
    labeled batch; returns (stats, grads).  A workspace serves as in batch_loss_and_grads."""
    n = labels.size
    z, cache = scorer.logits(features, np.full(n, BASELINE_ANCHOR), np.full(n, BASELINE_T),
                             None if workspace is None else workspace.work)
    log_p = _log_softmax(z)
    rows = np.arange(n)
    total = float(-log_p[rows, labels].mean())
    if not math.isfinite(total):
        raise NumericalError("non-finite cross-entropy loss; aborting step")
    dz = np.exp(log_p)
    dz[rows, labels] -= 1.0
    dz /= n
    grads = scorer.param_grads(dz, cache, None if workspace is None else workspace.grads)
    return TrainStepStats(total, 0.0, 0), grads


@np.errstate(over="ignore", invalid="ignore")   # a diverging step raises NumericalError
def train_step(scorer: MlpScorer, opt_state: AdamState, features: np.ndarray,
               labels: np.ndarray, schedule: LogLinearSchedule,
               rng: np.random.Generator, lr: float, grad_clip: float, cross_entropy: bool):
    """One stochastic update on a labeled batch; mutates scorer params and opt state.

    The loss is the score-entropy objective (batch_loss_and_grads), or with
    cross_entropy the baseline's (cross_entropy_loss_and_grads), which
    ignores schedule and rng.  Returns (scorer, opt_state, stats) for
    callers that prefer the functional shape.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValidationError("batch must be non-empty")
    if labels.min() < 0 or labels.max() >= scorer.k:
        raise ValidationError("labels out of range")
    opt_state.pack(scorer.params)
    if cross_entropy:
        stats, _ = cross_entropy_loss_and_grads(scorer, features, labels, opt_state)
    else:
        stats, _ = batch_loss_and_grads(scorer, features, labels, schedule, rng, opt_state)
    norm = clip_global_norm(opt_state.grad, grad_clip)
    if not math.isfinite(norm):
        raise NumericalError("non-finite gradient; aborting step")
    adam_update(opt_state, lr)
    return scorer, opt_state, replace(stats, grad_norm=norm)


class TrainingDiverged(NumericalError):
    """An epoch of training failed numerically; carries what the epochs before it made.

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


def fit(config: TrainConfig, task: MixtureTask, train_data: tuple[np.ndarray, np.ndarray],
        eval_data: tuple[np.ndarray, np.ndarray] | None = None,
        corruption: CorruptionSpec = CorruptionSpec(), cross_entropy: bool = False):
    """Train a scorer on train_data, (features, labels); returns (scorer, per-epoch metrics).

    config.epochs passes of train_step over batches shuffled by
    default_rng(config.seed).  With eval_data, each epoch ends by scoring
    EVAL_STEPS cp steps on its first EVAL_SUBSET inputs against the exact
    posterior under corruption, and a schedule that cannot sample those
    steps raises ValidationError before training; without it, each epoch's
    tv and top1 are NaN.  Validation draws nothing from the training
    stream, so the scorer does not depend on it.  With cross_entropy, which
    takes no eval_data, the scorer is the comparison grid's baseline.  A
    numerical failure in an epoch raises TrainingDiverged, which carries
    the scorer with the last finished epoch's parameters and metrics.
    """
    if cross_entropy and eval_data is not None:
        raise ValidationError("the cross-entropy baseline takes no eval_data: "
                              "validation reads the score-entropy sampler")
    if eval_data is not None:
        check_samplable(config.schedule(), task.k, EVAL_STEPS, "validation")
        eval_y, eval_c = (a[:EVAL_SUBSET] for a in eval_data)
        eval_q = true_posterior_batch(task, eval_y, corruption)
        cp_cfg = SamplerConfig(n_steps=EVAL_STEPS)
    scorer = MlpScorer(config.mlp_config(task.k, task.dim), config.schedule(), seed=config.seed)
    if cross_entropy:
        # Zero conditioning projections start the baseline as the plain classifier; random
        # ones add an offset per block that cost 0.015 top-1 on criterion-8 cells of 500 rows.
        for b in range(scorer.cfg.n_blocks):
            scorer.params[f"cw_{b}"][...] = 0.0
    rng = np.random.default_rng(config.seed)
    features, labels = train_data
    opt = AdamState(scorer.params)
    n = features.shape[0]
    total_steps = config.epochs * max(1, math.ceil(n / config.batch_size))
    metrics: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        opt.pack(scorer.params)
        np.copyto(opt.best, opt.flat)
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        tv = top1 = math.nan
        try:
            for lo in range(0, n, config.batch_size):
                idx = order[lo:lo + config.batch_size]
                _, _, stats = train_step(
                    scorer, opt, features[idx], labels[idx], scorer.schedule, rng,
                    lr=learning_rate(config, opt.step, total_steps), grad_clip=config.grad_clip,
                    cross_entropy=cross_entropy)
                epoch_loss += stats.total
                n_batches += 1
            opt.work.clear()        # the validation reuses the step arrays' memory
            if eval_data is not None:
                p0, _ = posterior_cp_batch(eval_y, scorer, scorer.schedule, cp_cfg)
                tv = float(0.5 * np.abs(p0 - eval_q).sum(axis=1).mean())
                top1 = float((np.argmax(p0, axis=1) == eval_c).mean())
        except NumericalError as exc:
            np.copyto(opt.flat, opt.best)
            scorer.params = dict(opt.params)
            raise TrainingDiverged(epoch, scorer, metrics, exc) from exc
        wall_ms = (time.perf_counter() - t0) * 1e3
        metrics.append(EpochMetrics(epoch, epoch_loss / max(n_batches, 1), tv, top1, wall_ms))
    return scorer, metrics


def ce_baseline_proba(scorer: MlpScorer, features: np.ndarray) -> np.ndarray:
    """Class probabilities of a fit(..., cross_entropy=True) scorer: its read at
    (BASELINE_ANCHOR, BASELINE_T)."""
    return scorer.score_batch(features, np.full(len(features), BASELINE_ANCHOR), BASELINE_T)
