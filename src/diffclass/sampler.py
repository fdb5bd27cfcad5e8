"""Reverse-process posterior estimators.

One engine, _reverse, runs all three estimators over rows of inputs.  They
walk from a uniform start at t=1 down to t=0 on the same time grid, n_steps
equal steps in t (step_times), take the same step, and differ in what they
carry, in the scorer rows r each input spends per step, and in their row
kernel:

  cp    probability vector; r = 1; _cp_step_batch, rank-one, O(K) per row
  cl    n_samples label trajectories, averaged as one-hots at the end;
        r = n_samples; _cl_step_batch, then sample_categorical_rows
  full  probability vector, with a K x K matrix of class distributions,
        one scorer row per anchor; r = K; reverse_step_full

nfe = r * n_steps per input.  The engine takes inputs in the fewest
contiguous, near-equal blocks of at most max(1, SCORER_ROWS // r) inputs,
so memory stays bounded; per block it runs scorer.prepare once on the
repeated features (work that does not depend on the anchor or t) and then
one score_batch call per step, at the step's t, whose class distributions
go straight into the step's kernel and are dropped before the next call.
The features reach the scorer in the dtype they come in (a dataset's
float32, as load_dataset returns it): the engine makes no wider copy, and
each scorer casts where it computes (MlpScorer.prepare, to its
parameters' float32).

The step is exact over its interval [s, t]: the forward process keeps a
share e = exp(-K (sigma_bar(t) - sigma_bar(s))) of the label distribution
and spreads the rest uniformly, q_t = e q_s + c with c = (1 - e) / K.
_denoise inverts that for the scorer's distribution q_t, floored at
PROB_FLOOR as read: q_s = max((q_t - c) / e, 0), renormalized and floored,
and the kernel moves the state by the posterior of the label at s given the
label at t, q_s(i) (e [i = j] + c) / q_t(j).  With an exact scorer this is
the exact posterior at any step count (the uniform-rate case of the Tweedie
tau-leaping denoiser of Lou, Meng & Ermon, arXiv:2310.16834).  The
denoised distribution's roundoff grows as float eps / e, so a step that keeps
less than MIN_KEPT_SHARE of the signal raises ValidationError, naming the
schedule, before the first scorer call (check_samplable, which computes
each step's e).

Clip telemetry.  A learned distribution can put a label below the uniform
floor c, where the denoised distribution goes negative.  Those entries are
clipped and the rest renormalized; the share of the remaining mass that the
clip took, a probability in [0, 1), is recorded.  Entries below zero by no more
than roundoff (ROUNDOFF * c) are clipped but not counted, so an exact
scorer records none.  Clipping keeps coarse-step sweeps runnable while
making the violation visible.

Random streams: cp and full draw nothing; cp's anchor is a fixed rule of
the state (argmax or argmin).  cl draws trajectory j of input i (its row
in the call) from default_rng([cfg.seed + i, j]): one uniform for the
start label and one per step.  So no estimator's result depends on the
blocking, and for cl input i run alone with seed cfg.seed + i matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .schedule import LogLinearSchedule
from .score import Scorer, floor_probs
from .transition import ensure_distribution, sample_categorical_rows

STRATEGIES = ("argmax", "argmin")
# A denoised entry below zero by at most ROUNDOFF * c is roundoff, not a
# scorer below the uniform floor c: clipped, but not counted as clipping.
ROUNDOFF = 64 * np.finfo(np.float64).eps
# The least share e of the label signal a step may keep: _denoise divides the
# read's roundoff by e, unseen.  On a 10-class ring (tests/oracles.ExactScorer,
# 200 inputs) one cp step read 6.1e-4 mean TV from the exact posterior at
# e = 9.4e-14, with nothing clipped, and 3.2e-8 at e = 2.1e-9.
MIN_KEPT_SHARE = 1e-8

# Scorer rows per engine block (inputs x rows per input).  8,000 cp inputs run
# as two blocks of 4,000, each of which the scorer cuts into four 1,000-row
# tiles that its two workers take from one queue.  Halving the block from 8,192
# pays for the second worker's work arrays: 8,000-input evals (8 steps, one
# BLAS thread) peaked at 48.2 MiB RSS for cp, 58.3 for cl at 16 samples and
# 51.4 for full at 8,192 rows on one worker, and at 44.8, 47.0 and 44.7 at
# 4,096 on two, each block's prepared rows dropped before the next
# block's.  Larger blocks cost memory and gained no speed: at 16,384 rows the
# same cl eval peaked at 76 MiB and ran no faster than at 8,192.
SCORER_ROWS = 4096


@dataclass(frozen=True)
class SamplerConfig:
    """One posterior call's settings; seed keys cl's streams, the only random draws."""

    n_steps: int
    strategy: str = "argmin"
    n_samples: int = 16
    seed: int = 0
    record_trajectory: bool = False

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")
        if self.n_samples < 1:
            raise ValidationError("n_samples must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"strategy must be one of {STRATEGIES}")


@dataclass(frozen=True)
class PosteriorEstimate:
    """Result for one input (dim,) or rows of inputs (n, dim), shaped to match.

    probs is (K,) or (n, K); trajectory is (n_steps + 1, [n,] K) from the
    uniform start.  nfe counts scorer rows per input.  clamp_mass is the
    probability mass clipped from an input, summed over its steps (cl:
    averaged over its trajectories) and averaged over the inputs.  A step's
    mass is the share of the denoised class distribution that the clip took
    (_denoise): cp's one read, the read at a cl trajectory's label, and for
    full the K reads, one per anchor, weighted by the state's probabilities,
    which for a scorer whose anchors agree (cp's rank-one view) is cp's one
    read.  n_clamped counts the (row, step) pairs whose clipped mass is
    above 0; a row is an input for cp and full, a trajectory for cl.
    """

    probs: np.ndarray
    nfe: int
    trajectory: np.ndarray | None = None
    clamp_mass: float = 0.0
    n_clamped: int = 0


def step_times(n_steps: int) -> list[tuple[float, float]]:
    """(t_k, dt) pairs walked by the reverse process, from t=1 down to t=0 in
    n_steps equal steps: t_k = 1 - k / n_steps."""
    dt = 1.0 / n_steps
    return [(1.0 - k * dt, dt) for k in range(n_steps)]


def _select_labels_batch(p: np.ndarray, strategy: str) -> np.ndarray:
    """cp's anchor per row for the next scorer call: the most ("argmax") or least
    ("argmin") probable label of the row's state, ties broken by lowest index."""
    return np.argmax(p, axis=1) if strategy == "argmax" else np.argmin(p, axis=1)


def check_samplable(schedule: LogLinearSchedule, k: int, n_steps: int,
                    run: str) -> list[tuple[float, float]]:
    """The (t, e) of each step [s, t] = [t - dt, t] of an n_steps reverse run at K=k:
    e = exp(-K (sigma_bar(t) - sigma_bar(s))), the share of the label distribution at
    s that the forward process keeps at t.  Raises ValidationError, naming the
    schedule and the run, if a step keeps less than MIN_KEPT_SHARE."""
    steps = []
    for t, dt in step_times(n_steps):
        e = math.exp(-k * (schedule.sigma_bar(t) - schedule.sigma_bar(max(t - dt, 0.0))))
        if e < MIN_KEPT_SHARE:
            raise ValidationError(
                f"sigma_bar_max={schedule.sigma_bar_max}, schedule_decay={schedule.decay}, "
                f"{n_steps}-step {run}: the step from t={t:.3g} keeps e={e:.1e} of the label "
                f"signal, below {MIN_KEPT_SHARE:.0e}, too little to denoise; use more steps")
        steps.append((t, e))
    return steps


def _denoise(q_t: np.ndarray, e: float, axis: int = -1):
    """The class distribution q_s at the step's start s, from the scorer's floored
    distribution q_t at its end t, along axis; e is the step's kept share
    (check_samplable).

    q_s is max(q_t - c, 0) with c = (1 - e) / K, normalized (without a clip,
    that is (q_t - c) / e) and floored at PROB_FLOOR, so no label is ruled
    out.  Also returns the clipped share: the negative mass of q_t - c, past
    roundoff, over the mass kept, in [0, 1).
    """
    c = (1.0 - e) / q_t.shape[axis]
    d = q_t - c
    kept = np.maximum(d, 0.0)
    total = kept.sum(axis=axis, keepdims=True)
    if not np.all(total > 0.0):
        raise NumericalError(f"a denoised read has no mass: the step keeps {e:.1e} of the "
                             f"label signal, below float precision; use more steps")
    clipped = np.where(d < -ROUNDOFF * c, -d, 0.0).sum(axis=axis, keepdims=True) / total
    return floor_probs(kept / total), clipped.squeeze(axis)


def reverse_step_full(s_matrix: np.ndarray, p: np.ndarray, e: float):
    """One exact reverse step of rows p (n, K), each with a K x K matrix (n, K, K)
    whose column j is the scorer's class distribution read at anchor j; e,
    finite in [MIN_KEPT_SHARE, 1], is the step's kept share (check_samplable).

    Column j of the kernel is q_s(j) * (e [i = j] + c) / q_t(j)(j), where q_t(j)
    is column j, floored, and q_s(j) its denoising by _denoise.
    Returns (next p rows, clipped probability mass per row).
    """
    s_matrix = np.asarray(s_matrix, dtype=np.float64)
    p = ensure_distribution(p, "reverse step input")
    if p.ndim != 2:
        raise ValidationError(f"probabilities must be rows (n, K); got shape {p.shape}")
    k = p.shape[1]
    if s_matrix.shape != p.shape + (k,):
        raise ValidationError(f"score matrix shape {s_matrix.shape} does not match "
                              f"probabilities of shape {p.shape}")
    if np.any(s_matrix < 0.0) or not np.all(np.abs(s_matrix.sum(axis=1) - 1.0) <= 1e-9):
        raise ValidationError("every score matrix column must be a class distribution: "
                              "finite, non-negative and summing to one")
    if not MIN_KEPT_SHARE <= e <= 1.0:
        raise ValidationError(f"e must be a kept share in [{MIN_KEPT_SHARE:.0e}, 1], got {e}")

    q_t = floor_probs(s_matrix)
    q_s, clip = _denoise(q_t, e, axis=1)
    w = p / np.diagonal(q_t, axis1=1, axis2=2)
    p_next = ((1.0 - e) / k * (q_s @ w[..., None])[..., 0]
              + e * np.diagonal(q_s, axis1=1, axis2=2) * w)
    p_next = ensure_distribution(p_next / p_next.sum(axis=1, keepdims=True),
                                 "reverse step output")
    return p_next, np.sum(p * clip, axis=1)


def _cp_step_batch(q_hat: np.ndarray, p: np.ndarray, e: float):
    """Rank-one fast path of reverse_step_full for rows of (q_hat, p).

    Identical step and clip semantics; O(K) per row instead of O(K^2).
    Returns (next p rows, clipped mass per row).
    """
    q_s, clip_rows = _denoise(q_hat, e)
    u = p / q_hat
    p_next = q_s * (e * u + (1.0 - e) / p.shape[1] * u.sum(axis=1, keepdims=True))
    return p_next / p_next.sum(axis=1, keepdims=True), clip_rows


def _cl_step_batch(scores: np.ndarray, states: np.ndarray, e: float):
    """Next-label distributions for trajectories at labels states, from the class
    distributions read at those labels, and the clipped mass per trajectory:
    label i in proportion to q_s(i) (e [i = j] + c) from label j, q_s the
    denoised read."""
    n, k = scores.shape
    rows = np.arange(n)
    q_s, clip = _denoise(floor_probs(scores), e)
    probs = (1.0 - e) / k * q_s
    probs[rows, states] += e * q_s[rows, states]
    return probs / probs.sum(axis=1, keepdims=True), clip


def _step(method: str, scores: np.ndarray, state: np.ndarray, e: float, u: np.ndarray | None):
    """One reverse step of a block's rows from their reads: the next state and the
    clipped mass per row.  e is the step's kept share; u, cl's uniforms for the step."""
    if method == "cp":
        return _cp_step_batch(floor_probs(scores), state, e)
    if method == "cl":
        next_labels, step_clamp = _cl_step_batch(scores, state, e)
        return sample_categorical_rows(next_labels, u), step_clamp
    nb, k = state.shape
    # column j of each input's matrix: the read at anchor j
    return reverse_step_full(scores.reshape(nb, k, k).transpose(0, 2, 1), state, e)


def _distribution(state: np.ndarray, n_inputs: int, k: int) -> np.ndarray:
    """Class distribution per input: probability rows as they are, or the
    labels of each input's trajectories averaged as one-hots."""
    return state if state.ndim == 2 else np.eye(k)[state].reshape(n_inputs, -1, k).mean(axis=1)


def _reverse(method: str, y: np.ndarray, scorer: Scorer, schedule: LogLinearSchedule,
             cfg: SamplerConfig) -> tuple[PosteriorEstimate, np.ndarray]:
    """Run the cp, cl or full estimator on one input (dim,) or rows (n, dim).

    Returns the PosteriorEstimate and the clipped mass per input.
    """
    y = np.asarray(y)
    features = np.atleast_2d(y)
    n, k = features.shape[0], scorer.k
    if n == 0:
        raise ValidationError(f"{method} posterior needs at least one input; got shape {y.shape}")
    r = {"cp": 1, "cl": cfg.n_samples, "full": k}[method]
    per_block = max(1, SCORER_ROWS // r)
    n_blocks = -(-n // per_block)
    bounds = [i * n // n_blocks for i in range(n_blocks + 1)]
    steps = check_samplable(schedule, k, cfg.n_steps, f"{method} posterior")
    probs, clamp, trajectories = [], [], []
    n_clamped = 0
    for lo, hi in zip(bounds, bounds[1:]):
        nb = hi - lo
        prepared = scorer.prepare(np.repeat(features[lo:lo + nb], r, axis=0))
        if method == "cl":
            # state: the current label of each trajectory, input-major
            uniforms = np.stack([np.random.default_rng([cfg.seed + i, j]).random(cfg.n_steps + 1)
                                 for i in range(lo, lo + nb) for j in range(r)])
            state = np.minimum((uniforms[:, 0] * k).astype(np.int64), k - 1)
        else:
            # state: the probability vector of each input
            state = np.full((nb, k), 1.0 / k)
        anchors = np.tile(np.arange(k), nb)  # full: the K anchors of each input
        clamp_rows = np.zeros(state.shape[0])
        snapshots = [_distribution(state, nb, k)] if cfg.record_trajectory else None
        for step, (t, e) in enumerate(steps):
            if method == "cp":
                anchors = _select_labels_batch(state, cfg.strategy)
            elif method == "cl":
                anchors = state
            # The reads go straight into the step, so neither they nor the
            # step's temporaries outlive it into the next scorer call.
            state, step_clamp = _step(method, scorer.score_batch(prepared, anchors, t), state,
                                      e, uniforms[:, step + 1] if method == "cl" else None)
            clamp_rows += step_clamp
            n_clamped += int(np.count_nonzero(step_clamp > 0.0))
            if snapshots is not None:
                snapshots.append(_distribution(state, nb, k))
        del prepared    # before the next block's prepare, which would otherwise hold both
        probs.append(ensure_distribution(_distribution(state, nb, k), f"{method} posterior"))
        clamp.append(clamp_rows.reshape(nb, -1).mean(axis=1))
        if snapshots is not None:
            trajectories.append(np.stack(snapshots))
    probs, clamp = np.concatenate(probs), np.concatenate(clamp)
    trajectory = np.concatenate(trajectories, axis=1) if cfg.record_trajectory else None
    if y.ndim == 1:
        probs, trajectory = probs[0], (trajectory[:, 0] if trajectory is not None else None)
    return PosteriorEstimate(probs=probs, nfe=r * cfg.n_steps, trajectory=trajectory,
                             clamp_mass=float(clamp.mean()), n_clamped=n_clamped), clamp


def posterior_cp_batch(features: np.ndarray, scorer: Scorer, schedule: LogLinearSchedule,
                       cfg: SamplerConfig):
    """Class-probability reversal for rows of inputs, one scorer call per step and block.

    Returns (posteriors (n, K), clamp mass per row).
    """
    est, clamp = _reverse("cp", features, scorer, schedule, cfg)
    return est.probs, clamp


def posterior_cp(y: np.ndarray, scorer: Scorer, schedule: LogLinearSchedule,
                 cfg: SamplerConfig) -> PosteriorEstimate:
    """Posterior of one input (dim,) or rows (n, dim) by reverse diffusion of
    the class probabilities."""
    return _reverse("cp", y, scorer, schedule, cfg)[0]


def posterior_cl(y: np.ndarray, scorer: Scorer, schedule: LogLinearSchedule,
                 cfg: SamplerConfig) -> PosteriorEstimate:
    """Posterior of one input (dim,) or rows (n, dim) as the mean terminal
    one-hot of cfg.n_samples label trajectories per input."""
    return _reverse("cl", y, scorer, schedule, cfg)[0]


def posterior_full(y: np.ndarray, scorer: Scorer, schedule: LogLinearSchedule,
                   cfg: SamplerConfig) -> PosteriorEstimate:
    """Posterior of one input (dim,) or rows (n, dim) with the K x K matrix of
    reads, one per anchor, rebuilt every step; with an exact scorer it matches
    cp to roundoff (rank-one consistency).  Intended for small K."""
    return _reverse("full", y, scorer, schedule, cfg)[0]


METHOD_SAMPLERS = {"cp": posterior_cp, "cl": posterior_cl, "full": posterior_full}
