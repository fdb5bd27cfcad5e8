"""Reverse-process posterior estimators.

Three estimators take the same Euler step, each through its own kernel,
differing in what they carry and how many scorer calls they spend per input:

  cp    full probability vector, one scorer call per step        (nfe = steps)
        kernel: _cp_step_batch, the rank-one form, O(K) per row
  cl    sampled label trajectories, averaged as one-hots         (nfe = N * steps)
        kernel: _cl_step_batch (cl_step_distribution for one trajectory)
  full  score matrix rebuilt column-by-column each step          (nfe = K * steps)
        kernel: reverse_step_full, on the explicit K x K matrix

The Euler kernel column for anchor j has off-diagonal entries
S(i,j) * sigma_t * dt and diagonal 1 minus their sum.  Large sigma_t * dt
drives the diagonal negative; such entries are clamped to zero and the
column renormalized, with the clamped probability mass recorded as
telemetry.  Clamping keeps coarse-step sweeps runnable while making the
step-size violation visible; callers can set an abort threshold instead.

The label sampler (cl) draws each trajectory from its own random stream,
split deterministically from the seed, so results do not depend on how
trajectories are batched or scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .schedule import LogLinearSchedule
from .score import ScoreColumn, Scorer, floor_probs, normalize_scores
from .transition import ensure_distribution, sample_categorical

STRATEGIES = ("argmax", "sampling", "argmin")
TIME_GRIDS = ("uniform-t", "uniform-noise")

# Spec'd abort thresholds for the standalone step operations.
DEFAULT_STEP_CLAMP_LIMIT = 1e-3
DEFAULT_OFFDIAG_LIMIT = 1.0 + 1e-3


@dataclass(frozen=True)
class SamplerConfig:
    n_steps: int = 256
    strategy: str = "argmin"
    n_samples: int = 16
    seed: int = 0
    record_trajectory: bool = False
    time_grid: str = "uniform-t"
    # None = clamp silently and record telemetry; a float aborts any single
    # step whose clamped probability mass exceeds it.
    max_step_clamp_mass: float | None = None

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")
        if self.n_samples < 1:
            raise ValidationError("n_samples must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"strategy must be one of {STRATEGIES}")
        if self.time_grid not in TIME_GRIDS:
            raise ValidationError(f"time_grid must be one of {TIME_GRIDS}")


@dataclass(frozen=True)
class PosteriorEstimate:
    probs: np.ndarray
    nfe: int
    trajectory: np.ndarray | None = None
    clamp_mass: float = 0.0
    n_clamped: int = 0


def step_times(schedule: LogLinearSchedule, cfg: SamplerConfig) -> list[tuple[float, float]]:
    """(t_k, dt_k) pairs walked by the reverse process, from t=1 down to t=0.

    The default grid is uniform in t (t_k = 1 - k/n_steps); the alternative
    spaces the steps uniformly in accumulated noise instead.
    """
    n = cfg.n_steps
    if cfg.time_grid == "uniform-t":
        dt = 1.0 / n
        return [(1.0 - k * dt, dt) for k in range(n)]
    sm, c = schedule.sigma_bar_max, schedule.decay
    levels = [sm * (n - k) / n for k in range(n + 1)]
    ts = [math.log1p(s * (c - 1.0) / sm) / math.log(c) for s in levels]
    ts[0], ts[-1] = 1.0, 0.0
    return [(ts[k], ts[k] - ts[k + 1]) for k in range(n)]


def select_label(p: np.ndarray, strategy: str, rng: np.random.Generator) -> int:
    """Anchor choice for the next scorer call; ties broken by lowest index."""
    if strategy == "argmax":
        return int(np.argmax(p))
    if strategy == "argmin":
        return int(np.argmin(p))
    if strategy == "sampling":
        return sample_categorical(rng, p)
    raise ValidationError(f"strategy must be one of {STRATEGIES}")


def _select_labels_batch(p: np.ndarray, strategy: str, rng: np.random.Generator) -> np.ndarray:
    if strategy == "argmax":
        return np.argmax(p, axis=1)
    if strategy == "argmin":
        return np.argmin(p, axis=1)
    cum = np.cumsum(p, axis=1)
    r = rng.random((p.shape[0], 1)) * cum[:, -1:]
    return np.minimum((cum < r).sum(axis=1), p.shape[1] - 1)


def reverse_step_full(s_matrix: np.ndarray, p: np.ndarray, sigma_t: float, dt: float,
                      max_clamp_mass: float | None = DEFAULT_STEP_CLAMP_LIMIT):
    """One Euler step of the reverse process with an explicit K x K score matrix.

    Builds the transition kernel I + reverse-rate * dt whose columns sum to
    one, clamps negative self-transition entries column-wise, and returns
    (next p, clamped probability mass).  Aborts when the clamped mass
    exceeds max_clamp_mass (pass None to clamp silently).
    """
    s_matrix = np.asarray(s_matrix, dtype=np.float64)
    p = ensure_distribution(p, "reverse step input")
    k = p.shape[0]
    if s_matrix.shape != (k, k):
        raise ValidationError(f"score matrix shape {s_matrix.shape} does not match K={k}")
    if np.any(s_matrix <= 0.0) or not np.all(np.isfinite(s_matrix)):
        raise ValidationError("score matrix entries must be positive and finite")
    if np.abs(np.diag(s_matrix) - 1.0).max() > 1e-9:
        raise ValidationError("score matrix diagonal must be one")
    if dt < 0.0:
        raise ValidationError("dt must be nonnegative")

    offdiag = sigma_t * dt * (s_matrix.sum(axis=0) - 1.0)  # per-column, diagonal excluded
    d_raw = 1.0 - offdiag
    clamp_mass = float(np.sum(p * np.maximum(-d_raw, 0.0)))
    if max_clamp_mass is not None and clamp_mass > max_clamp_mass:
        raise NumericalError(
            f"clamped probability mass {clamp_mass:.3e} exceeds {max_clamp_mass:.1e} "
            f"in one step; use a smaller dt (more steps)"
        )
    d_plus = np.maximum(d_raw, 0.0)
    z = np.where(d_raw < 0.0, 1.0 - d_raw, 1.0)
    pz = p / z
    p_next = sigma_t * dt * (s_matrix @ pz) - sigma_t * dt * pz + p * d_plus / z
    return ensure_distribution(p_next, "reverse step output"), clamp_mass


def _cp_step_batch(q_hat: np.ndarray, p: np.ndarray, sigma_t: float, dt: float):
    """Rank-one fast path of reverse_step_full for rows of (q_hat, p).

    Identical clamp semantics; O(K) per row instead of O(K^2).
    Returns (next p rows, clamped mass per row).
    """
    d_raw = 1.0 - sigma_t * dt * (1.0 / q_hat - 1.0)
    clamp_rows = np.sum(p * np.maximum(-d_raw, 0.0), axis=1)
    d_plus = np.maximum(d_raw, 0.0)
    z = np.where(d_raw < 0.0, 1.0 - d_raw, 1.0)
    u = p / (q_hat * z)
    p_next = sigma_t * dt * q_hat * (u.sum(axis=1, keepdims=True) - u) + p * d_plus / z
    p_next = p_next / p_next.sum(axis=1, keepdims=True)
    return p_next, clamp_rows


def posterior_cp_batch(features: np.ndarray, scorer: Scorer, schedule: LogLinearSchedule,
                       cfg: SamplerConfig):
    """Class-probability reversal for a batch of inputs, one scorer call per step.

    Returns (posteriors (n, K), clamp mass per row, trajectory or None).
    The trajectory stacks the per-step probability snapshots including the
    uniform start, shape (n_steps + 1, n, K).
    """
    features = np.asarray(features, dtype=np.float64)
    n, k = features.shape[0], scorer.k
    p = np.full((n, k), 1.0 / k)
    rng = np.random.default_rng(cfg.seed)
    clamp = np.zeros(n)
    n_clamped = 0
    snapshots = [p.copy()] if cfg.record_trajectory else None
    for t, dt in step_times(schedule, cfg):
        anchors = _select_labels_batch(p, cfg.strategy, rng)
        scores = scorer.score_batch(features, anchors, np.full(n, t))
        q_hat = floor_probs(scores / scores.sum(axis=1, keepdims=True))
        sigma_t = schedule.sigma(t)
        p, step_clamp = _cp_step_batch(q_hat, p, sigma_t, dt)
        if cfg.max_step_clamp_mass is not None and step_clamp.max() > cfg.max_step_clamp_mass:
            raise NumericalError(
                f"clamped probability mass {step_clamp.max():.3e} exceeds "
                f"{cfg.max_step_clamp_mass:.1e} in one step; use a smaller dt (more steps)"
            )
        clamp += step_clamp
        n_clamped += int(np.count_nonzero(step_clamp > 0.0))
        if snapshots is not None:
            snapshots.append(p.copy())
    p = ensure_distribution(p, "cp posterior")
    trajectory = np.stack(snapshots) if snapshots is not None else None
    return p, clamp, trajectory


def posterior_cp(y: np.ndarray, scorer: Scorer, schedule: LogLinearSchedule,
                 cfg: SamplerConfig) -> PosteriorEstimate:
    """Posterior for one input by reverse diffusion of the class probabilities."""
    probs, clamp, trajectory = posterior_cp_batch(
        np.asarray(y, dtype=np.float64)[None, :], scorer, schedule, cfg)
    return PosteriorEstimate(
        probs=probs[0],
        nfe=cfg.n_steps,
        trajectory=trajectory[:, 0, :] if trajectory is not None else None,
        clamp_mass=float(clamp[0]),
        n_clamped=int(clamp[0] > 0.0),
    )


def cl_step_distribution(s: ScoreColumn, sigma_t: float, dt: float,
                         max_offdiag_mass: float | None = DEFAULT_OFFDIAG_LIMIT):
    """Distribution of the next label given the current one and its score column.

    Off-anchor probabilities are s_i * sigma_t * dt; the anchor keeps the
    remainder.  A negative remainder is clamped to zero and the vector
    renormalized (returned as overshoot); off-anchor mass beyond
    max_offdiag_mass aborts instead (pass None to clamp silently).
    """
    if dt < 0.0:
        raise ValidationError("dt must be nonnegative")
    off = sigma_t * dt * s.values
    mass = float(off.sum() - off[s.anchor])
    if max_offdiag_mass is not None and mass > max_offdiag_mass:
        raise NumericalError(
            f"off-anchor transition mass {mass:.3e} exceeds {max_offdiag_mass:.4f}; "
            f"use a smaller dt (more steps)"
        )
    probs = off
    probs[s.anchor] = 1.0 - mass
    overshoot = max(0.0, -(1.0 - mass))
    if probs[s.anchor] < 0.0:
        probs[s.anchor] = 0.0
        probs = probs / probs.sum()
    return ensure_distribution(probs, "cl step distribution"), overshoot


def _cl_step_batch(scores: np.ndarray, states: np.ndarray, sigma_t: float, dt: float):
    """Next-label distributions for a batch of trajectories; same clamp rule."""
    n, k = scores.shape
    rows = np.arange(n)
    probs = sigma_t * dt * scores
    mass = probs.sum(axis=1) - probs[rows, states]
    self_raw = 1.0 - mass
    overshoot = np.maximum(-self_raw, 0.0)
    probs[rows, states] = np.maximum(self_raw, 0.0)
    probs = probs / probs.sum(axis=1, keepdims=True)
    return probs, overshoot


def posterior_cl(y: np.ndarray, scorer: Scorer, schedule: LogLinearSchedule,
                 cfg: SamplerConfig) -> PosteriorEstimate:
    """Posterior for one input as the average of one-hot label trajectories.

    Runs cfg.n_samples independent reverse trajectories from uniform start
    labels and returns the mean of the terminal one-hots; nfe counts one
    scorer evaluation per trajectory per step.
    """
    y = np.asarray(y, dtype=np.float64)
    n, k = cfg.n_samples, scorer.k
    # One stream per trajectory, split deterministically from the seed:
    # n_steps + 1 uniforms each (initial state plus one per step).
    uniforms = np.stack([
        np.random.default_rng([cfg.seed, i]).random(cfg.n_steps + 1) for i in range(n)
    ])
    states = np.minimum((uniforms[:, 0] * k).astype(np.int64), k - 1)
    features = np.broadcast_to(y, (n, y.shape[0]))
    clamp_total = 0.0
    n_clamped = 0
    snapshots = [np.bincount(states, minlength=k) / n] if cfg.record_trajectory else None
    for step_idx, (t, dt) in enumerate(step_times(schedule, cfg)):
        scores = scorer.score_batch(features, states, np.full(n, t))
        sigma_t = schedule.sigma(t)
        probs, overshoot = _cl_step_batch(scores, states, sigma_t, dt)
        if cfg.max_step_clamp_mass is not None and overshoot.max() > cfg.max_step_clamp_mass:
            raise NumericalError(
                f"clamped probability mass {overshoot.max():.3e} exceeds "
                f"{cfg.max_step_clamp_mass:.1e} in one step; use a smaller dt (more steps)"
            )
        clamp_total += float(overshoot.sum())
        n_clamped += int(np.count_nonzero(overshoot))
        cum = np.cumsum(probs, axis=1)
        r = uniforms[:, step_idx + 1] * cum[:, -1]
        states = np.minimum((cum < r[:, None]).sum(axis=1), k - 1)
        if snapshots is not None:
            snapshots.append(np.bincount(states, minlength=k) / n)
    probs = np.bincount(states, minlength=k) / n
    return PosteriorEstimate(
        probs=ensure_distribution(probs, "cl posterior"),
        nfe=cfg.n_samples * cfg.n_steps,
        trajectory=np.stack(snapshots) if snapshots is not None else None,
        clamp_mass=clamp_total / n,
        n_clamped=n_clamped,
    )


def posterior_full(y: np.ndarray, scorer: Scorer, schedule: LogLinearSchedule,
                   cfg: SamplerConfig) -> PosteriorEstimate:
    """Naive reversal that rebuilds the K x K score matrix every step.

    Spends K scorer calls per step; with an exact scorer it matches the
    class-probability path to roundoff (rank-one consistency).  Intended
    for small K.
    """
    y = np.asarray(y, dtype=np.float64)
    k = scorer.k
    p = np.full(k, 1.0 / k)
    clamp_total = 0.0
    n_clamped = 0
    all_anchors = np.arange(k)
    features = np.broadcast_to(y, (k, y.shape[0]))
    snapshots = [p.copy()] if cfg.record_trajectory else None
    for t, dt in step_times(schedule, cfg):
        columns = scorer.score_batch(features, all_anchors, np.full(k, t))
        s_matrix = columns.T.copy()  # column j holds the scores anchored at j
        s_matrix[all_anchors, all_anchors] = 1.0
        p, clamp = reverse_step_full(s_matrix, p, schedule.sigma(t), dt,
                                     max_clamp_mass=cfg.max_step_clamp_mass)
        clamp_total += clamp
        n_clamped += int(clamp > 0.0)
        if snapshots is not None:
            snapshots.append(p.copy())
    return PosteriorEstimate(
        probs=p,
        nfe=k * cfg.n_steps,
        trajectory=np.stack(snapshots) if snapshots is not None else None,
        clamp_mass=clamp_total,
        n_clamped=n_clamped,
    )


METHOD_SAMPLERS = {"cp": posterior_cp, "cl": posterior_cl, "full": posterior_full}
