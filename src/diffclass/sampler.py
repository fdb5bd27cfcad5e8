"""Reverse-process posterior estimators.

One engine, _reverse, runs all three estimators over rows of inputs.  They
take the same Euler step from a uniform start at t=1 down to t=0, and
differ in what they carry, in the scorer rows r each input spends per step,
and in their row kernel:

  cp    probability vector; r = 1; _cp_step_batch, rank-one, O(K) per row
  cl    n_samples label trajectories, averaged as one-hots at the end;
        r = n_samples; _cl_step_batch, then sample_categorical_rows
  full  probability vector, with the K x K score matrix rebuilt from one
        scorer row per anchor; r = K; reverse_step_full

nfe = r * n_steps per input.  The engine takes inputs in the fewest
contiguous, near-equal blocks of at most max(1, SCORER_ROWS // r) inputs,
so memory stays bounded; per block it runs scorer.prepare once on the
repeated features (work that does not depend on the anchor or t) and then
one score_batch call per step, whose scores go straight into the step's
kernel and are dropped before the next call.

The Euler kernel column for anchor j has off-diagonal entries
S(i,j) * sigma_t * dt and diagonal 1 minus their sum.  Large sigma_t * dt
drives the diagonal negative; such entries are clamped to zero and the
column renormalized, with the clamped probability mass recorded as
telemetry.  Clamping keeps coarse-step sweeps runnable while making the
step-size violation visible; callers can set an abort threshold instead.

Random streams: cp draws its anchors (strategy "sampling") from one
default_rng(cfg.seed) per call, block after block, so its draws depend on
the blocking: a cp call over more than SCORER_ROWS inputs draws other
anchors than one block would.  cl draws trajectory j of input i (its row
in the call) from default_rng([cfg.seed + i, j]): one uniform for the
start label and one per step, so its results do not depend on the
blocking, and input i run alone with seed cfg.seed + i matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .schedule import LogLinearSchedule
from .score import Scorer, floor_probs
from .transition import ensure_distribution, sample_categorical_rows

STRATEGIES = ("argmax", "sampling", "argmin")
TIME_GRIDS = ("uniform-t", "uniform-noise")

# Scorer rows per engine block (inputs x rows per input).  8,000 cp inputs run
# as two blocks of 4,000, each of which the scorer shares over its two
# workers as two 1,000-row tiles apiece.  Halving the block from 8,192 pays
# for the second worker's work arrays: 8,000-input evals (8 steps, one BLAS
# thread) peaked at 48.2 MiB RSS for cp, 58.3 for cl at 16 samples and 51.4
# for full at 8,192 rows on one worker, and at 44.8, 47.0 and 44.7 at 4,096
# on two, each block's prepared rows dropped before the next block's.  Larger
# blocks cost memory and gained no speed: at 16,384 rows the same cl eval
# peaked at 76 MiB and ran no faster than at 8,192.  cp's
# "sampling" draws depend on the blocking (see Random streams above), so they
# now change above 4,096 inputs, where they changed above 8,192 before.
SCORER_ROWS = 4096


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
    """Result for one input (dim,) or rows of inputs (n, dim), shaped to match.

    probs is (K,) or (n, K); trajectory is (n_steps + 1, [n,] K) from the
    uniform start.  nfe counts scorer rows per input.  clamp_mass is
    probability mass: what the clamp removed from an input over all steps
    (cl: averaged over its trajectories), averaged over the inputs.
    n_clamped counts the (row, step) pairs whose clamped mass is above 0; a
    row is an input for cp and full, a trajectory for cl.
    """

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


def _select_labels_batch(p: np.ndarray, strategy: str, rng: np.random.Generator) -> np.ndarray:
    """Anchor per row for the next scorer call; ties broken by lowest index."""
    if strategy == "argmax":
        return np.argmax(p, axis=1)
    if strategy == "argmin":
        return np.argmin(p, axis=1)
    return sample_categorical_rows(p, rng.random(p.shape[0]))


def reverse_step_full(s_matrix: np.ndarray, p: np.ndarray, sigma_t: float, dt: float):
    """One Euler step of the reverse process with an explicit K x K score matrix.

    p is one vector (K,) with its matrix (K, K), or rows (n, K) with one
    matrix each (n, K, K).  Builds the transition kernel I + reverse-rate * dt
    whose columns sum to one, clamps negative self-transition entries
    column-wise, and returns (next p, clamped probability mass per vector).
    """
    s_matrix = np.asarray(s_matrix, dtype=np.float64)
    p = ensure_distribution(p, "reverse step input")
    k = p.shape[-1]
    if s_matrix.shape != p.shape + (k,):
        raise ValidationError(f"score matrix shape {s_matrix.shape} does not match "
                              f"probabilities of shape {p.shape}")
    if np.any(s_matrix <= 0.0) or not np.all(np.isfinite(s_matrix)):
        raise ValidationError("score matrix entries must be positive and finite")
    if np.abs(np.diagonal(s_matrix, axis1=-2, axis2=-1) - 1.0).max() > 1e-9:
        raise ValidationError("score matrix diagonal must be one")
    if dt < 0.0:
        raise ValidationError("dt must be nonnegative")

    offdiag = sigma_t * dt * (s_matrix.sum(axis=-2) - 1.0)  # per column, diagonal excluded
    d_raw = 1.0 - offdiag
    clamp_mass = np.sum(p * np.maximum(-d_raw, 0.0), axis=-1)
    d_plus = np.maximum(d_raw, 0.0)
    z = np.where(d_raw < 0.0, 1.0 - d_raw, 1.0)
    pz = p / z
    p_next = sigma_t * dt * (s_matrix @ pz[..., None])[..., 0] - sigma_t * dt * pz + p * d_plus / z
    p_next = ensure_distribution(p_next, "reverse step output")
    return p_next, (float(clamp_mass) if p.ndim == 1 else clamp_mass)


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


def _cl_step_batch(scores: np.ndarray, states: np.ndarray, sigma_t: float, dt: float):
    """Next-label distributions for trajectories at labels states: off-label
    s_i * sigma_t * dt, the remainder (clamped at zero) on the label; also
    returns the clamped mass per trajectory."""
    n, k = scores.shape
    rows = np.arange(n)
    probs = sigma_t * dt * scores
    mass = probs.sum(axis=1) - probs[rows, states]
    self_raw = 1.0 - mass
    overshoot = np.maximum(-self_raw, 0.0)
    probs[rows, states] = np.maximum(self_raw, 0.0)
    probs = probs / probs.sum(axis=1, keepdims=True)
    return probs, overshoot


def _euler_step(method: str, scores: np.ndarray, state: np.ndarray, sigma_t: float,
                dt: float, u: np.ndarray | None):
    """One Euler step of a block's rows from their scores: the next state and the
    clamped mass per row.  u holds cl's one uniform per trajectory for the step."""
    if method == "cp":
        q_hat = floor_probs(scores / scores.sum(axis=1, keepdims=True))
        return _cp_step_batch(q_hat, state, sigma_t, dt)
    if method == "cl":
        next_labels, step_clamp = _cl_step_batch(scores, state, sigma_t, dt)
        return sample_categorical_rows(next_labels, u), step_clamp
    nb, k = state.shape
    s_matrix = scores.reshape(nb, k, k).transpose(0, 2, 1).copy()
    s_matrix[:, np.arange(k), np.arange(k)] = 1.0  # column j: scores anchored at j
    return reverse_step_full(s_matrix, state, sigma_t, dt)


def _distribution(state: np.ndarray, n_inputs: int, k: int) -> np.ndarray:
    """Class distribution per input: probability rows as they are, or the
    labels of each input's trajectories averaged as one-hots."""
    return state if state.ndim == 2 else np.eye(k)[state].reshape(n_inputs, -1, k).mean(axis=1)


def _reverse(method: str, y: np.ndarray, scorer: Scorer, schedule: LogLinearSchedule,
             cfg: SamplerConfig) -> tuple[PosteriorEstimate, np.ndarray]:
    """Run the cp, cl or full estimator on one input (dim,) or rows (n, dim).

    Returns the PosteriorEstimate and the clamped mass per input.
    """
    y = np.asarray(y, dtype=np.float64)
    features = np.atleast_2d(y)
    n, k = features.shape[0], scorer.k
    r = {"cp": 1, "cl": cfg.n_samples, "full": k}[method]
    per_block = max(1, SCORER_ROWS // r)
    n_blocks = -(-n // per_block)
    bounds = [i * n // n_blocks for i in range(n_blocks + 1)]
    steps = step_times(schedule, cfg)
    limit = cfg.max_step_clamp_mass
    rng = np.random.default_rng(cfg.seed)
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
        for step, (t, dt) in enumerate(steps):
            if method == "cp":
                anchors = _select_labels_batch(state, cfg.strategy, rng)
            elif method == "cl":
                anchors = state
            # The scores go straight into the step, so neither they nor the
            # step's temporaries outlive it into the next scorer call.
            state, step_clamp = _euler_step(
                method, scorer.score_batch(prepared, anchors, np.full(nb * r, t)), state,
                schedule.sigma(t), dt, uniforms[:, step + 1] if method == "cl" else None)
            if limit is not None and step_clamp.max() > limit:
                raise NumericalError(f"clamped probability mass {step_clamp.max():.3e} exceeds "
                                     f"{limit:.1e} in one step; use a smaller dt (more steps)")
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

    Returns (posteriors (n, K), clamp mass per row, trajectory or None).
    The trajectory stacks the per-step probability snapshots including the
    uniform start, shape (n_steps + 1, n, K).
    """
    est, clamp = _reverse("cp", features, scorer, schedule, cfg)
    return est.probs, clamp, est.trajectory


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
    """Posterior of one input (dim,) or rows (n, dim) with the K x K score
    matrix rebuilt every step; with an exact scorer it matches cp to roundoff
    (rank-one consistency).  Intended for small K."""
    return _reverse("full", y, scorer, schedule, cfg)[0]


METHOD_SAMPLERS = {"cp": posterior_cp, "cl": posterior_cl, "full": posterior_full}
