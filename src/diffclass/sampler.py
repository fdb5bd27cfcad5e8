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
so memory stays bounded.  Per block it runs scorer.prepare once on the
repeated features and cuts the block's scorer rows into the scorer's
tiles (mlp.row_tiles; for full, moved to whole inputs), each of which
carries its own state, anchors and clip sums through all n_steps.  A
(tile, step) unit picks the tile's anchors, reads its rows through
score_batch at the step's t (the first read of a tile also runs its
prefix, the work that does not depend on the anchor or t) and takes the
step's kernel (_step); the read's distributions go straight into the
kernel and are spent before the tile's next read.  The features reach the
scorer in the dtype they come in (a dataset's float32, as load_dataset
returns it): the engine makes no wider copy, and each scorer casts where
it computes (MlpScorer, to its parameters' float32).

Workers.  A block of several tiles runs its units on WORKERS workers
(_run_units): the calling thread and pool jobs, on threads started on the
first such block, each take the next ready tile from one queue, run its
next step and put it back, so a block has one join, at its end, and every
read, softmax, kernel and anchor rule runs on both workers.  A tile is in
the queue or with one worker, so its steps run in order; the units of
different tiles touch disjoint rows, and each tile's values depend on its
rows alone, so no output depends on the worker count, on which worker ran
a unit or in what order.  numpy releases the interpreter lock in its
matmuls and ufuncs, so the workers run at once if they run on two CPUs,
and each pool job sees to that: it first moves its thread onto the CPUs
usable at import but the one the calling thread is on now (_pool_cpus).
Left to the OS, the pool thread woke after single-threaded work on the
caller's CPU and stayed there for seconds while the other CPU idled: in
300 of 300 4,000-row scorer calls on a 2-vCPU Xeon (5 runs of 60, each
after 2 s of single-threaded work), which then took 10.3-12.3 ms a call
(run medians) against 10.1-10.9 on one worker and 6.3-9.1 once placed.
The caller is never moved, so the single-threaded work around the blocks
runs where the OS puts it.  The calling thread allocates every array a
unit writes, once per block: one work space per worker, a flat float64
array (Scorer.space_words) that holds a read's work arrays and then, past
the read's distributions, the kernel's (_kernel_work).  Allocated on a
pool thread, arrays come from glibc's arena for that thread, which keeps
its freed pages apart from the main heap's: a scorer call's work arrays
made there put 1.8 MiB on 8,000-row eval-cp's peak RSS, and the kernel's
temporaries made afresh at every unit 3.6 MiB in a fresh process.  A
block of one tile, such as training's 512-row validation, runs inline and
starts no thread.  On a 2-vCPU Xeon, one BLAS thread, 8,000-row eval-cp
read 37,081 rows/s (median of 10 alternating benchmark pairs) with every
unit on the calling thread and 53,820 on two workers, faster in 10 of 10
pairs, at 43.9 and 45.8 MiB peak RSS.

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

import collections
import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .mlp import row_tiles
from .schedule import LogLinearSchedule
from .score import PROB_FLOOR, Scorer, floor_probs, from_space
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
# as two blocks of 4,000, each cut into four 1,000-row tiles that the two
# workers step through.  Halving the block from 8,192 paid for the second
# worker's work arrays: 8,000-input evals (8 steps, one BLAS thread) peaked at
# 48.2 MiB RSS for cp, 58.3 for cl at 16 samples and 51.4 for full at 8,192
# rows on one worker, and at 44.8, 47.0 and 44.7 at 4,096 on two, each block's
# prepared rows dropped before the next block's.  Larger blocks cost memory and
# gained no speed: at 16,384 rows the same cl eval peaked at 76 MiB and ran no
# faster than at 8,192.
SCORER_ROWS = 4096

# The CPUs this process may run on when sampler is imported, the set WORKERS
# counts and the pool threads run among (_pool_cpus); None where the OS cannot say.
_CPUS = frozenset(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
_THREAD_STAT = "/proc/thread-self/stat"   # Linux: the calling thread's CPU is field 39

# Workers that step one block's tiles (_run_units): the calling thread plus up
# to WORKERS - 1 pool jobs, kept on other CPUs (_pool_cpus).  Each costs its
# work space (~1.5 MiB at 1,000-row tiles and hidden 128); more than two were
# not measured.  The module docstring gives the one-against-two measurement.
WORKERS = min(2, len(_CPUS) if _CPUS is not None else (os.cpu_count() or 1))


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


def _select_labels_batch(p: np.ndarray, strategy: str, out: np.ndarray | None) -> np.ndarray:
    """cp's anchor per row for the next scorer call: the most ("argmax") or least
    ("argmin") probable label of the row's state, ties broken by lowest index;
    written into out, an intp array of one entry per row, or a new array."""
    return (np.argmax if strategy == "argmax" else np.argmin)(p, axis=1, out=out)


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


def _kernel_specs(shape: tuple[int, ...], axis: int) -> list[tuple[tuple[int, ...], type]]:
    """(shape, dtype) of each array a step kernel writes (_kernel_work), for
    distributions of shape along axis."""
    reduced = tuple(1 if i == axis % len(shape) else n for i, n in enumerate(shape))
    return [(shape, np.float64)] * 3 + [(shape, np.bool_)] + [(reduced, np.float64)] * 2


def _kernel_work(shape: tuple[int, ...], axis: int, space: np.ndarray | None) -> list[np.ndarray]:
    """The arrays a step kernel writes, for distributions of shape along axis:
    the floored reads, the denoised distributions and a scratch array, float64
    of shape; a bool mask of shape; and the clipped and the kept mass, float64
    of shape with axis of length 1.  Views of space's bytes from its start
    (from_space), or new arrays where space is None."""
    arrays, at = [], 0
    for spec in _kernel_specs(shape, axis):
        array, at = from_space(space, at, *spec)
        arrays.append(array)
    return arrays


def _denoise(q_t: np.ndarray, e: float, axis: int, work: list[np.ndarray]):
    """The class distribution q_s at the step's start s, from the scorer's floored
    distribution q_t at its end t, along axis; e is the step's kept share
    (check_samplable), and work the kernel's arrays for q_t's shape (_kernel_work).

    q_s is max(q_t - c, 0) with c = (1 - e) / K, normalized (without a clip,
    that is (q_t - c) / e) and floored at PROB_FLOOR, so no label is ruled
    out.  Also returns the clipped share: the negative mass of q_t - c, past
    roundoff, over the mass kept, in [0, 1).  Both are views of work: q_s of
    the denoised distributions, the share of the clipped mass, squeezed; the
    scratch array and the mask are left spent.
    """
    _, d, scratch, mask, clipped, total = work
    c = (1.0 - e) / q_t.shape[axis]
    np.subtract(q_t, c, out=d)
    np.less(d, -ROUNDOFF * c, out=mask)
    scratch[...] = 0.0
    np.negative(d, out=scratch, where=mask)
    np.sum(scratch, axis=axis, keepdims=True, out=clipped)
    np.maximum(d, 0.0, out=d)
    np.sum(d, axis=axis, keepdims=True, out=total)
    if not total.min() > 0.0:
        raise NumericalError(f"a denoised read has no mass: the step keeps {e:.1e} of the "
                             f"label signal, below float precision; use more steps")
    clipped /= total
    d /= total
    return np.maximum(d, PROB_FLOOR, out=d), clipped.squeeze(axis)


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
    # The kernel's arrays in q_t's memory order, which numpy's own temporaries would
    # take: its sums over the columns then add in the same order.
    work = [np.empty_like(q_t, dtype) if shape == q_t.shape else np.empty(shape, dtype)
            for shape, dtype in _kernel_specs(q_t.shape, 1)]
    q_s, clip = _denoise(q_t, e, 1, work)
    w = p / np.diagonal(q_t, axis1=1, axis2=2)
    p_next = ((1.0 - e) / k * (q_s @ w[..., None])[..., 0]
              + e * np.diagonal(q_s, axis1=1, axis2=2) * w)
    p_next = ensure_distribution(p_next / p_next.sum(axis=1, keepdims=True),
                                 "reverse step output")
    return p_next, np.sum(p * clip, axis=1)


def _cp_step_batch(q_hat: np.ndarray, p: np.ndarray, e: float, work: list[np.ndarray] | None):
    """Rank-one fast path of reverse_step_full for rows of (q_hat, p).

    Identical step and clip semantics; O(K) per row instead of O(K^2).  work
    is the kernel's arrays for q_hat's shape (_kernel_work), or None for new
    ones.  Returns (next p rows, clipped mass per row), views of work.
    """
    work = _kernel_work(q_hat.shape, -1, None) if work is None else work
    q_s, clip_rows = _denoise(q_hat, e, -1, work)
    u, total = work[2], work[5]
    np.divide(p, q_hat, out=u)
    np.sum(u, axis=1, keepdims=True, out=total)
    total *= (1.0 - e) / p.shape[1]
    u *= e
    u += total
    q_s *= u
    q_s /= np.sum(q_s, axis=1, keepdims=True, out=total)
    return q_s, clip_rows


def _cl_step_batch(scores: np.ndarray, states: np.ndarray, e: float,
                   work: list[np.ndarray] | None):
    """Next-label distributions for trajectories at labels states, from the class
    distributions read at those labels, and the clipped mass per trajectory:
    label i in proportion to q_s(i) (e [i = j] + c) from label j, q_s the
    denoised read.  work is the kernel's arrays for the reads' shape
    (_kernel_work), or None for new ones; both results are views of it."""
    k = scores.shape[1]
    work = _kernel_work(scores.shape, -1, None) if work is None else work
    q_s, clip = _denoise(np.maximum(scores, PROB_FLOOR, out=work[0]), e, -1, work)
    probs, at_state, total = work[2], work[3], work[5]
    np.multiply(q_s, (1.0 - e) / k, out=probs)
    np.equal(states[:, None], np.arange(k), out=at_state)
    np.multiply(q_s, e, out=q_s, where=at_state)
    np.add(probs, q_s, out=probs, where=at_state)
    probs /= np.sum(probs, axis=1, keepdims=True, out=total)
    return probs, clip


def _step(method: str, scores: np.ndarray, state: np.ndarray, e: float, u: np.ndarray | None,
          work: list[np.ndarray] | None) -> np.ndarray:
    """One reverse step of a tile's rows from their reads, written over state;
    returns the clipped mass per row.  e is the step's kept share; u, cl's
    uniforms for the step; work, cp's and cl's kernel arrays (_kernel_work)."""
    if method == "cp":
        state[...], clip = _cp_step_batch(np.maximum(scores, PROB_FLOOR, out=work[0]), state,
                                          e, work)
    elif method == "cl":
        next_labels, clip = _cl_step_batch(scores, state, e, work)
        state[...] = sample_categorical_rows(next_labels, u)
    else:
        nb, k = state.shape
        # column j of each input's matrix: the read at anchor j
        state[...], clip = reverse_step_full(scores.reshape(nb, k, k).transpose(0, 2, 1),
                                             state, e)
    return clip


def _distribution(state: np.ndarray, n_inputs: int, k: int) -> np.ndarray:
    """Class distribution per input: probability rows as they are, or the
    labels of each input's trajectories averaged as one-hots."""
    return state if state.ndim == 2 else np.eye(k)[state].reshape(n_inputs, -1, k).mean(axis=1)


_pool = None                 # the executor of _run_units, started on first use
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """Drop the pool in a forked child, whose copy has no threads; the next call starts one."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor():
    """The pool of WORKERS - 1 threads, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # Imported here, not at module level: a process whose blocks are all of
            # one tile (training's validation) does not pay its memory.
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="diffclass-tiles")
        return _pool


def _pool_cpus() -> frozenset[int] | None:
    """The CPUs for this block's pool jobs: those usable at import (_CPUS) but the one
    the calling thread runs on now, read from _THREAD_STAT (~12 us); None, which
    moves no thread, where that CPU cannot be read or no other is usable."""
    if _CPUS is None:
        return None
    try:
        with open(_THREAD_STAT, "rb") as fh:
            # Fields count from 1; the command name, field 2, may hold spaces and ')'.
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[39 - 3])
    except (OSError, ValueError, IndexError):
        return None
    return (_CPUS - {cpu}) or None


def _placed(cpus: frozenset[int] | None, run, *args) -> None:
    """run(*args) on a pool thread, first moved to cpus if they are given and it
    is not there; where the move fails the thread stays where it is."""
    if cpus is not None and os.sched_getaffinity(0) != cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass
    run(*args)


def _take(ready: collections.deque) -> int:
    """The tile whose step a worker runs next: the one that has waited longest."""
    return ready.popleft()


def _run_units(n_tiles: int, workers: list, run) -> None:
    """Every step of tiles range(n_tiles) on len(workers) workers, one join in all.

    run(i, worker) runs tile i's next step in a worker's arrays, an entry of
    workers, and says whether the tile has a step left.  The calling thread
    and up to len(workers) - 1 pool jobs each take a tile from one queue of ready
    tiles (_take), run its step and put it back, until the queue is empty;
    a tile is in the queue or with one worker, so its steps run in order.
    A pool job runs in a copy of the caller's context, so it keeps the
    caller's np.errstate.  A worker's error stops every worker at its next
    take; when the caller is done it cancels every job that has not
    started, so a busy pool never holds it up, and waits for the running
    ones.  Raises the calling thread's error, else the first pool job's.
    """
    ready, lock, failed = collections.deque(range(n_tiles)), threading.Lock(), []

    def work(arrays) -> None:
        tile = None
        while True:
            with lock:
                if tile is not None:
                    ready.append(tile)
                if failed or not ready:
                    return
                tile = _take(ready)
            try:
                more = run(tile, arrays)
            except BaseException:
                with lock:
                    failed.append(tile)
                raise
            tile = tile if more else None

    cpus = _pool_cpus() if len(workers) > 1 else None
    futures = [_executor().submit(contextvars.copy_context().run, _placed, cpus, work, arrays)
               for arrays in workers[1:]]
    try:
        work(workers[0])
    finally:
        started = [future for future in futures if not future.cancel()]
        for future in started:
            future.exception()       # waits; the loop below raises
    for future in started:
        future.result()


def _tiles(n_rows: int, r: int, whole: bool) -> list[slice]:
    """The scorer-row slices of a block's tiles: the scorer's row tiles (row_tiles),
    their bounds moved down to whole inputs of r rows where whole is set."""
    tiles = row_tiles(n_rows)
    if not whole:
        return tiles
    bounds = [r * (tile.start // r) for tile in tiles] + [n_rows]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _block(method: str, features: np.ndarray, first: int, scorer: Scorer,
           steps: list[tuple[float, float]], cfg: SamplerConfig):
    """One block of inputs, input first onward, through every step.

    Returns (state, clipped mass per row, n_clamped, trajectory or None).
    The rows are cut into the scorer's tiles (_tiles; whole inputs for
    full), each of which carries its rows of the state, the anchors and the
    clip sums through the steps; _run_units runs the (tile, step) units.
    A unit picks the tile's anchors, reads its prepared rows at the step's
    t (the first read also runs the rows' prefix, MlpScorer.prepare) and
    steps them (_step).  The calling thread allocates every array a unit
    writes: one work space per worker, which holds the read's arrays and
    then, after the read's distributions, the kernel's (_kernel_work).
    """
    nb, k = len(features), scorer.k
    r = {"cp": 1, "cl": cfg.n_samples, "full": k}[method]
    prepared = scorer.prepare(np.repeat(features, r, axis=0))
    if method == "cl":
        # state: the current label of each trajectory, input-major
        uniforms = np.stack([np.random.default_rng([cfg.seed + i, j]).random(len(steps) + 1)
                             for i in range(first, first + nb) for j in range(r)])
        state = np.minimum((uniforms[:, 0] * k).astype(np.int64), k - 1)
        anchors = state
    else:
        # state: the probability vector of each input
        state = np.full((nb, k), 1.0 / k)
        # full: the K anchors of each input; cp: each input's, picked per step
        anchors = np.tile(np.arange(k), nb) if method == "full" else np.empty(nb, np.intp)
    tiles = _tiles(nb * r, r, method == "full")
    # each tile's rows of the state: inputs for cp and full, trajectories for cl
    per = 1 if method == "cl" else r
    parts = [slice(tile.start // per, tile.stop // per) for tile in tiles]
    views = [prepared[tile] for tile in tiles]
    done, clamped = [0] * len(tiles), [0] * len(tiles)
    clamp_rows = np.zeros(len(state))
    snapshots = None
    if cfg.record_trajectory:
        snapshots = np.empty((len(steps) + 1,) + state.shape, state.dtype)
        snapshots[0] = state
    rows = max(tile.stop - tile.start for tile in tiles)
    specs = _kernel_specs((rows, k), -1)
    words = rows * k + sum(-(-math.prod(shape) * np.dtype(dtype).itemsize // 8)
                           for shape, dtype in specs)
    spaces = [np.empty(max(scorer.space_words(rows), words))
              for _ in range(min(WORKERS, len(tiles)))]
    workers = [(space, _kernel_work((rows, k), -1, space[rows * k:])) for space in spaces]

    def run(i: int, worker: tuple[np.ndarray, list[np.ndarray]]) -> bool:
        tile, part, step = tiles[i], parts[i], done[i]
        (t, e), (space, kernel) = steps[step], worker
        if method == "cp":
            _select_labels_batch(state[part], cfg.strategy, anchors[part])
        scores = scorer.score_batch(views[i], anchors[tile], t, space)
        work = [array[:len(scores)] for array in kernel]
        clip = _step(method, scores, state[part], e,
                     uniforms[part, step + 1] if method == "cl" else None, work)
        clamp_rows[part] += clip
        clamped[i] += int(np.count_nonzero(clip > 0.0))
        if snapshots is not None:
            snapshots[step + 1, part] = state[part]
        done[i] = step + 1
        return done[i] < len(steps)

    _run_units(len(tiles), workers, run)
    if snapshots is not None:
        snapshots = np.stack([_distribution(s, nb, k) for s in snapshots])
    return state, clamp_rows, sum(clamped), snapshots


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
        state, clamp_rows, clamped, snapshots = _block(method, features[lo:hi], lo, scorer,
                                                       steps, cfg)
        n_clamped += clamped
        probs.append(ensure_distribution(_distribution(state, nb, k), f"{method} posterior"))
        clamp.append(clamp_rows.reshape(nb, -1).mean(axis=1))
        if snapshots is not None:
            trajectories.append(snapshots)
        del state, clamp_rows    # before the next block's, which would otherwise hold both
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
