"""Trainable ratio-score network.

The scorer is a conditioned residual MLP: a label embedding and a
sinusoidal time embedding are summed into one conditioning vector, each
residual block adds a transformed copy of it on the skip path, the
conditioned skip-sum is group-normalized, and a zero-initialized linear
head emits logits z.  Scores are exp(z_i - z_j), which pins the anchor
entry to one, keeps all entries positive, and makes score normalization
the softmax of z.

Read at one fixed (anchor, t), where the conditioning is a constant each
block's cb could hold, the same network is the comparison grid's softmax
baseline of matched capacity (train.fit_without_validation, cross_entropy).

Parameters live as float64 arrays in a flat dict; checkpoints are written
as little-endian float32 with a binary header plus a plain-text sidecar.
Every GroupNorm group holds at least MIN_GROUP_UNITS units (MlpConfig).

Both forwards run on one form of the parameters (inference_params): every
affine map that only feeds a SiLU is halved, so each SiLU takes its
half-scale input u = x / 2 as u * (1 + tanh u) (silu_from_half); each
block's GroupNorm gain and shift are halved, and b2 joins the
conditioning bias cb.

Training (MlpScorer.logits, forward_logits) builds the form from the
float64 master parameters at every forward: the trunk in the dtype of the
features, the head in float64.  The cache keeps each block's input, every
SiLU's output s and t = 1 + tanh u, and each GroupNorm's xhat and
variance; the backward takes each SiLU's slope in u as t + s * (2 - t)
(_silu_slope), and param_grads maps the form's gradients back to the
master parameters exactly.  On float64 features (the finite-difference
gradient tests) the whole path stays float64.  Every array of a training
forward and backward (the form, the logits, the cache and the backward's
temporaries) comes from _array: in a fit, from the optimizer's workspace
(train.AdamState.work), which keeps one array per name from the first
step on, a short tail batch taking views of their first rows; without a
workspace (MlpScorer.logits called on its own), new arrays, from the
same code.

Inference (MlpScorer.prepare, inference_logits) builds the form once per
prepare call, in float32, and keeps no cache.  Its GroupNorm
(_inference_groupnorm) spreads the halved gain into a (groups, hidden)
matrix, so one matmul of the per-group reciprocal standard deviations
gives the scale the rows take in one multiply; it never forms xhat, which
the gain's gradient needs, so training keeps _gn_forward.  The two
GroupNorms, and _gn_backward, take their group means by one
block-averaging matmul (_group_means, through _center for the
statistics), in either dtype.  The block loops stay two as well: they
differ in the cache, the GroupNorm form, where the conditioning rows come
from and block 0's prefix, and inference's loop runs on the pool thread
below.  The prefix (prepare) runs the input layer and block 0's residual
branch, none of which sees the conditioning, once per set of inputs,
which a sampler reuses on every step; the tail (inference_logits) runs
the rest, with the conditioning once per call and distinct (anchor, t)
pair.  Both run over contiguous row tiles (row_tiles) of fewer than
2 * TILE_ROWS rows, and of at least TILE_ROWS unless the call has fewer,
in (rows, hidden) work arrays that every tile reuses, so the tail's
elementwise passes stay in the L2 cache; with no tile under TILE_ROWS
rows the result equals one untiled call bit for bit.

A call of at least 2 * TILE_ROWS rows shares its tiles over WORKERS
workers through one queue (_run_workers): the calling thread and pool
jobs, on threads started on the first such call, each take the next tile
as they finish one, in work arrays of their own, writing disjoint rows of
the base or logits array.  numpy releases the interpreter lock in its
matmuls and ufuncs, so the workers run at once.  The tiles depend on the
row count alone, so the logits do not depend on the worker count or on
which worker ran a tile.  Smaller calls, among them every training batch
and the 512-row validation, run inline.  Only the tiles run on the pool;
the conditioning, the finiteness check and everything outside
inference_logits and prepare stay on the calling thread.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import struct
import threading
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .schedule import LogLinearSchedule
from .score import Scorer

MAGIC = b"SCORENET"
FORMAT_VERSION = 1
GN_EPS = 1e-5
# The fewest units a GroupNorm group may hold.  A 1-unit group normalizes to 0
# and a 2-unit one to about +-1: 3-epoch K=8 scorers (seeds 0-5) read cp@8
# top-1 0.12-0.13 at hidden 8 on 8 groups, against 0.45-0.69 on 2.  Smaller
# groups also magnify float32 rounding: 1.1e-4 logit error at 2 units, 1.5e-5 at 4.
MIN_GROUP_UNITS = 4
# Rows per inference tile (see row_tiles).  The trunk's tail makes ~16
# elementwise passes per block over (rows, hidden) arrays; at 8,000 rows and
# hidden 128 those are 4 MiB in float32, twice a 2 MiB L2 cache, and on a
# 1,000-row tile they stay in it.  8,000-row eval-cp in rows/s on a 2-vCPU
# Xeon (2 MiB L2 per core), one BLAS thread, 20 commands per size: untiled
# 37.9k; tiles of 500 rows 45.7k, 1,000 44.4k, 2,000 43.0k, 4,000 39.3k.  Of
# these, tiles of 1,000 rows and up gave logits equal to the untiled ones bit
# for bit (BLAS picks its kernel by row count), so the split must never leave
# a smaller remainder tile: with 1,024-row tiles the last 832 of 8,000 rows
# were off by up to 1.5e-7.
TILE_ROWS = 1000


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Workers that share one scorer call's row tiles (_run_workers): the calling
# thread plus up to WORKERS - 1 pool jobs.  8,000-row eval-cp on a 2-vCPU Xeon,
# one BLAS thread, medians of 10 benchmark runs: 22,375 rows/s with every tile
# inline, 33,012 on two workers (with sampler.SCORER_ROWS halved to pay for
# the second worker's memory).  Each worker costs its work arrays (~1.5 MiB at
# 1,000-row tiles and hidden 128); more than two were not measured.
WORKERS = min(2, _usable_cpus())


@dataclass(frozen=True)
class MlpConfig:
    n_classes: int
    feature_dim: int
    embed_dim: int = 64
    hidden_dim: int = 128
    n_blocks: int = 3
    time_embed_dim: int = 64
    groups: int = 8

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.feature_dim < 1:
            raise ValidationError("feature_dim must be positive")
        if self.n_blocks < 1:
            raise ValidationError("n_blocks must be positive: the conditioning enters in the blocks")
        if min(self.embed_dim, self.hidden_dim, self.time_embed_dim, self.groups) < 1:
            raise ValidationError("embed_dim, hidden_dim, time_embed_dim and groups must be positive")
        if self.hidden_dim % self.groups != 0:
            raise ValidationError("hidden_dim must be divisible by groups")
        if self.hidden_dim // self.groups < MIN_GROUP_UNITS:
            raise ValidationError(
                f"hidden_dim={self.hidden_dim} over groups={self.groups} gives "
                f"{self.hidden_dim // self.groups}-unit GroupNorm groups; "
                f"each needs at least {MIN_GROUP_UNITS}")
        if self.time_embed_dim % 2 != 0:
            raise ValidationError("time_embed_dim must be even")


def _array(work: dict | None, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array of shape and dtype for the training forward or backward.

    Without a workspace (work None) it is a new array.  With one, a dict
    that a fit keeps for all its steps (train.AdamState.work), it is the
    array stored under name, or a view of its first rows for a shorter
    batch; a new or larger shape replaces the stored array.  Each name
    serves one use at a time, so a fit's steps allocate their arrays once.
    """
    if work is None:
        return np.empty(shape, dtype)
    kept = work.get(name)
    if kept is None or kept.dtype != dtype or kept.shape[1:] != shape[1:] or len(kept) < shape[0]:
        kept = work[name] = np.empty(shape, dtype)
    return kept[:shape[0]]


def silu_from_half(u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """silu(2u) = u * (1 + tanh u), written over u, since sigmoid(x) = (1 + tanh(x / 2)) / 2;
    scratch, an array of u's shape, is left holding 1 + tanh u."""
    np.tanh(u, out=scratch)
    scratch += 1.0
    u *= scratch
    return u


def silu(x: np.ndarray, tanh: np.ndarray | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """x * sigmoid(x), as silu_from_half(x / 2), in out or a new array; pass tanh, an
    array of x's shape, to keep 1 + tanh(x / 2) in it for _silu_slope."""
    return silu_from_half(np.multiply(x, 0.5, out=out), np.empty_like(x) if tanh is None else tanh)


def _silu_slope(s: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d silu(2u) / du from silu_from_half's output s and its t = 1 + tanh u, in out or
    a new array: with tau = tanh u it is (1 + tau) + u (1 - tau)(1 + tau) = t + s * (2 - t)."""
    slope = np.subtract(2.0, t, out=out)
    slope *= s
    slope += t
    return slope


@functools.lru_cache(maxsize=None)
def _time_frequencies(half: int) -> np.ndarray:
    freqs = np.exp(np.linspace(np.log(1.0), np.log(1000.0), half))
    freqs.flags.writeable = False
    return freqs


def time_features(u: np.ndarray, n_dims: int, work: dict | None = None) -> np.ndarray:
    """Sinusoidal features of a scalar in [0, 1], geometric frequency ladder; the arrays
    come from work (_array)."""
    u = np.asarray(u, dtype=np.float64)
    half = n_dims // 2
    ang = np.multiply(u[:, None], _time_frequencies(half)[None, :],
                      out=_array(work, "time_angle", (len(u), half), np.float64))
    sin = np.sin(ang, out=_array(work, "time_sin", ang.shape, np.float64))
    return np.concatenate([sin, np.cos(ang, out=ang)], axis=1,
                          out=_array(work, "time_features", (len(u), n_dims), np.float64))


def param_shapes(cfg: MlpConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in the order init_params draws them."""
    d, h, k = cfg.embed_dim, cfg.hidden_dim, cfg.n_classes
    shapes = {"embed": (k, d), "time_w": (d, cfg.time_embed_dim), "time_b": (d,),
              "in_w": (h, cfg.feature_dim), "in_b": (h,)}
    for b in range(cfg.n_blocks):
        shapes.update({f"w1_{b}": (h, h), f"b1_{b}": (h,), f"w2_{b}": (h, h), f"b2_{b}": (h,),
                       f"cw_{b}": (h, d), f"cb_{b}": (h,), f"gn_g_{b}": (h,), f"gn_b_{b}": (h,)})
    shapes.update({"out_w": (k, h), "out_b": (k,)})
    return shapes


def init_params(cfg: MlpConfig, seed: int) -> dict[str, np.ndarray]:
    """He-style init of the weight matrices, small embeddings, unit GroupNorm gains.

    Biases and the output head start at zero, so the initial scores are all ones.
    """
    rng = np.random.default_rng(seed)
    p: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name == "embed":
            p[name] = 0.1 * rng.standard_normal(shape)
        elif len(shape) == 2 and name != "out_w":
            p[name] = rng.standard_normal(shape) * np.sqrt(2.0 / shape[1])
        else:
            p[name] = np.ones(shape) if name.startswith("gn_g_") else np.zeros(shape)
    return p


@functools.lru_cache(maxsize=None)
def _group_average(h: int, groups: int, dtype) -> np.ndarray:
    """(h, groups) matrix whose product with (n, h) rows gives the per-group means."""
    size = h // groups
    average = np.repeat(np.eye(groups, dtype=dtype) / size, size, axis=0)
    average.flags.writeable = False
    return average


@functools.lru_cache(maxsize=None)
def _group_expand(h: int, groups: int, dtype) -> np.ndarray:
    """(groups, h) 0/1 matrix E whose product with (n, groups) rows repeats each over its group."""
    expand = np.repeat(np.eye(groups, dtype=dtype), h // groups, axis=1)
    expand.flags.writeable = False
    return expand


def _group_means(x: np.ndarray, groups: int) -> np.ndarray:
    """(n, groups) means of x's rows over each group of units, by the block-averaging
    matmul: half the time of numpy's reductions over the short group axis."""
    return x @ _group_average(x.shape[1], groups, x.dtype)


def _center(x: np.ndarray, groups: int, scratch: np.ndarray) -> np.ndarray:
    """GroupNorm's statistics: subtracts each row's group means from x in place and
    returns the (n, groups) variances, the centered x's mean squares.  The means
    reach their units by the 0/1 expansion matmul, exactly; scratch is overwritten."""
    np.matmul(_group_means(x, groups), _group_expand(x.shape[1], groups, x.dtype), out=scratch)
    x -= scratch
    np.square(x, out=scratch)
    return _group_means(scratch, groups)


def _gn_forward(x, gamma, beta, groups, out=None):
    """GroupNorm; normalizes x in place (x becomes xhat) and returns the affine output,
    in out or a new array, and the cache (xhat, variances of shape (n, groups, 1))."""
    n, h = x.shape
    out = np.empty_like(x) if out is None else out
    var = _center(x, groups, out)[:, :, None]
    xg = x.reshape(n, groups, h // groups)
    xg /= np.sqrt(var + GN_EPS)
    np.multiply(x, gamma, out=out)
    out += beta
    return out, (x, var)


def _gn_backward(dout, gamma, cache, groups, dx=None, scratch=None):
    """GroupNorm backward; returns (dx, dgamma, dbeta), dx = (g - mean(g) - xhat *
    mean(g * xhat)) / std per group with g = dout * gamma, the means by _group_means.

    dx and scratch, arrays of dout's shape, take dx and the temporaries;
    without them they are new arrays.
    """
    xhat, var = cache
    n, h = dout.shape
    dout_xhat = np.multiply(dout, xhat, out=scratch)
    dgamma = dout_xhat.sum(axis=0)
    dbeta = dout.sum(axis=0)
    dout_xhat *= gamma
    mean_dxh_xh = _group_means(dout_xhat, groups)
    dx = np.multiply(dout, gamma, out=dx)
    mean_dxh = _group_means(dx, groups)
    dxg = dx.reshape(n, groups, h // groups)
    dxg -= mean_dxh[:, :, None]
    dxg -= np.multiply(xhat.reshape(dxg.shape), mean_dxh_xh[:, :, None],
                       out=dout_xhat.reshape(dxg.shape))
    dxg /= np.sqrt(var + GN_EPS)
    return dx, dgamma, dbeta


def _inference_groupnorm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                         groups: int, scratch: np.ndarray) -> np.ndarray:
    """GroupNorm of x in inference form, written over x; scratch is an array of x's shape.

    scale is the (groups, h) matrix E * gamma / 2 and shift is beta / 2
    (inference_params), so x becomes the half-scale input of the SiLU after
    it.  The statistics come from _center; one matmul of the reciprocal
    standard deviations by scale spreads them over the units with the gain
    applied, so x takes one multiply and one add where _gn_forward makes a
    broadcast divide, a gain multiply and a shift add.
    """
    inv_std = _center(x, groups, scratch)
    inv_std += GN_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    np.matmul(inv_std, scale, out=scratch)
    x *= scratch
    x += shift
    return x


def row_tiles(n: int) -> list[slice]:
    """max(1, n // TILE_ROWS) contiguous, near-equal tiles that cover range(n) in order.

    Every tile holds at least min(n, TILE_ROWS) rows and fewer than
    2 * TILE_ROWS, so no tile is a small remainder.
    """
    count = max(1, n // TILE_ROWS)
    bounds = [i * n // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


_pool = None                 # the executor of _run_workers, started on first use
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
            # Imported here, not at module level: a process that never runs a
            # call over 2 * TILE_ROWS rows (training) does not pay its memory.
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="diffclass-tiles")
        return _pool


def _run_workers(n: int, alloc, run) -> None:
    """run(tiles, *alloc(rows)) on up to WORKERS workers that share the row tiles of
    range(n) (row_tiles) through one queue; rows is the largest tile's.

    The calling thread and up to WORKERS - 1 pool jobs, none for a call of
    one tile, each run in work arrays of their own and take the queue's
    next tile as they finish one; a pool job runs in a copy of the
    caller's context, so it keeps the caller's np.errstate.  When the queue
    runs dry the caller cancels every job that has not started, so a busy
    pool never holds it up, and waits for the running ones.  Raises the
    calling thread's error, else the first pool job's.

    The calling thread allocates every job's work arrays: allocated on a
    pool thread, they come from glibc's arena for that thread, which keeps
    its freed pages apart from the main heap's: 8,000-row eval-cp on a
    2-vCPU Xeon then peaked 1.8 MiB higher.
    """
    tiles = row_tiles(n)
    rows = max(tile.stop - tile.start for tile in tiles)
    lock, queue = threading.Lock(), iter(tiles)

    def take() -> slice | None:
        with lock:
            return next(queue, None)

    work = [(iter(take, None), *alloc(rows)) for _ in range(min(WORKERS, len(tiles)))]
    futures = [_executor().submit(contextvars.copy_context().run, run, *job) for job in work[1:]]
    try:
        run(*work[0])
    finally:
        started = [future for future in futures if not future.cancel()]
        for future in started:
            future.exception()       # waits; the loop below raises
    for future in started:
        future.result()


# The master entries that inference_params halves, by name prefix; param_grads gives
# each half its form entry's gradient.
HALVED = ("in_w", "in_b", "w1_", "b1_", "gn_g_", "gn_b_")


def inference_params(params: dict[str, np.ndarray], cfg: MlpConfig, dtype,
                     work: dict | None = None) -> dict[str, np.ndarray]:
    """The form both forwards run on: the trunk's entries in dtype, the head's float64.

    The HALVED entries (in_w, in_b and each block's w1, b1, gn_g, gn_b) are
    halved, exactly, so every SiLU's input arrives at half scale for
    silu_from_half; gn_scale spreads the halved gain into the
    (groups, hidden) matrix E * gamma / 2 (E the 0/1 group expansion) for
    _inference_groupnorm; cb becomes cb + b2, which inference adds to the
    few distinct (anchor, t) rows of a call.  Entries already in dtype
    (w2 and cw in float64) are the master arrays themselves.  Each entry is
    computed in float64 and rounded once to dtype, into arrays from work
    (_array): a training step rebuilds the form in the same arrays.
    """
    expand = _group_expand(cfg.hidden_dim, cfg.groups, np.float64)

    def entry(name: str, shape: tuple[int, ...]) -> np.ndarray:
        return _array(work, f"form.{name}", shape, dtype)

    def half(name: str) -> np.ndarray:
        return np.multiply(params[name], 0.5, out=entry(name, params[name].shape))

    def cast(name: str) -> np.ndarray:
        if params[name].dtype == dtype:
            return params[name]
        out = entry(name, params[name].shape)
        np.copyto(out, params[name])
        return out

    q = {"in_w": half("in_w"), "in_b": half("in_b")}
    for b in range(cfg.n_blocks):
        gamma = half(f"gn_g_{b}")
        q.update({f"w1_{b}": half(f"w1_{b}"), f"b1_{b}": half(f"b1_{b}"),
                  f"w2_{b}": cast(f"w2_{b}"), f"cw_{b}": cast(f"cw_{b}"),
                  f"cb_{b}": np.add(params[f"cb_{b}"], params[f"b2_{b}"],
                                    out=entry(f"cb_{b}", params[f"cb_{b}"].shape)),
                  f"gn_g_{b}": gamma, f"gn_b_{b}": half(f"gn_b_{b}"),
                  f"gn_scale_{b}": np.multiply(expand, gamma, out=entry(
                      f"gn_scale_{b}", (cfg.groups, cfg.hidden_dim)))})
    q.update(out_w=params["out_w"], out_b=params["out_b"])
    return q


def _inference_branch(q: dict, b: int, h: np.ndarray, out: np.ndarray,
                      scratch: np.ndarray, tanh: np.ndarray | None = None) -> np.ndarray:
    """out = h + silu(2 (h @ w1.T + b1)) @ w2.T on the halved w1, b1 of the inference
    form: block b's input plus its residual branch, less b2, which the
    conditioning bias holds.  scratch is left holding the SiLU's output;
    pass tanh, an array of h's shape, to keep the SiLU's 1 + tanh u in it."""
    np.matmul(h, q[f"w1_{b}"].T, out=scratch)
    scratch += q[f"b1_{b}"]
    silu_from_half(scratch, out if tanh is None else tanh)
    np.matmul(scratch, q[f"w2_{b}"].T, out=out)
    out += h
    return out


@dataclass(frozen=True)
class PreparedFeatures:
    """Inputs already run through the prefix of the inference trunk.

    params are the inference form of the parameters (inference_params) the
    prefix ran with, which the tail must use too; base holds block 0's input
    plus its residual branch less b2, one row per input.  Nothing writes to
    base, so every step can reuse it.
    """

    params: dict[str, np.ndarray]
    base: np.ndarray

    def __len__(self) -> int:
        return self.base.shape[0]


def forward_logits(q: dict, cfg: MlpConfig, features: np.ndarray, cond: np.ndarray,
                   work: dict | None = None):
    """Training forward of (n, f) rows at (n, d) conditioning rows on the form q
    (inference_params); returns (logits, cache).

    The trunk runs in the dtype of features, cond and q's trunk entries, the
    head in the dtype of q["out_w"].  The cache keeps what backward_logits
    reads (see the module docstring), work among it.  The logits and every
    array of the cache come from work (_array), so they hold until the next
    forward in the same workspace.
    """
    n, width = len(features), cond.shape[1]

    def rows(name: str, cols: int = cfg.hidden_dim, dtype=features.dtype) -> np.ndarray:
        return _array(work, name, (n, cols), dtype)

    u = np.matmul(features, q["in_w"].T, out=rows("h_in"))
    u += q["in_b"]
    cache = {"features": features, "t_in": rows("t_in"), "t_cond": rows("t_cond", width),
             "work": work}
    h = silu_from_half(u, cache["t_in"])
    sc = silu(cond, cache["t_cond"], rows("sc", width))
    for b in range(cfg.n_blocks):
        s1, t1 = rows(f"s1_{b}"), rows(f"t1_{b}")
        x = _inference_branch(q, b, h, rows(f"x_{b}"), s1, t1)
        cache.update({f"h_{b}": h, f"s1_{b}": s1, f"t1_{b}": t1})
        cvec = np.matmul(sc, q[f"cw_{b}"].T, out=rows("scratch"))
        cvec += q[f"cb_{b}"]
        x += cvec
        u, cache[f"gn_{b}"] = _gn_forward(x, q[f"gn_g_{b}"], q[f"gn_b_{b}"], cfg.groups,
                                          rows(f"u_{b}"))
        cache[f"tgn_{b}"] = rows(f"tgn_{b}")
        h = silu_from_half(u, cache[f"tgn_{b}"])
    head_in = rows("head", dtype=q["out_w"].dtype)
    np.copyto(head_in, h)
    cache.update({"sc": sc, "h_top": h})
    z = np.matmul(head_in, q["out_w"].T, out=rows("z", cfg.n_classes, head_in.dtype))
    z += q["out_b"]
    return z, cache


def backward_logits(q: dict, cfg: MlpConfig, dz: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
    """Gradients of a scalar objective with upstream dL/dz; mirrors forward_logits.

    Returns the gradient of every entry of q that forward_logits reads, the
    head's in its dtype and the trunk's in the trunk dtype, plus "_dcond",
    dL/dcond per row.  The weight matrices' gradients, dL/dcond and every
    temporary come from the forward's workspace (cache["work"], _array);
    the cache itself is only read.
    """
    s, sc, work = cache["h_top"], cache["sc"], cache["work"]

    def rows(name: str, cols: int = cfg.hidden_dim, dtype=s.dtype) -> np.ndarray:
        return _array(work, name, (len(dz), cols), dtype)

    def grad(name: str) -> np.ndarray:
        return _array(work, f"grad.{name}", q[name].shape, q[name].dtype)

    # One array in the head's dtype takes the head's input, then dL/d(input).
    head = rows("head", dtype=dz.dtype)
    np.copyto(head, s)
    g = {"out_w": np.matmul(dz.T, head, out=grad("out_w")), "out_b": dz.sum(axis=0)}
    dh = rows("dh")
    np.copyto(dh, np.matmul(dz, q["out_w"], out=head))
    dsc = rows("dsc", sc.shape[1])
    dsc[...] = 0.0
    for b in reversed(range(cfg.n_blocks)):
        du = _silu_slope(s, cache[f"tgn_{b}"], rows("du"))
        du *= dh
        dpre, dgamma, dbeta = _gn_backward(du, q[f"gn_g_{b}"], cache[f"gn_{b}"], cfg.groups,
                                           rows("dpre"), rows("scratch"))
        s1 = cache[f"s1_{b}"]
        g.update({f"gn_g_{b}": dgamma, f"gn_b_{b}": dbeta,
                  f"cw_{b}": np.matmul(dpre.T, sc, out=grad(f"cw_{b}")),
                  f"cb_{b}": dpre.sum(axis=0),
                  f"w2_{b}": np.matmul(dpre.T, s1, out=grad(f"w2_{b}"))})
        dsc += np.matmul(dpre, q[f"cw_{b}"], out=rows("dcond", sc.shape[1]))
        du1 = np.matmul(dpre, q[f"w2_{b}"], out=du)
        du1 *= _silu_slope(s1, cache[f"t1_{b}"], rows("scratch"))
        s = cache[f"h_{b}"]
        g[f"w1_{b}"] = np.matmul(du1.T, s, out=grad(f"w1_{b}"))
        g[f"b1_{b}"] = du1.sum(axis=0)
        dh = np.matmul(du1, q[f"w1_{b}"], out=rows("dh"))
        dh += dpre
    du = _silu_slope(s, cache["t_in"], rows("du"))
    du *= dh
    g["in_w"] = np.matmul(du.T, cache["features"], out=grad("in_w"))
    g["in_b"] = du.sum(axis=0)
    dcond = _silu_slope(sc, cache["t_cond"], rows("dcond", sc.shape[1]))
    dcond *= dsc
    dcond *= 0.5                      # silu(cond) took u = cond / 2
    g["_dcond"] = dcond
    return g


class MlpScorer(Scorer):
    """Trainable scorer; deterministic given parameters and inputs."""

    def __init__(self, cfg: MlpConfig, schedule: LogLinearSchedule,
                 params: dict[str, np.ndarray] | None = None, seed: int = 0):
        self.cfg = cfg
        self.schedule = schedule
        self.k = cfg.n_classes
        self.params = params if params is not None else init_params(cfg, seed)

    def conditioning(self, anchors: np.ndarray, t: np.ndarray, work: dict | None = None):
        """Label embedding plus projected time embedding, computed once per call; the
        time embedding reads the fraction of the total noise reached by t.

        anchors must lie in [0, K), as _check_rows makes sure: the embedding
        rows are gathered without a bounds check.  The arrays come from work
        (_array).
        """
        tf = time_features(self.schedule.sigma_bar(t) / self.schedule.sigma_bar_max,
                           self.cfg.time_embed_dim, work)
        shape = (len(anchors), self.cfg.embed_dim)
        # "clip" gathers what "raise" would for indices in range, without the buffered
        # copy numpy makes for out= under "raise".
        cond = np.take(self.params["embed"], anchors, axis=0, mode="clip",
                       out=_array(work, "cond", shape, np.float64))
        cond += np.matmul(tf, self.params["time_w"].T, out=_array(work, "time_proj", shape,
                                                                 np.float64))
        cond += self.params["time_b"]
        return cond, tf

    def logits(self, features: np.ndarray, anchors: np.ndarray, t: np.ndarray,
               work: dict | None = None):
        """Float64 logits with the backprop cache; the training forward.

        The trunk runs in float32 on float32 features and in float64 on any
        others; the conditioning and the head run in float64.  The trunk
        reads the inference form of the current parameters in the trunk's
        dtype (inference_params), which the cache keeps for param_grads.
        With work, a fit's workspace (train.AdamState.work), the form, the
        logits, the cache and the backward's arrays all come from it
        (_array), and hold until the next forward in that workspace; without
        it every array is new.
        """
        features = np.asarray(features)
        if features.dtype != np.float32:
            features = features.astype(np.float64, copy=False)
        anchors, t = self._check_rows(len(features), anchors, t)
        q = inference_params(self.params, self.cfg, features.dtype, work)
        cond, tf = self.conditioning(anchors, t, work)
        trunk_cond = _array(work, "trunk_cond", cond.shape, features.dtype)
        np.copyto(trunk_cond, cond)
        z, cache = forward_logits(q, self.cfg, features, trunk_cond, work)
        cache.update({"params": q, "tf": tf, "anchors": anchors})
        self._check_finite(z)
        return z, cache

    def prepare(self, features: np.ndarray) -> PreparedFeatures:
        """Run the conditioning-free prefix of the inference trunk once.

        Builds the float32 inference form of the parameters and runs the
        input layer and block 0's residual branch on the rows, tile
        by tile on the workers (_run_workers); score_batch takes the result
        in place of the features at any anchors and times, until the
        parameters change.
        """
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != self.cfg.feature_dim:
            raise ValidationError(f"features must be (rows, {self.cfg.feature_dim}); "
                                  f"got shape {features.shape}")
        q = inference_params(self.params, self.cfg, np.float32)
        base = np.empty((features.shape[0], self.cfg.hidden_dim), np.float32)

        def run(tiles: Iterable[slice], h_work: np.ndarray, scratch_work: np.ndarray) -> None:
            for tile in tiles:
                h, scratch = (w[:tile.stop - tile.start] for w in (h_work, scratch_work))
                np.matmul(features[tile].astype(np.float32, copy=False), q["in_w"].T, out=h)
                h += q["in_b"]
                silu_from_half(h, scratch)
                _inference_branch(q, 0, h, base[tile], scratch)

        _run_workers(len(base), lambda rows: [np.empty((rows, self.cfg.hidden_dim), np.float32)
                                              for _ in range(2)], run)
        return PreparedFeatures(q, base)

    def inference_logits(self, features: np.ndarray | PreparedFeatures, anchors: np.ndarray,
                         t: np.ndarray) -> np.ndarray:
        """Logits of the inference path: float32 trunk, float64 head, no cache.

        features are raw rows, prepared here, or the result of prepare;
        anchors and t hold one integer label and one time per row.  The
        conditioning and its per-block projections run once per call and
        distinct (anchor, t) pair, at most K rows when every row shares t,
        and are gathered per row.  The tail runs tile by tile on the workers
        (_run_workers), each in (rows, hidden) work arrays that its tiles
        reuse, so its temporaries stay cache-sized; the logits do not depend
        on the tiling while every tile holds at least TILE_ROWS rows, nor on
        the worker count.
        """
        if not isinstance(features, PreparedFeatures):
            features = self.prepare(features)
        anchors, t = self._check_rows(len(features), anchors, t)
        pair_anchors, pair_t, index = self._distinct_pairs(anchors, t)
        q, base = features.params, features.base
        cond, _ = self.conditioning(pair_anchors, pair_t)
        sc = silu(cond.astype(base.dtype))
        cvecs = [sc @ q[f"cw_{b}"].T + q[f"cb_{b}"] for b in range(self.cfg.n_blocks)]
        z = np.empty((len(base), self.k), dtype=q["out_w"].dtype)
        hidden = self.cfg.hidden_dim

        def run(tiles: Iterable[slice], h_work: np.ndarray, pair: np.ndarray) -> None:
            for tile in tiles:
                m = tile.stop - tile.start
                h = h_work[:m]
                # x and scratch are the two halves of one buffer, which also holds
                # the float64 head's input once both are spent, so the head's cast
                # takes no memory of its own.
                x, scratch = pair[:2 * m * hidden].reshape(2, m, hidden)
                for b in range(self.cfg.n_blocks):
                    x_b = base[tile] if b == 0 else _inference_branch(q, b, h, x, scratch)
                    # The indices are in range, so "clip" gathers what "raise" would,
                    # without the buffered copy numpy makes for out= under "raise".
                    np.take(cvecs[b], index[tile], axis=0, out=h, mode="clip")
                    h += x_b
                    _inference_groupnorm(h, q[f"gn_scale_{b}"], q[f"gn_b_{b}"],
                                         self.cfg.groups, scratch)
                    silu_from_half(h, scratch)
                zt = z[tile]
                head_in = pair.view(zt.dtype)[:m * hidden].reshape(m, hidden)
                head_in[...] = h
                np.matmul(head_in, q["out_w"].T, out=zt)
                zt += q["out_b"]

        _run_workers(len(base), lambda rows: (np.empty((rows, hidden), base.dtype),
                                              np.empty(2 * rows * hidden, base.dtype)), run)
        self._check_finite(z)
        return z

    def _distinct_pairs(self, anchors: np.ndarray, t: np.ndarray):
        """(anchors, t) of the distinct (anchor, t) pairs, ordered by t then anchor, and
        each row's pair index.

        When every row shares one t, as in every sampler call, a K-entry
        presence mask finds the distinct anchors in place of two sorts.
        """
        if len(t) and np.all(t == t[0]):
            present = np.zeros(self.k, dtype=bool)
            present[anchors] = True
            labels = np.flatnonzero(present)
            return labels, np.full(len(labels), t[0]), (np.cumsum(present) - 1)[anchors]
        _, t_index = np.unique(t, return_inverse=True)
        _, first, index = np.unique(t_index * self.k + anchors,
                                    return_index=True, return_inverse=True)
        return anchors[first], t[first], index

    def score_batch(self, features, anchors, t):
        z = self.inference_logits(features, anchors, t)
        rows = np.arange(z.shape[0])
        values = np.exp(z - z[rows, anchors][:, None])
        values[rows, anchors] = 1.0
        return values

    def _check_finite(self, z: np.ndarray) -> None:
        if not np.all(np.isfinite(z)):
            raise NumericalError(
                f"non-finite logits (max |param| = "
                f"{max(np.abs(v).max() for v in self.params.values()):.3e})"
            )

    def param_grads(self, dz: np.ndarray, cache: dict,
                    out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
        """Float64 gradients of every parameter, in the order of self.params, given dL/dz.

        They are written into out, float64 arrays named like self.params
        (an optimizer workspace's gradient views), when it is given, and
        into new arrays otherwise.  The gradients of the inference form map
        back to the master parameters exactly: an entry the form halves
        (HALVED) takes half its form gradient, and b2, which the form's cb
        holds, takes cb's.  The embedding gradient, a scatter-add of
        dL/dcond over the anchors, is taken as a one-hot matmul.
        """
        g = backward_logits(cache["params"], self.cfg, dz, cache)
        dcond = _array(cache["work"], "dcond64", g["_dcond"].shape, np.float64)
        np.copyto(dcond, g.pop("_dcond"))
        if out is None:
            out = {name: np.empty_like(v) for name, v in self.params.items()}
        onehot = np.equal.outer(cache["anchors"], np.arange(self.k)).astype(np.float64)
        np.matmul(onehot.T, dcond, out=out["embed"])
        np.matmul(dcond.T, cache["tf"], out=out["time_w"])
        np.sum(dcond, axis=0, out=out["time_b"])
        for name, grad in g.items():
            np.multiply(grad, 0.5 if name.startswith(HALVED) else 1.0, out=out[name])
        for b in range(self.cfg.n_blocks):
            np.copyto(out[f"b2_{b}"], g[f"cb_{b}"])
        return out

    def save(self, path: str) -> None:
        save_params(path, self.params, self.cfg, self.schedule)

    @classmethod
    def load(cls, path: str) -> "MlpScorer":
        params, cfg, schedule = load_params(path)
        return cls(cfg, schedule, params=params)


# ---------------------------------------------------------------------------
# Checkpoint format: MAGIC, u32 version, u32 K/F/d/H/B/dt/groups/time-mode,
# f64 schedule params, u32 array count, then per array (u16 name length,
# name, u8 ndim, u32 dims..., f32 data, little-endian, sorted by name).  The
# time-mode field must read 0: the time embedding reads the total-noise
# fraction (MlpScorer.conditioning), the sidecar's time_input=total-noise.
# ---------------------------------------------------------------------------

def save_params(path: str, params: dict[str, np.ndarray], cfg: MlpConfig,
                schedule: LogLinearSchedule) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(
            "<9I", FORMAT_VERSION, cfg.n_classes, cfg.feature_dim, cfg.embed_dim,
            cfg.hidden_dim, cfg.n_blocks, cfg.time_embed_dim, cfg.groups, 0,
        ))
        fh.write(struct.pack("<2d", schedule.sigma_bar_max, schedule.decay))
        names = sorted(params)
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            arr = np.ascontiguousarray(params[name], dtype="<f4")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        for key, value in _sidecar_entries(cfg, schedule, len(params)).items():
            fh.write(f"{key}={value}\n")


def _sidecar_entries(cfg: MlpConfig, schedule: LogLinearSchedule, n_arrays: int) -> dict[str, str]:
    """The .meta sidecar's key=value entries, as save_params writes them."""
    return {
        "format_version": str(FORMAT_VERSION), "n_classes": str(cfg.n_classes),
        "feature_dim": str(cfg.feature_dim), "embed_dim": str(cfg.embed_dim),
        "hidden_dim": str(cfg.hidden_dim), "n_blocks": str(cfg.n_blocks),
        "time_embed_dim": str(cfg.time_embed_dim), "groups": str(cfg.groups),
        "time_input": "total-noise", "sigma_bar_max": repr(float(schedule.sigma_bar_max)),
        "schedule_decay": repr(float(schedule.decay)), "n_arrays": str(n_arrays),
    }


def _read_sidecar(path: str) -> dict[str, str]:
    try:
        with open(path + ".meta", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError as exc:
        raise ValidationError(f"{path}: the .meta sidecar is missing") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: the .meta sidecar is not UTF-8 text") from exc
    entries = {}
    for line in lines:
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


def load_params(path: str):
    """Read a checkpoint; raises ValidationError naming the path on a bad or short file.

    Every array must have the shape the binary header implies, and every
    header field must equal its entry in the .meta sidecar.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def take(nbytes: int) -> bytes:
        nonlocal pos
        if pos + nbytes > len(raw):
            raise ValidationError(f"{path}: truncated checkpoint ({len(raw)} bytes)")
        pos += nbytes
        return raw[pos - nbytes:pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(8) != MAGIC:
        raise ValidationError(f"{path}: not a scorer checkpoint")
    version, k, f, d, h, blocks, dt, groups, mode = unpack("<9I")
    if version != FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported format version {version}")
    if mode != 0:
        raise ValidationError(f"{path}: header time_input mode {mode}; "
                              f"only 0 (total-noise) is supported")
    sbar_max, decay = unpack("<2d")
    try:
        cfg = MlpConfig(k, f, embed_dim=d, hidden_dim=h, n_blocks=blocks,
                        time_embed_dim=dt, groups=groups)
        schedule = LogLinearSchedule(sbar_max, decay)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    (n_arrays,) = unpack("<I")
    params: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        (nlen,) = unpack("<H")
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: corrupt array name") from exc
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        values = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4")
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{path}: array {name!r} holds non-finite values")
        try:
            data = values.reshape(shape)
        except ValueError as exc:   # an empty array whose other dimensions overflow
            raise ValidationError(f"{path}: array {name!r} has impossible shape {shape}") from exc
        params[name] = data.astype(np.float64)
    if pos != len(raw):
        raise ValidationError(f"{path}: {len(raw) - pos} unexpected trailing bytes")
    if cfg.n_blocks > len(params):
        # Every block has arrays of its own; do not build the shape table of a
        # corrupt header's block count, which can run to billions.
        raise ValidationError(f"{path}: the file holds {len(params)} arrays; "
                              f"the header implies {cfg.n_blocks} blocks")
    expected = param_shapes(cfg)
    for name in sorted(expected.keys() | params.keys()):
        got = params[name].shape if name in params else None
        if got != expected.get(name):
            raise ValidationError(
                f"{path}: array {name!r} has shape {got}; the header implies {expected.get(name)}")
    sidecar = _read_sidecar(path)
    for key, value in _sidecar_entries(cfg, schedule, len(params)).items():
        if sidecar.get(key) != value:
            raise ValidationError(f"{path}: header {key}={value} disagrees with the .meta "
                                  f"sidecar ({key}={sidecar.get(key)})")
    return params, cfg, schedule
