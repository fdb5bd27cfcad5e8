"""Trainable scorer network.

The scorer is a conditioned residual MLP: a label embedding and a
sinusoidal time embedding are summed into one conditioning vector, each
residual block adds a transformed copy of it on the skip path, the
conditioned skip-sum is group-normalized, and a zero-initialized linear
head emits logits z.  A read (score_batch) is the softmax of z, one class
distribution per row; training takes the same logits as the ratios
exp(z_i - z_j) against the row's anchor j, for the score-entropy loss.

Read at one fixed (anchor, t), where the conditioning is a constant each
block's cb could hold, the same network is the comparison grid's softmax
baseline of matched capacity (train.fit with cross_entropy).

Parameters live as float32 arrays in a flat dict: init_params rounds its
float64 draws once, and training updates them in float32 (train.AdamState).
A checkpoint (save_params, load_params) is those float32 values, bare and
little-endian, in a fixed order, described only by its plain-text .meta
header, whose key=value grammar datasets share (data.read_header); so a
loaded scorer is the saved one, bit for bit.  Every forward and backward,
the conditioning and the head included, runs in the parameters' dtype
and takes the features in it: float32 for every scorer the package
makes, float64 only on a caller's float64 copy of the parameters (the
finite-difference gradient tests).  The logits become float64 once, where
logits and inference_logits return them, for the loss and the sampler;
the backward takes dL/dz back into the parameters' dtype once.  Only the
time embedding's angles are float64 (time_features).
The GroupNorm group count is no setting: MlpConfig.groups derives it from
hidden_dim, so every group holds at least MIN_GROUP_UNITS units.

Both forwards run on one form of the parameters (inference_params): every
affine map that only feeds a SiLU is halved, so each SiLU takes its
half-scale input u = x / 2 as u * (1 + tanh u) (silu_from_half); each
block's GroupNorm gain and shift are halved, and b2 joins the
conditioning bias cb.

Training (MlpScorer.logits, forward_logits) builds the form from the
master parameters at every forward.  The cache keeps each block's input,
every SiLU's output s and t = 1 + tanh u, and each GroupNorm's xhat and
variance; the backward takes each SiLU's slope in u as t + s * (2 - t)
(_silu_slope), and param_grads maps the form's gradients back to the
master parameters exactly.  Every array of a training forward and
backward (the form, the trunk's logits, the cache and the backward's
temporaries) comes from _array: in a fit, from the optimizer's workspace
(train.AdamState.work), which keeps one array per name from the first
step on, a short tail batch taking views of their first rows; without a
workspace (MlpScorer.logits called on its own), new arrays, from the same
code.  A gradient is held once: the backward and param_grads write every
entry's straight into param_grads' destination, in a fit the optimizer's
float32 gradient buffer.

Inference (MlpScorer.prepare, inference_logits) builds the form once per
prepare call and keeps no backprop cache.  Its GroupNorm (_inference_groupnorm)
spreads the halved gain into a (groups, hidden) matrix, so one matmul of
the per-group reciprocal standard deviations gives the scale the rows
take in one multiply; it never forms xhat, which the gain's gradient
needs, so training keeps _gn_forward.  The two
GroupNorms, and _gn_backward, take their group means by one
block-averaging matmul (_group_means, through _center for the
statistics), in either dtype.  The block loops stay two as well: they
differ in the cache, the GroupNorm form, where the conditioning rows come
from and block 0's prefix.  The prefix runs the input layer and block 0's
residual branch, none of which sees the conditioning, once per input, which
a sampler reuses for every row of the input and on every step: prepare
allocates one base row per input (PreparedFeatures), and fill, which the
sampler calls in each tile's first unit, writes the tile's, so its workers
run the prefix.  Run in prepare on the calling thread alone, it took 4.6 ms
per 4,000-row engine block, and 8,000-row eval-cp read 5.8% fewer rows/s
(medians of 10 alternating benchmark pairs, slower in 7; 2-vCPU Xeon, one
BLAS thread).  The tail runs the rest, each row gathering its input's base
row and its anchor's per-block conditioning rows, built for the K labels
apart from the rows (tables).  Both run over contiguous row tiles
(row_tiles) of fewer than 2 * TILE_ROWS rows, and of at least TILE_ROWS
unless the call has fewer, in (rows, hidden) work arrays that every tile
reuses, so the tail's elementwise passes stay in the L2 cache; with no tile
under TILE_ROWS rows the result equals one untiled call bit for bit.
A read runs its tiles in turn on the calling thread, in work arrays from
the caller's work space when it gives one (score_batch's space), and
starts no thread: the sampler shares its tiles over its workers
(sampler.WORKERS).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import read_header, write_header
from .errors import NumericalError, ValidationError
from .schedule import LogLinearSchedule
from .score import Scorer, from_space

CHECKPOINT_FORMAT = "scorer-checkpoint"
FORMAT_VERSION = 2
GN_EPS = 1e-5
# The fewest units a GroupNorm group may hold.  A 1-unit group normalizes to 0
# and a 2-unit one to about +-1: 3-epoch K=8 scorers (seeds 0-5) read cp@8
# top-1 0.12-0.13 at hidden 8 on 8 groups, against 0.45-0.69 on 2.  Smaller
# groups also magnify float32 rounding: 1.1e-4 logit error at 2 units, 1.5e-5 at 4.
MIN_GROUP_UNITS = 4
# The most GroupNorm groups a block has (MlpConfig.groups), 8 at hidden_dim >= 32.
MAX_GROUPS = 8
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


@dataclass(frozen=True)
class MlpConfig:
    """The scorer's widths and block count; its GroupNorm group count is derived (groups)."""

    n_classes: int
    feature_dim: int
    embed_dim: int = 64
    hidden_dim: int = 128
    n_blocks: int = 3
    time_embed_dim: int = 64

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ValidationError("need at least 2 classes")
        if self.feature_dim < 1:
            raise ValidationError("feature_dim must be positive")
        if self.n_blocks < 1:
            raise ValidationError("n_blocks must be positive: the conditioning enters in the blocks")
        if min(self.embed_dim, self.time_embed_dim) < 1:
            raise ValidationError("embed_dim and time_embed_dim must be positive")
        if self.hidden_dim < MIN_GROUP_UNITS:
            raise ValidationError(f"hidden_dim={self.hidden_dim}: a GroupNorm group needs at "
                                  f"least MIN_GROUP_UNITS={MIN_GROUP_UNITS} units")
        if self.time_embed_dim % 2 != 0:
            raise ValidationError("time_embed_dim must be even")

    @functools.cached_property
    def groups(self) -> int:
        """GroupNorm groups per block, each of at least MIN_GROUP_UNITS units: the
        largest divisor of hidden_dim up to min(MAX_GROUPS, hidden_dim // MIN_GROUP_UNITS)."""
        cap = min(MAX_GROUPS, self.hidden_dim // MIN_GROUP_UNITS)
        return next(g for g in range(cap, 0, -1) if self.hidden_dim % g == 0)


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


def _silu_slope(s: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d silu(2u) / du from silu_from_half's output s and its t = 1 + tanh u, in out:
    with tau = tanh u it is (1 + tau) + u (1 - tau)(1 + tau) = t + s * (2 - t)."""
    slope = np.subtract(2.0, t, out=out)
    slope *= s
    slope += t
    return slope


@functools.lru_cache(maxsize=None)
def _time_frequencies(half: int) -> np.ndarray:
    freqs = np.exp(np.linspace(np.log(1.0), np.log(1000.0), half))
    freqs.flags.writeable = False
    return freqs


def time_features(u: np.ndarray, n_dims: int, dtype, work: dict | None) -> np.ndarray:
    """Sinusoidal features of a scalar in [0, 1], geometric frequency ladder, in dtype:
    the sines fill the first half of the columns and the cosines the second.  The angles
    are float64, each feature rounded once to dtype; the arrays come from work (_array)."""
    u = np.asarray(u, dtype=np.float64)
    half = n_dims // 2
    ang = np.multiply(u[:, None], _time_frequencies(half)[None, :],
                      out=_array(work, "time_angle", (len(u), half), np.float64))
    features = _array(work, "time_features", (len(u), n_dims), dtype)
    np.sin(ang, out=features[:, :half])
    np.cos(ang, out=features[:, half:])
    return features


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

    Biases and the output head start at zero, so the initial read is uniform.
    The draws are float64, each rounded once to the float32 the parameters live in.
    """
    rng = np.random.default_rng(seed)
    p: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name == "embed":
            value = 0.1 * rng.standard_normal(shape)
        elif len(shape) == 2 and name != "out_w":
            value = rng.standard_normal(shape) * np.sqrt(2.0 / shape[1])
        else:
            value = np.ones(shape) if name.startswith("gn_g_") else np.zeros(shape)
        p[name] = value.astype(np.float32)
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


def _gn_forward(x, gamma, beta, groups, out):
    """GroupNorm; normalizes x in place (x becomes xhat) and returns the affine output,
    in out, an array of x's shape, and the cache (xhat, variances of shape (n, groups, 1))."""
    n, h = x.shape
    var = _center(x, groups, out)[:, :, None]
    xg = x.reshape(n, groups, h // groups)
    xg /= np.sqrt(var + GN_EPS)
    np.multiply(x, gamma, out=out)
    out += beta
    return out, (x, var)


def _gn_backward(dout, gamma, cache, groups, out):
    """GroupNorm backward; returns (dx, dgamma, dbeta), dx = (g - mean(g) - xhat *
    mean(g * xhat)) / std per group with g = dout * gamma, the means by _group_means.

    out is (dx, dgamma, dbeta, scratch): arrays of dout's shape for dx and
    the temporaries, and of gamma's for the gain's and shift's gradients,
    all in dout's dtype.
    """
    xhat, var = cache
    n, h = dout.shape
    dx, dgamma, dbeta, scratch = out
    dout_xhat = np.multiply(dout, xhat, out=scratch)
    dgamma = np.sum(dout_xhat, axis=0, out=dgamma)
    dbeta = np.sum(dout, axis=0, out=dbeta)
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


# The master entries that inference_params halves, by name prefix; param_grads gives
# each half its form entry's gradient.
HALVED = ("in_w", "in_b", "w1_", "b1_", "gn_g_", "gn_b_")


def inference_params(params: dict[str, np.ndarray], cfg: MlpConfig,
                     work: dict | None) -> dict[str, np.ndarray]:
    """The form both forwards run on, in the parameters' dtype.

    The HALVED entries (in_w, in_b and each block's w1, b1, gn_g, gn_b) are
    halved, exactly, so every SiLU's input arrives at half scale for
    silu_from_half; gn_scale spreads the halved gain into the
    (groups, hidden) matrix E * gamma / 2 (E the 0/1 group expansion) for
    _inference_groupnorm; cb becomes cb + b2, which inference adds to the
    K label rows of a call.  w2, cw, out_w and out_b are the master arrays
    themselves; every other entry is an array from work (_array), so a
    training step rebuilds the form in the same arrays.
    """
    dtype = params["in_w"].dtype
    expand = _group_expand(cfg.hidden_dim, cfg.groups, dtype)

    def entry(name: str, shape: tuple[int, ...]) -> np.ndarray:
        return _array(work, f"form.{name}", shape, dtype)

    def half(name: str) -> np.ndarray:
        return np.multiply(params[name], 0.5, out=entry(name, params[name].shape))

    q = {"in_w": half("in_w"), "in_b": half("in_b")}
    for b in range(cfg.n_blocks):
        gamma = half(f"gn_g_{b}")
        q.update({f"w1_{b}": half(f"w1_{b}"), f"b1_{b}": half(f"b1_{b}"),
                  f"w2_{b}": params[f"w2_{b}"], f"cw_{b}": params[f"cw_{b}"],
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
    """One block of inputs for the inference trunk, one row per input.

    params are the inference form of the parameters (inference_params) the
    prefix and the tail both run with; features, the inputs in its dtype, a
    copy, so a later change to the caller's features changes no read; base,
    the prefix's output (block 0's input plus its residual branch, less b2),
    which MlpScorer.fill writes, each row once, before any read of it.
    """

    params: dict[str, np.ndarray]
    features: np.ndarray
    base: np.ndarray


def forward_logits(q: dict, cfg: MlpConfig, features: np.ndarray, cond: np.ndarray,
                   work: dict | None):
    """Training forward of (n, f) rows at (n, d) conditioning rows on the form q
    (inference_params); returns (logits, cache).

    Everything runs in the dtype of features, cond and q, the logits among
    it.  The cache keeps what backward_logits reads (see the module
    docstring), work among it.  The logits and every array of the cache come
    from work (_array), so they hold until the next forward in the same
    workspace.
    """
    n, width = len(features), cond.shape[1]

    def rows(name: str, cols: int = cfg.hidden_dim) -> np.ndarray:
        return _array(work, name, (n, cols), features.dtype)

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
    cache.update({"sc": sc, "h_top": h})
    z = np.matmul(h, q["out_w"].T, out=rows("z", cfg.n_classes))
    z += q["out_b"]
    return z, cache


def backward_logits(q: dict, cfg: MlpConfig, dz: np.ndarray, cache: dict,
                    out: dict[str, np.ndarray]) -> np.ndarray:
    """Gradients of a scalar objective with upstream dL/dz; mirrors forward_logits.

    Writes the gradient of every entry of q that forward_logits reads into
    out[name], param_grads' destination arrays (in a fit, the optimizer's
    gradient views), and returns dL/dcond per row.  dz, in any float dtype,
    is taken into the trunk's once; dL/dcond and every temporary are arrays
    from the forward's workspace (cache["work"], _array).  The cache itself
    is only read.
    """
    s, sc, work = cache["h_top"], cache["sc"], cache["work"]

    def rows(name: str, cols: int = cfg.hidden_dim) -> np.ndarray:
        return _array(work, name, (len(dz), cols), s.dtype)

    dz_trunk = rows("dz", cfg.n_classes)
    dz_trunk[...] = dz
    np.matmul(dz_trunk.T, s, out=out["out_w"])
    np.sum(dz_trunk, axis=0, out=out["out_b"])
    dh = np.matmul(dz_trunk, q["out_w"], out=rows("dh"))
    dsc = rows("dsc", sc.shape[1])
    dsc[...] = 0.0
    for b in reversed(range(cfg.n_blocks)):
        du = _silu_slope(s, cache[f"tgn_{b}"], rows("du"))
        du *= dh
        dpre, _, _ = _gn_backward(
            du, q[f"gn_g_{b}"], cache[f"gn_{b}"], cfg.groups,
            (rows("dpre"), out[f"gn_g_{b}"], out[f"gn_b_{b}"], rows("scratch")))
        s1 = cache[f"s1_{b}"]
        np.matmul(dpre.T, sc, out=out[f"cw_{b}"])
        np.sum(dpre, axis=0, out=out[f"cb_{b}"])
        np.matmul(dpre.T, s1, out=out[f"w2_{b}"])
        dsc += np.matmul(dpre, q[f"cw_{b}"], out=rows("dcond", sc.shape[1]))
        du1 = np.matmul(dpre, q[f"w2_{b}"], out=du)
        du1 *= _silu_slope(s1, cache[f"t1_{b}"], rows("scratch"))
        s = cache[f"h_{b}"]
        np.matmul(du1.T, s, out=out[f"w1_{b}"])
        np.sum(du1, axis=0, out=out[f"b1_{b}"])
        dh = np.matmul(du1, q[f"w1_{b}"], out=rows("dh"))
        dh += dpre
    du = _silu_slope(s, cache["t_in"], rows("du"))
    du *= dh
    np.matmul(du.T, cache["features"], out=out["in_w"])
    np.sum(du, axis=0, out=out["in_b"])
    dcond = _silu_slope(sc, cache["t_cond"], rows("dcond", sc.shape[1]))
    dcond *= dsc
    dcond *= 0.5                      # silu(cond) took u = cond / 2
    return dcond


def _reduce_columns(ufunc, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ufunc folded over the columns of z, left to right, into out: what
    functools.reduce(ufunc, z.T) gives, without a new array per column."""
    ufunc(z[:, 0], z[:, 1], out=out)
    for column in z.T[2:]:
        ufunc(out, column, out=out)
    return out


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

        anchors must lie in [0, K), as _check_anchors makes sure: the embedding
        rows are gathered without a bounds check.  It runs in the parameters'
        dtype; the arrays come from work (_array).
        """
        embed = self.params["embed"]
        tf = time_features(self.schedule.sigma_bar(t) / self.schedule.sigma_bar_max,
                           self.cfg.time_embed_dim, embed.dtype, work)
        shape = (len(anchors), self.cfg.embed_dim)
        # "clip" gathers what "raise" would for indices in range, without the buffered
        # copy numpy makes for out= under "raise".
        cond = np.take(embed, anchors, axis=0, mode="clip",
                       out=_array(work, "cond", shape, embed.dtype))
        cond += np.matmul(tf, self.params["time_w"].T,
                          out=_array(work, "time_proj", shape, embed.dtype))
        cond += self.params["time_b"]
        return cond, tf

    def logits(self, features: np.ndarray, anchors: np.ndarray, t: np.ndarray,
               work: dict | None = None):
        """Float64 logits with the backprop cache; the training forward.

        The forward runs in the parameters' dtype, on the features taken in
        it and on the inference form of the current parameters
        (inference_params), which the cache keeps for param_grads; its
        logits are widened to float64 once, here.  With work, a fit's
        workspace (train.AdamState.work), the form, the cache and the
        backward's arrays all come from it (_array), and hold until the next
        forward in that workspace; without it every array is new.
        """
        q = inference_params(self.params, self.cfg, work)
        features = np.asarray(features, q["in_w"].dtype)
        anchors = self._check_anchors(len(features), anchors)
        t = np.asarray(t, dtype=np.float64)
        if t.shape != anchors.shape:
            raise ValidationError(f"need one time per row: {len(anchors)} rows, "
                                  f"t of shape {t.shape}")
        cond, tf = self.conditioning(anchors, t, work)
        z, cache = forward_logits(q, self.cfg, features, cond, work)
        cache.update({"params": q, "tf": tf, "anchors": anchors})
        self._check_finite(z)
        return z.astype(np.float64, copy=False), cache

    def prepare(self, features: np.ndarray) -> PreparedFeatures:
        """One row per input for reads at any anchors and times, until the parameters
        change: the inference form of the parameters, a copy of the features in its
        dtype, and the prefix's rows, allocated here and written by fill."""
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != self.cfg.feature_dim:
            raise ValidationError(f"features must be (rows, {self.cfg.feature_dim}); "
                                  f"got shape {features.shape}")
        q = inference_params(self.params, self.cfg, None)
        dtype = q["in_w"].dtype
        return PreparedFeatures(q, np.array(features, dtype),
                                np.empty((len(features), self.cfg.hidden_dim), dtype))

    def tables(self, times) -> dict[float, list[np.ndarray]]:
        """Each block's conditioning rows for the K labels at each of times, cw silu(cond)
        + cb on the inference form, which every row read at that time gathers by its
        anchor: one conditioning call per time."""
        q = inference_params(self.params, self.cfg, None)
        tables = {}
        for t in times:
            sc = silu(self.conditioning(np.arange(self.k), np.full(self.k, t))[0])
            tables[float(t)] = [sc @ q[f"cw_{b}"].T + q[f"cb_{b}"]
                                for b in range(self.cfg.n_blocks)]
        return tables

    def fill(self, prepared: PreparedFeatures, inputs: slice, space: np.ndarray | None) -> None:
        """Runs the prefix (the input layer and block 0's residual branch) of prepared's
        inputs at inputs into their base rows, tile by tile (row_tiles), in two
        (rows, hidden) work arrays from space (from_space), or new ones."""
        q, features, base = prepared.params, prepared.features[inputs], prepared.base[inputs]
        tiles = row_tiles(len(base))
        shape = (max(tile.stop - tile.start for tile in tiles), self.cfg.hidden_dim)
        h_work, at = from_space(space, 0, shape, base.dtype)
        scratch_work, _ = from_space(space, at, shape, base.dtype)
        for tile in tiles:
            h, scratch = h_work[:tile.stop - tile.start], scratch_work[:tile.stop - tile.start]
            np.matmul(features[tile], q["in_w"].T, out=h)
            h += q["in_b"]
            silu_from_half(h, scratch)
            _inference_branch(q, 0, h, base[tile], scratch)

    def space_words(self, rows: int) -> int:
        """Float64 words of score_batch's space for reads of up to rows rows: the
        float64 distributions, the trunk's logits and three (rows, hidden) work
        arrays in the parameters' dtype (_read); fill takes two of those arrays' worth."""
        size = np.dtype(self.params["in_w"].dtype).itemsize
        return sum(-(-n // 8) for n in (rows * self.k * 8, rows * self.k * size,
                                         *[rows * self.cfg.hidden_dim * size] * 3))

    def _read(self, features, anchors: np.ndarray, t: float,
              space: np.ndarray | None) -> np.ndarray:
        """Float64 logits of the inference path, the first n * K words of space
        (from_space), or a new array where space is None; every work array comes
        from space after them, or is new.  Raw rows are prepared and filled for
        this read, at a table built for t."""
        if not isinstance(features, tuple):
            prepared = self.prepare(features)
            self.fill(prepared, slice(None), space)
            features = (prepared, np.arange(len(prepared.base)), self.tables([t]))
        prepared, inputs, tables = features
        q, base = prepared.params, prepared.base
        n, dtype = len(inputs), base.dtype
        anchors = self._check_anchors(n, anchors)
        cvecs = tables[float(t)]
        tiles = row_tiles(n)
        rows = max(tile.stop - tile.start for tile in tiles)
        logits, at = from_space(space, 0, (n, self.k), np.float64)
        z, at = from_space(space, at, (n, self.k), dtype)
        h_work, at = from_space(space, at, (rows, self.cfg.hidden_dim), dtype)
        x_work, at = from_space(space, at, (rows, self.cfg.hidden_dim), dtype)
        scratch_work, _ = from_space(space, at, (rows, self.cfg.hidden_dim), dtype)
        for tile in tiles:
            h, x, scratch = (w[:tile.stop - tile.start] for w in (h_work, x_work, scratch_work))
            # The indices are in range, so "clip" gathers what "raise" would,
            # without the buffered copy numpy makes for out= under "raise".
            np.take(base, inputs[tile], axis=0, out=x, mode="clip")
            for b in range(self.cfg.n_blocks):
                if b:
                    _inference_branch(q, b, h, x, scratch)
                np.take(cvecs[b], anchors[tile], axis=0, out=h, mode="clip")
                h += x
                _inference_groupnorm(h, q[f"gn_scale_{b}"], q[f"gn_b_{b}"], self.cfg.groups,
                                     scratch)
                silu_from_half(h, scratch)
            zt = np.matmul(h, q["out_w"].T, out=z[tile])
            zt += q["out_b"]
        self._check_finite(z)
        logits[...] = z
        return logits

    def inference_logits(self, features, anchors: np.ndarray, t: float) -> np.ndarray:
        """Float64 logits of the inference path, which keeps no cache.

        features are raw rows, prepared and filled here, or an engine tile's
        (prepared, inputs, tables) (Scorer.score_batch);
        anchors hold one integer label per row, and every row is read at the
        one time t.  Each row gathers its input's base row and its anchor's
        conditioning rows from the table of t (tables).  The tail runs tile
        by tile, in (rows, hidden) work arrays that its tiles reuse, so its
        temporaries stay cache-sized; the logits do not depend on the tiling
        while every tile holds at least TILE_ROWS rows.  Everything runs in
        the dtype of the prepared rows, the parameters'; the logits are
        widened to float64 once, at the end.
        """
        return self._read(features, anchors, t, None)

    def score_batch(self, features, anchors, t, space=None):
        z = self._read(features, anchors, t, space)
        # Reduced column by column: on 4,000 x 8 logits numpy's max(axis=1) took 255-330
        # us and sum(axis=1) 74-90, a ufunc over the K columns 20-23 us each.  The row
        # values go in the words of space after z, which the read no longer needs.
        row, _ = from_space(space, z.nbytes, (len(z),), np.float64)
        z -= _reduce_columns(np.maximum, z, row)[:, None]
        np.exp(z, out=z)
        z /= _reduce_columns(np.add, z, row)[:, None]
        return z

    def _check_finite(self, z: np.ndarray) -> None:
        if not np.all(np.isfinite(z)):
            raise NumericalError(
                f"non-finite logits (max |param| = "
                f"{max(np.abs(v).max() for v in self.params.values()):.3e})"
            )

    def param_grads(self, dz: np.ndarray, cache: dict,
                    out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
        """Gradients of every parameter, in the order of self.params, given dL/dz.

        They are written into out, arrays named like self.params (an
        optimizer workspace's float32 gradient views), when it is given, and
        into new arrays like the parameters otherwise, each computed there
        in the parameters' dtype, the trunk's and head's by backward_logits.
        The gradients of the inference form map back to the master
        parameters exactly: an entry the form halves (HALVED) takes half its
        form gradient, in place (x 0.5 is exact), and b2, which the form's
        cb holds, takes cb's.  The embedding gradient, a scatter-add of
        dL/dcond over the anchors, is taken as a one-hot matmul.
        """
        if out is None:
            out = {name: np.empty_like(v) for name, v in self.params.items()}
        dcond = backward_logits(cache["params"], self.cfg, dz, cache, out)
        onehot = np.equal.outer(cache["anchors"], np.arange(self.k)).astype(dcond.dtype)
        np.matmul(onehot.T, dcond, out=out["embed"])
        np.matmul(dcond.T, cache["tf"], out=out["time_w"])
        np.sum(dcond, axis=0, out=out["time_b"])
        for name, grad in out.items():
            if name.startswith(HALVED):
                grad *= 0.5
        for b in range(self.cfg.n_blocks):
            np.copyto(out[f"b2_{b}"], out[f"cb_{b}"])
        return out

    def save(self, path: str) -> None:
        save_params(path, self.params, self.cfg, self.schedule)

    @classmethod
    def load(cls, path: str) -> "MlpScorer":
        params, cfg, schedule = load_params(path)
        return cls(cfg, schedule, params=params)


# ---------------------------------------------------------------------------
# Checkpoint format, version 2.  <path> holds the parameters alone: each array
# of param_shapes(cfg), in sorted-name order, as little-endian float32, with
# nothing between them.  <path>.meta, a data.write_header header, is the only
# description of the file: format=scorer-checkpoint, format_version=2, every
# MlpConfig field, the groups hidden_dim derives (MlpConfig.groups), and the
# schedule's sigma_bar_max and schedule_decay.
# Version 1 files (a binary header, then each array's name and dims before its
# values) are not read.
# ---------------------------------------------------------------------------

def save_params(path: str, params: dict[str, np.ndarray], cfg: MlpConfig,
                schedule: LogLinearSchedule) -> None:
    with open(path, "wb") as fh:
        for name in sorted(param_shapes(cfg)):
            fh.write(np.ascontiguousarray(params[name], dtype="<f4").tobytes())
    write_header(path + ".meta", {
        "format": CHECKPOINT_FORMAT, "format_version": FORMAT_VERSION,
        **{field.name: getattr(cfg, field.name) for field in fields(MlpConfig)},
        "groups": cfg.groups,
        "sigma_bar_max": repr(float(schedule.sigma_bar_max)),
        "schedule_decay": repr(float(schedule.decay))})


def load_params(path: str):
    """Read a checkpoint; returns (params, cfg, schedule), params as float32 views of
    one buffer that holds the file's bytes.

    Raises ValidationError naming the file when the .meta header is missing,
    is not UTF-8 text, is not a version-2 scorer checkpoint's or holds a
    missing or invalid entry, when the binary's length differs from the byte
    count the header implies or its groups from MlpConfig.groups, and when a
    value is not finite.
    """
    meta = read_header(path + ".meta")
    kind = (meta.get("format"), meta.get("format_version"))
    if kind != (CHECKPOINT_FORMAT, str(FORMAT_VERSION)):
        raise ValidationError(f"{path}.meta: format={kind[0]}, format_version={kind[1]}; this "
                              f"program reads format={CHECKPOINT_FORMAT}, "
                              f"format_version={FORMAT_VERSION}")
    try:
        cfg = MlpConfig(**{field.name: int(meta[field.name]) for field in fields(MlpConfig)})
        schedule = LogLinearSchedule(float(meta["sigma_bar_max"]), float(meta["schedule_decay"]))
    except (KeyError, ValueError) as exc:    # ValidationError is a ValueError
        raise ValidationError(f"{path}.meta: missing or malformed entry ({exc})") from exc
    # The count from the one- and two-block tables: a corrupt header's block count
    # can run to billions, so its own table is built only once the file's size fits.
    one, two = (sum(math.prod(shape) for shape in param_shapes(replace(cfg, n_blocks=b)).values())
                for b in (1, 2))
    count = one + (cfg.n_blocks - 1) * (two - one)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == 4 * count:
            # Read straight into the parameters' buffer; on a little-endian machine
            # "<f4" is float32, and astype makes no copy.
            values = np.empty(count, "<f4")
            size = fh.readinto(values)
    if size != 4 * count:
        raise ValidationError(f"{path}: {size} bytes, where the .meta header describes "
                              f"{4 * count} bytes ({count} float32 parameters)")
    if meta.get("groups") != str(cfg.groups):
        raise ValidationError(f"{path}.meta: groups={meta.get('groups')}, where "
                              f"hidden_dim={cfg.hidden_dim} has {cfg.groups} GroupNorm groups")
    values = values.astype(np.float32, copy=False)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{path}: holds non-finite values")
    params, start = {}, 0
    for name, shape in sorted(param_shapes(cfg).items()):
        params[name] = values[start:start + math.prod(shape)].reshape(shape)
        start += math.prod(shape)
    return params, cfg, schedule
