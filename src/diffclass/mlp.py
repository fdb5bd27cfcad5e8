"""Trainable ratio-score network and a matched-capacity softmax baseline.

The scorer is a conditioned residual MLP: a label embedding and a
sinusoidal time embedding are summed into one conditioning vector, each
residual block adds a transformed copy of it on the skip path, the
conditioned skip-sum is group-normalized, and a zero-initialized linear
head emits logits z.  Scores are exp(z_i - z_j), which pins the anchor
entry to one, keeps all entries positive, and makes score normalization
the softmax of z.

Parameters live as float64 arrays in a flat dict; checkpoints are written
as little-endian float32 with a binary header plus a plain-text sidecar.
The trunk runs in float32 unless the config's GroupNorm groups hold fewer
than MIN_FLOAT32_GROUP units (MlpConfig.trunk_dtype): there a near-zero
group variance magnifies float32 rounding, so that config runs its trunk
in float64, in training and inference alike.

The training forward and backward run the trunk in the dtype of the
features and the head in float64.  The forward's cache keeps every SiLU's
denominator 1 + exp(-x) and silu(z1), so the backward takes the slopes
without another exp.  Under an optimizer the trunk reads the optimizer's
float32 shadow of the float64 master parameters, and param_grads writes
float64 gradients into the optimizer's gradient buffer (see train.py); on
float64 features (the finite-difference gradient tests) the whole
gradient path stays float64.

Inference runs the trunk in cfg.trunk_dtype and the head in float64, with
no backprop cache, split in two halves.  The prefix (trunk_prefix, through
MlpScorer.prepare) casts the parameters and runs the input layer and
block 0's residual branch, none of which sees the conditioning, once per
set of inputs; a sampler prepares its inputs once and reuses them on
every step.  The tail (forward_logits on the prepared rows) adds block
0's conditioning, normalizes, and runs the remaining blocks and the head;
the conditioning runs once per call and distinct (anchor, t) pair.  Both
halves run over contiguous row tiles (row_tiles) of fewer than
2 * TILE_ROWS rows, and of at least TILE_ROWS unless the call has fewer,
each writing its rows into one preallocated base or logits array: a
tile's (rows, hidden) temporaries stay in the L2 cache across the tail's
elementwise passes, where a whole 8,000-row batch does not.  With no
tile under TILE_ROWS rows the result equals one untiled call bit for bit.
Training passes raw features through the same two halves, untiled.  In
float32 GroupNorm takes its group means, forward and backward, by a
block-averaging matmul; float64 keeps numpy's reductions.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .schedule import LogLinearSchedule
from .score import Scorer

MAGIC = b"SCORENET"
FORMAT_VERSION = 1
GN_EPS = 1e-5
# The fewest units per GroupNorm group the trunk runs in float32 at.  A smaller
# group's variance can be near zero, where GroupNorm magnifies rounding by up to
# 1/sqrt(GN_EPS) times: over 100 random 8-group scorers of 1-3 blocks, float32
# logits were off float64's by up to 1.1e-4 at 2-unit groups and 2.4e-5 at 3,
# against 1.5e-5 at 4 and 5.9e-6 at 8.
MIN_FLOAT32_GROUP = 4
# Rows per inference tile (see row_tiles).  The trunk's tail makes ~18
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

TIME_INPUT_MODES = ("total-noise", "raw")


@dataclass(frozen=True)
class MlpConfig:
    n_classes: int
    feature_dim: int
    embed_dim: int = 64
    hidden_dim: int = 128
    n_blocks: int = 3
    time_embed_dim: int = 64
    groups: int = 8
    time_input: str = "total-noise"

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
        if self.time_embed_dim % 2 != 0:
            raise ValidationError("time_embed_dim must be even")
        if self.time_input not in TIME_INPUT_MODES:
            raise ValidationError(f"time_input must be one of {TIME_INPUT_MODES}")

    @property
    def trunk_dtype(self) -> type:
        """float32, or float64 for GroupNorm groups under MIN_FLOAT32_GROUP units."""
        return np.float32 if self.hidden_dim // self.groups >= MIN_FLOAT32_GROUP else np.float64


def silu(x: np.ndarray, out: np.ndarray | None = None,
         denom: np.ndarray | None = None) -> np.ndarray:
    """x / (1 + exp(-x)); pass out=x to overwrite the input, denom to keep 1 + exp(-x)."""
    d = np.negative(x, out=denom)
    np.exp(d, out=d)
    d += 1.0
    return np.divide(x, d, out=out)


def _silu_kept(x: np.ndarray, cache: dict, key: str) -> np.ndarray:
    """silu(x) in a new array, keeping its denominator in cache[key] for the backward."""
    cache[key] = np.empty_like(x)
    return silu(x, denom=cache[key])


def _silu_slope(x: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """silu'(x) = s * (1 + x * (1 - s)), s = 1 / denom, from the denominator silu kept."""
    s = np.divide(1.0, denom)
    slope = np.subtract(1.0, s)
    slope *= x
    slope += 1.0
    slope *= s
    return slope


@functools.lru_cache(maxsize=None)
def _time_frequencies(half: int) -> np.ndarray:
    freqs = np.exp(np.linspace(np.log(1.0), np.log(1000.0), half))
    freqs.flags.writeable = False
    return freqs


def time_features(u: np.ndarray, n_dims: int) -> np.ndarray:
    """Sinusoidal features of a scalar in [0, 1], geometric frequency ladder."""
    ang = np.asarray(u, dtype=np.float64)[:, None] * _time_frequencies(n_dims // 2)[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


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


def _gn_forward(x, gamma, beta, groups, out=None):
    """GroupNorm; normalizes x in place (x becomes xhat), writes the affine output to out.

    Float32 input takes the group mean and variance by an (h, groups)
    block-averaging matmul, which halves the layer's time against numpy's
    reductions over the short group axis; float64 input keeps those
    reductions, so its arithmetic does not change.
    """
    n, h = x.shape
    size = h // groups
    xg = x.reshape(n, groups, size)
    if x.dtype == np.float32:
        average = _group_average(h, groups, np.float32)
        xg -= (x @ average)[:, :, None]
        var = (np.square(x) @ average)[:, :, None]
    else:
        xg -= xg.mean(axis=2, keepdims=True)
        var = np.square(xg).mean(axis=2, keepdims=True)
    xg /= np.sqrt(var + GN_EPS)
    out = np.multiply(x, gamma, out=out)
    out += beta
    return out, (x, var)


def _gn_backward(dout, gamma, cache, groups):
    """GroupNorm backward; returns (dx, dgamma, dbeta).

    Like _gn_forward, float32 takes the two group means by the
    block-averaging matmul and float64 keeps numpy's reductions.
    """
    xhat, var = cache
    n, h = dout.shape
    dout_xhat = dout * xhat
    dgamma = dout_xhat.sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxh = dout * gamma
    if dout.dtype == np.float32:
        average = _group_average(h, groups, np.float32)
        mean_dxh_xh = (dout_xhat * gamma) @ average
        mean_dxh = dxh @ average
        dx = dxh.reshape(n, groups, h // groups)
        dx -= mean_dxh[:, :, None]
        dx -= xhat.reshape(dx.shape) * mean_dxh_xh[:, :, None]
        dx /= np.sqrt(var + GN_EPS)
        return dx.reshape(n, h), dgamma, dbeta
    dxh = dxh.reshape(n, groups, h // groups)
    xh = xhat.reshape(n, groups, h // groups)
    inv = 1.0 / np.sqrt(var + GN_EPS)
    dx = inv * (dxh - dxh.mean(axis=2, keepdims=True) - xh * (dxh * xh).mean(axis=2, keepdims=True))
    return dx.reshape(n, h), dgamma, dbeta


def row_tiles(n: int) -> list[slice]:
    """max(1, n // TILE_ROWS) contiguous, near-equal tiles that cover range(n) in order.

    Every tile holds at least min(n, TILE_ROWS) rows and fewer than
    2 * TILE_ROWS, so no tile is a small remainder.
    """
    count = max(1, n // TILE_ROWS)
    bounds = [i * n // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class PreparedFeatures:
    """Inputs already run through the prefix of the float32 inference trunk.

    params are the cast parameters the prefix ran with, which the tail must
    use too; base holds h0 + r0, block 0's input plus its residual branch,
    one row per input.  Nothing writes to base, so every step can reuse it.
    """

    params: dict[str, np.ndarray]
    base: np.ndarray

    def __len__(self) -> int:
        return self.base.shape[0]


def _residual_branch(p: dict, b: int, h: np.ndarray, cache: dict | None) -> np.ndarray:
    """Block b's branch silu(h @ w1.T + b1) @ w2.T + b2.

    With a cache, keeps h, z1, silu(z1) and its denominator there; without
    one, z1 is overwritten by its SiLU and is spent once the branch is formed.
    """
    z1 = h @ p[f"w1_{b}"].T
    z1 += p[f"b1_{b}"]
    if cache is None:
        s1 = silu(z1, out=z1)
    else:
        s1 = _silu_kept(z1, cache, f"d1_{b}")
        cache.update({f"h_{b}": h, f"z1_{b}": z1, f"s1_{b}": s1})
    r = s1 @ p[f"w2_{b}"].T
    r += p[f"b2_{b}"]
    return r


def trunk_prefix(p: dict, features: np.ndarray, keep_cache: bool = True):
    """The trunk up to block 0's conditioning add: h0 + r0, and the cache or None.

    The input layer and block 0's residual branch do not see the
    conditioning, so one pass serves every (anchor, t) the rows are scored at.
    """
    cache = {"features": features} if keep_cache else None
    a_in = features @ p["in_w"].T
    a_in += p["in_b"]
    if cache is None:
        h = silu(a_in, out=a_in)
    else:
        h = _silu_kept(a_in, cache, "d_in")
        cache["a_in"] = a_in
    r = _residual_branch(p, 0, h, cache)
    return np.add(h, r, out=r), cache


def forward_logits(p: dict, cfg: MlpConfig, features: np.ndarray | PreparedFeatures,
                   cond: np.ndarray, index: np.ndarray | None = None,
                   keep_cache: bool = True):
    """Trunk forward; returns (logits, cache for backprop or None).

    features holds raw (n, f) rows, which run through trunk_prefix first, or
    PreparedFeatures made with the same parameters (inference only, no
    cache).  cond holds one (d,) conditioning row per input or, when index
    is given, the distinct rows, input i using cond[index[i]]; the
    conditioning projections then run once per distinct row
    (backward_logits needs the per-row form).  The trunk runs in the dtype
    of the rows and cond, the head in the dtype of p["out_w"].  Without
    keep_cache, intermediates are overwritten in place and no cache is kept;
    with it, the cache also keeps every SiLU's denominator 1 + exp(-x), so
    the backward takes the slopes without another exp.
    """
    if isinstance(features, PreparedFeatures):
        x, cache = features.base, None
    else:
        x, cache = trunk_prefix(p, features, keep_cache)
    sc = silu(cond) if cache is None else _silu_kept(cond, cache, "d_cond")
    for b in range(cfg.n_blocks):
        if b:
            r = _residual_branch(p, b, h, cache)
            x = np.add(h, r, out=r)
            # Without a cache these are spent; dropping them now keeps them out of
            # the peak memory of GroupNorm and the head.
            del h, r
        cvec = sc @ p[f"cw_{b}"].T
        cvec += p[f"cb_{b}"]
        rows = cvec if index is None else cvec[index]
        pre = np.add(x, rows, out=rows)   # never into x: it may be the shared prepared base
        del x
        gnout, gncache = _gn_forward(pre, p[f"gn_g_{b}"], p[f"gn_b_{b}"], cfg.groups,
                                     out=pre if cache is None else None)
        if cache is None:
            h = silu(gnout, out=gnout)
        else:
            cache[f"gn_{b}"] = (gnout, gncache)
            h = _silu_kept(gnout, cache, f"dgn_{b}")
    if cache is not None:
        cache.update({"cond": cond, "sc": sc, "h_top": h})
    z = h.astype(p["out_w"].dtype, copy=False) @ p["out_w"].T + p["out_b"]
    return z, cache


def backward_logits(p: dict, cfg: MlpConfig, dz: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
    """Gradients of a scalar objective with upstream dL/dz; mirrors forward_logits.

    p are the parameters the forward ran with.  Returns the gradient of
    every parameter forward_logits reads, the head's in its dtype and the
    trunk's in the trunk dtype, plus "_dcond", dL/dcond per row.  The SiLU
    slopes come from the denominators and silu(z1) the forward cached.
    """
    h_top = cache["h_top"]
    g = {"out_w": dz.T @ h_top, "out_b": dz.sum(axis=0)}
    dh = (dz @ p["out_w"]).astype(h_top.dtype, copy=False)
    dsc = np.zeros_like(cache["sc"])
    for b in reversed(range(cfg.n_blocks)):
        gnout, gncache = cache[f"gn_{b}"]
        dgn = _silu_slope(gnout, cache[f"dgn_{b}"])
        dgn *= dh
        dpre, dgamma, dbeta = _gn_backward(dgn, p[f"gn_g_{b}"], gncache, cfg.groups)
        dbias = dpre.sum(axis=0)      # cb and b2 both take dpre's column sums
        g.update({f"gn_g_{b}": dgamma, f"gn_b_{b}": dbeta, f"cw_{b}": dpre.T @ cache["sc"],
                  f"cb_{b}": dbias, f"w2_{b}": dpre.T @ cache[f"s1_{b}"], f"b2_{b}": dbias.copy()})
        dsc += dpre @ p[f"cw_{b}"]
        dz1 = dpre @ p[f"w2_{b}"]
        dz1 *= _silu_slope(cache[f"z1_{b}"], cache[f"d1_{b}"])
        g[f"w1_{b}"] = dz1.T @ cache[f"h_{b}"]
        g[f"b1_{b}"] = dz1.sum(axis=0)
        dh = dz1 @ p[f"w1_{b}"]
        dh += dpre
    din = _silu_slope(cache["a_in"], cache["d_in"])
    din *= dh
    g["in_w"] = din.T @ cache["features"]
    g["in_b"] = din.sum(axis=0)
    dcond = _silu_slope(cache["cond"], cache["d_cond"])
    dcond *= dsc
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

    def time_scalar(self, t: np.ndarray) -> np.ndarray:
        """Scalar fed to the time embedding; total noise fraction by default."""
        t = np.asarray(t, dtype=np.float64)
        if self.cfg.time_input == "raw":
            return t
        return np.asarray(self.schedule.sigma_bar(t)) / self.schedule.sigma_bar_max

    def conditioning(self, anchors: np.ndarray, t: np.ndarray):
        """Label embedding plus projected time embedding, computed once per call."""
        tf = time_features(self.time_scalar(t), self.cfg.time_embed_dim)
        cond = self.params["embed"][anchors] + tf @ self.params["time_w"].T + self.params["time_b"]
        return cond, tf

    def trunk_params(self, dtype) -> dict[str, np.ndarray]:
        """The parameters for a trunk in dtype: all but the head's cast to it.

        For float64 these are the master parameters themselves.
        """
        if dtype == np.float64:
            return self.params
        return {name: v if name.startswith("out_") else v.astype(dtype)
                for name, v in self.params.items()}

    def logits(self, features: np.ndarray, anchors: np.ndarray, t: np.ndarray,
               workspace=None):
        """Float64 logits with the backprop cache; the training forward.

        The trunk runs in float32 on float32 features when cfg.trunk_dtype
        is float32, and in float64 otherwise; the conditioning and the head
        run in float64.  The trunk parameters come from
        workspace.trunk_params(dtype) when an optimizer workspace is given
        (its float32 shadow), else from self.trunk_params(dtype); the cache
        keeps them for param_grads.
        """
        features = np.asarray(features)
        if features.dtype != np.float32 or self.cfg.trunk_dtype != np.float32:
            features = features.astype(np.float64, copy=False)
        anchors = np.asarray(anchors)
        params = (self if workspace is None else workspace).trunk_params(features.dtype)
        cond, tf = self.conditioning(anchors, t)
        z, cache = forward_logits(params, self.cfg, features,
                                  cond.astype(features.dtype, copy=False))
        cache.update({"params": params, "tf": tf, "anchors": anchors})
        self._check_finite(z)
        return z, cache

    def prepare(self, features: np.ndarray) -> PreparedFeatures:
        """Run the conditioning-free prefix of the inference trunk once.

        Runs the input layer and block 0's residual branch on the rows with
        the trunk parameters in cfg.trunk_dtype; score_batch takes the result
        in place of the features at any anchors and times, until the
        parameters change.
        """
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != self.cfg.feature_dim:
            raise ValidationError(f"features must be (rows, {self.cfg.feature_dim}); "
                                  f"got shape {features.shape}")
        dtype = self.cfg.trunk_dtype
        params = self.trunk_params(dtype)
        base = np.empty((features.shape[0], self.cfg.hidden_dim), dtype)
        for tile in row_tiles(len(base)):
            base[tile], _ = trunk_prefix(params, features[tile].astype(dtype, copy=False),
                                         keep_cache=False)
        return PreparedFeatures(params, base)

    def inference_logits(self, features: np.ndarray | PreparedFeatures, anchors: np.ndarray,
                         t: np.ndarray) -> np.ndarray:
        """Logits of the inference path: cfg.trunk_dtype trunk, float64 head, no cache.

        features are raw rows, prepared here, or the result of prepare;
        anchors and t hold one integer label and one time per row.  The
        conditioning runs once per call and distinct (anchor, t) pair, at
        most K rows when every row shares t, and is gathered per row.  The
        tail runs tile by tile over row_tiles, so its (rows, hidden)
        temporaries stay cache-sized; the logits do not depend on the tiling
        while every tile holds at least TILE_ROWS rows.
        """
        anchors = np.asarray(anchors)
        t = np.asarray(t, dtype=np.float64)
        if not isinstance(features, PreparedFeatures):
            features = self.prepare(features)
        n = len(features)
        if anchors.shape != (n,) or t.shape != (n,):
            raise ValidationError(f"need one anchor and one time per row: {n} rows, "
                                  f"anchors of shape {anchors.shape}, t of shape {t.shape}")
        if anchors.size and not np.issubdtype(anchors.dtype, np.integer):
            raise ValidationError(f"anchors must be integer labels, not {anchors.dtype}")
        if anchors.size and (anchors.min() < 0 or anchors.max() >= self.k):
            raise ValidationError(f"anchors must lie in [0, {self.k})")
        _, t_index = np.unique(t, return_inverse=True)
        _, first, index = np.unique(t_index * self.k + anchors,
                                    return_index=True, return_inverse=True)
        cond, _ = self.conditioning(anchors[first], t[first])
        cond = cond.astype(features.base.dtype)
        z = np.empty((n, self.k), dtype=features.params["out_w"].dtype)
        for tile in row_tiles(n):
            rows = PreparedFeatures(features.params, features.base[tile])
            z[tile], _ = forward_logits(features.params, self.cfg, rows, cond,
                                        index=index[tile], keep_cache=False)
        self._check_finite(z)
        return z

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
        into new arrays otherwise.  The embedding gradient, a scatter-add of
        dL/dcond over the anchors, is taken as a one-hot matmul.
        """
        g = backward_logits(cache["params"], self.cfg, dz, cache)
        dcond = g.pop("_dcond").astype(np.float64, copy=False)
        if out is None:
            out = {name: np.empty_like(v) for name, v in self.params.items()}
        onehot = np.equal.outer(cache["anchors"], np.arange(self.k)).astype(np.float64)
        np.matmul(onehot.T, dcond, out=out["embed"])
        np.matmul(dcond.T, cache["tf"], out=out["time_w"])
        np.sum(dcond, axis=0, out=out["time_b"])
        for name, grad in g.items():
            np.copyto(out[name], grad)
        return out

    def save(self, path: str) -> None:
        save_params(path, self.params, self.cfg, self.schedule)

    @classmethod
    def load(cls, path: str) -> "MlpScorer":
        params, cfg, schedule = load_params(path)
        return cls(cfg, schedule, params=params)


class CeClassifier:
    """Softmax cross-entropy baseline on the same trunk, minus conditioning.

    Matched capacity for the comparison grid: identical encoder, residual
    blocks, normalization, and head; the conditioning vector is a zero
    constant so the conditioning projections are inert.
    """

    def __init__(self, cfg: MlpConfig, params: dict[str, np.ndarray] | None = None, seed: int = 0):
        self.cfg = cfg
        self.k = cfg.n_classes
        self.params = params if params is not None else init_params(cfg, seed)

    def logits(self, features: np.ndarray):
        features = np.asarray(features, dtype=np.float64)
        cond = np.zeros((features.shape[0], self.cfg.embed_dim))
        return forward_logits(self.params, self.cfg, features, cond)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        z, _ = self.logits(features)
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def loss_and_grads(self, features: np.ndarray, labels: np.ndarray,
                       out: dict[str, np.ndarray] | None = None):
        """Mean cross-entropy and its gradients, written into out when given (see
        MlpScorer.param_grads); the conditioning parameters' gradients are zero."""
        z, cache = self.logits(features)
        n = z.shape[0]
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs = e / e.sum(axis=1, keepdims=True)
        loss = float(-np.log(np.maximum(probs[np.arange(n), labels], 1e-300)).mean())
        dz = probs.copy()
        dz[np.arange(n), labels] -= 1.0
        dz /= n
        g = backward_logits(self.params, self.cfg, dz, cache)
        g.pop("_dcond")  # conditioning input is constant zero
        if out is None:
            out = {name: np.empty_like(v) for name, v in self.params.items()}
        for name, grad in out.items():
            np.copyto(grad, g.get(name, 0.0))
        return loss, out


# ---------------------------------------------------------------------------
# Checkpoint format: MAGIC, u32 version, u32 K/F/d/H/B/dt/groups/time-mode,
# f64 schedule params, u32 array count, then per array (u16 name length,
# name, u8 ndim, u32 dims..., f32 data, little-endian, sorted by name).
# ---------------------------------------------------------------------------

def save_params(path: str, params: dict[str, np.ndarray], cfg: MlpConfig,
                schedule: LogLinearSchedule) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(
            "<9I", FORMAT_VERSION, cfg.n_classes, cfg.feature_dim, cfg.embed_dim,
            cfg.hidden_dim, cfg.n_blocks, cfg.time_embed_dim, cfg.groups,
            TIME_INPUT_MODES.index(cfg.time_input),
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
        "time_input": cfg.time_input, "sigma_bar_max": repr(float(schedule.sigma_bar_max)),
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
    if mode >= len(TIME_INPUT_MODES):
        raise ValidationError(f"{path}: unknown time-input mode {mode}")
    sbar_max, decay = unpack("<2d")
    try:
        cfg = MlpConfig(k, f, embed_dim=d, hidden_dim=h, n_blocks=blocks,
                        time_embed_dim=dt, groups=groups,
                        time_input=TIME_INPUT_MODES[mode])
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
