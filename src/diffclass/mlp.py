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
Training runs in float64: the manual forward/backward keeps the whole
gradient path explicit and finite-difference checkable.  Inference
(score_batch) runs the trunk in float32 on a per-call cast of the
parameters and the head in float64, keeps no backprop cache, and computes
the conditioning once per distinct (anchor, t) pair.
"""

from __future__ import annotations

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
        if self.hidden_dim % self.groups != 0:
            raise ValidationError("hidden_dim must be divisible by groups")
        if self.time_embed_dim % 2 != 0:
            raise ValidationError("time_embed_dim must be even")
        if self.time_input not in TIME_INPUT_MODES:
            raise ValidationError(f"time_input must be one of {TIME_INPUT_MODES}")


def silu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x / (1 + exp(-x)); pass out=x to overwrite the input."""
    d = np.negative(x)
    np.exp(d, out=d)
    d += 1.0
    return np.divide(x, d, out=out)


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def time_features(u: np.ndarray, n_dims: int) -> np.ndarray:
    """Sinusoidal features of a scalar in [0, 1], geometric frequency ladder."""
    half = n_dims // 2
    freqs = np.exp(np.linspace(np.log(1.0), np.log(1000.0), half))
    ang = np.asarray(u, dtype=np.float64)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


def init_params(cfg: MlpConfig, seed: int) -> dict[str, np.ndarray]:
    """He-style init; the output head starts at zero so the initial scores are all ones."""
    rng = np.random.default_rng(seed)
    d, h, f = cfg.embed_dim, cfg.hidden_dim, cfg.feature_dim
    p: dict[str, np.ndarray] = {}
    p["embed"] = 0.1 * rng.standard_normal((cfg.n_classes, d))
    p["time_w"] = rng.standard_normal((d, cfg.time_embed_dim)) * np.sqrt(2.0 / cfg.time_embed_dim)
    p["time_b"] = np.zeros(d)
    p["in_w"] = rng.standard_normal((h, f)) * np.sqrt(2.0 / f)
    p["in_b"] = np.zeros(h)
    for b in range(cfg.n_blocks):
        p[f"w1_{b}"] = rng.standard_normal((h, h)) * np.sqrt(2.0 / h)
        p[f"b1_{b}"] = np.zeros(h)
        p[f"w2_{b}"] = rng.standard_normal((h, h)) * np.sqrt(2.0 / h)
        p[f"b2_{b}"] = np.zeros(h)
        p[f"cw_{b}"] = rng.standard_normal((h, d)) * np.sqrt(2.0 / d)
        p[f"cb_{b}"] = np.zeros(h)
        p[f"gn_g_{b}"] = np.ones(h)
        p[f"gn_b_{b}"] = np.zeros(h)
    p["out_w"] = np.zeros((cfg.n_classes, h))
    p["out_b"] = np.zeros(cfg.n_classes)
    return p


def _gn_forward(x, gamma, beta, groups, out=None):
    """GroupNorm; normalizes x in place (x becomes xhat), writes the affine output to out."""
    n, h = x.shape
    xg = x.reshape(n, groups, h // groups)
    xg -= xg.mean(axis=2, keepdims=True)
    var = np.square(xg).mean(axis=2, keepdims=True)
    xg /= np.sqrt(var + GN_EPS)
    out = np.multiply(x, gamma, out=out)
    out += beta
    return out, (x, var)


def _gn_backward(dout, gamma, cache, groups):
    xhat, var = cache
    n, h = dout.shape
    dgamma = (dout * xhat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxh = (dout * gamma).reshape(n, groups, h // groups)
    xh = xhat.reshape(n, groups, h // groups)
    inv = 1.0 / np.sqrt(var + GN_EPS)
    dx = inv * (dxh - dxh.mean(axis=2, keepdims=True) - xh * (dxh * xh).mean(axis=2, keepdims=True))
    return dx.reshape(n, h), dgamma, dbeta


def forward_logits(p: dict, cfg: MlpConfig, features: np.ndarray, cond: np.ndarray,
                   index: np.ndarray | None = None, keep_cache: bool = True):
    """Trunk forward; returns (logits, cache for backprop or None).

    cond holds one (d,) conditioning row per input or, when index is given,
    the distinct rows, input i using cond[index[i]]; the conditioning
    projections then run once per distinct row (backward_logits needs the
    per-row form).  The trunk runs in the dtype of features and cond, the
    head in the dtype of p["out_w"].  Without keep_cache, intermediates are
    overwritten in place and no cache is kept.
    """
    cache: dict | None = {"features": features, "cond": cond} if keep_cache else None
    sc = silu(cond)
    a_in = features @ p["in_w"].T
    a_in += p["in_b"]
    h = silu(a_in, out=None if keep_cache else a_in)
    for b in range(cfg.n_blocks):
        z1 = h @ p[f"w1_{b}"].T
        z1 += p[f"b1_{b}"]
        r = silu(z1, out=None if keep_cache else z1) @ p[f"w2_{b}"].T
        r += p[f"b2_{b}"]
        cvec = sc @ p[f"cw_{b}"].T
        cvec += p[f"cb_{b}"]
        pre = np.add(h, r, out=r)
        pre += cvec if index is None else cvec[index]
        gnout, gncache = _gn_forward(pre, p[f"gn_g_{b}"], p[f"gn_b_{b}"], cfg.groups,
                                     out=None if keep_cache else pre)
        if cache is not None:
            cache.update({f"h_{b}": h, f"z1_{b}": z1, f"gn_{b}": (gnout, gncache)})
        h = silu(gnout, out=None if keep_cache else gnout)
    if cache is not None:
        cache.update({"sc": sc, "a_in": a_in, "h_top": h})
    z = h.astype(p["out_w"].dtype, copy=False) @ p["out_w"].T + p["out_b"]
    return z, cache


def backward_logits(p: dict, cfg: MlpConfig, dz: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
    """Gradients of a scalar objective with upstream dL/dz; mirrors forward_logits."""
    g = {k: np.zeros_like(v) for k, v in p.items()}
    g["out_w"] = dz.T @ cache["h_top"]
    g["out_b"] = dz.sum(axis=0)
    dh = dz @ p["out_w"]
    dsc = np.zeros_like(cache["sc"])
    for b in reversed(range(cfg.n_blocks)):
        gnout, gncache = cache[f"gn_{b}"]
        dgn = dh * silu_grad(gnout)
        dpre, dgamma, dbeta = _gn_backward(dgn, p[f"gn_g_{b}"], gncache, cfg.groups)
        g[f"gn_g_{b}"] = dgamma
        g[f"gn_b_{b}"] = dbeta
        g[f"cw_{b}"] = dpre.T @ cache["sc"]
        g[f"cb_{b}"] = dpre.sum(axis=0)
        dsc += dpre @ p[f"cw_{b}"]
        s1 = silu(cache[f"z1_{b}"])
        g[f"w2_{b}"] = dpre.T @ s1
        g[f"b2_{b}"] = dpre.sum(axis=0)
        dz1 = (dpre @ p[f"w2_{b}"]) * silu_grad(cache[f"z1_{b}"])
        g[f"w1_{b}"] = dz1.T @ cache[f"h_{b}"]
        g[f"b1_{b}"] = dz1.sum(axis=0)
        dh = dpre + dz1 @ p[f"w1_{b}"]
    din = dh * silu_grad(cache["a_in"])
    g["in_w"] = din.T @ cache["features"]
    g["in_b"] = din.sum(axis=0)
    g["_dcond"] = dsc * silu_grad(cache["cond"])
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

    def logits(self, features: np.ndarray, anchors: np.ndarray, t: np.ndarray):
        """Float64 logits with the backprop cache; the training forward."""
        features = np.asarray(features, dtype=np.float64)
        anchors = np.asarray(anchors)
        cond, tf = self.conditioning(anchors, t)
        z, cache = forward_logits(self.params, self.cfg, features, cond)
        cache["tf"] = tf
        cache["anchors"] = anchors
        self._check_finite(z)
        return z, cache

    def inference_logits(self, features: np.ndarray, anchors: np.ndarray,
                         t: np.ndarray) -> np.ndarray:
        """Logits of the inference path: float32 trunk, float64 head, no cache.

        The float64 parameters are cast once per call.  The conditioning runs
        once per distinct (anchor, t) pair, at most K rows when every row
        shares t, and is gathered per row.
        """
        anchors = np.asarray(anchors)
        t = np.asarray(t, dtype=np.float64)
        if anchors.size and (anchors.min() < 0 or anchors.max() >= self.k):
            raise ValidationError(f"anchors must lie in [0, {self.k})")
        _, t_index = np.unique(t, return_inverse=True)
        _, first, index = np.unique(t_index * self.k + anchors,
                                    return_index=True, return_inverse=True)
        cond, _ = self.conditioning(anchors[first], t[first])
        trunk = {name: v if name.startswith("out_") else v.astype(np.float32)
                 for name, v in self.params.items()}
        z, _ = forward_logits(trunk, self.cfg, np.asarray(features, dtype=np.float32),
                              cond.astype(np.float32), index=index, keep_cache=False)
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

    def param_grads(self, dz: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        """Parameter gradients given dL/dz from the loss; includes embeddings."""
        g = backward_logits(self.params, self.cfg, dz, cache)
        dcond = g.pop("_dcond")
        np.add.at(g["embed"], cache["anchors"], dcond)
        g["time_w"] = dcond.T @ cache["tf"]
        g["time_b"] = dcond.sum(axis=0)
        return g

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

    def loss_and_grads(self, features: np.ndarray, labels: np.ndarray):
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
        return loss, g


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
        fh.write(f"format_version={FORMAT_VERSION}\n")
        fh.write(f"n_classes={cfg.n_classes}\n")
        fh.write(f"feature_dim={cfg.feature_dim}\n")
        fh.write(f"embed_dim={cfg.embed_dim}\n")
        fh.write(f"hidden_dim={cfg.hidden_dim}\n")
        fh.write(f"n_blocks={cfg.n_blocks}\n")
        fh.write(f"time_embed_dim={cfg.time_embed_dim}\n")
        fh.write(f"groups={cfg.groups}\n")
        fh.write(f"time_input={cfg.time_input}\n")
        fh.write(f"sigma_bar_max={schedule.sigma_bar_max!r}\n")
        fh.write(f"schedule_decay={schedule.decay!r}\n")
        fh.write(f"n_arrays={len(params)}\n")


def load_params(path: str):
    """Read a checkpoint; raises ValidationError naming the path on a bad or short file."""
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
    cfg = MlpConfig(k, f, embed_dim=d, hidden_dim=h, n_blocks=blocks,
                    time_embed_dim=dt, groups=groups,
                    time_input=TIME_INPUT_MODES[mode])
    schedule = LogLinearSchedule(sbar_max, decay)
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
        count = math.prod(shape)
        data = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape)
        params[name] = data.astype(np.float64)
    if pos != len(raw):
        raise ValidationError(f"{path}: {len(raw) - pos} unexpected trailing bytes")
    return params, cfg, schedule
