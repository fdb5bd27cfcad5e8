"""Score-entropy objective for ratio-matching.

Per element the objective is  f(s_hat) = s_hat - s*log(s_hat) + A(s)  with
A(a) = a*(log(a) - 1).  The A(s) term carries no gradient but makes the
per-element value a Bregman-type divergence: nonnegative, zero exactly at
s_hat = s.  The batch weight is sigma_t / K.
"""

from __future__ import annotations

import numpy as np

from .score import PROB_FLOOR


def score_entropy_terms(s_true: np.ndarray, s_pred: np.ndarray) -> tuple[np.ndarray, int]:
    """Unweighted per-element values; also counts floored log arguments."""
    n_floored = int(np.count_nonzero(s_pred < PROB_FLOOR) + np.count_nonzero(s_true < PROB_FLOOR))
    sp = np.maximum(s_pred, PROB_FLOOR)
    st = np.maximum(s_true, PROB_FLOOR)
    per = sp - st * np.log(sp) + st * (np.log(st) - 1.0)
    # Mathematically >= 0; clamp the roundoff dust near the optimum.
    return np.maximum(per, 0.0), n_floored


def loss_grad_wrt_logits(s_true: np.ndarray, s_pred: np.ndarray, anchors: np.ndarray,
                         sigma_t: np.ndarray, k: int) -> np.ndarray:
    """Batched gradient through the anchored-exponential head.

    With s_hat_i = exp(z_i - z_j), the chain rule collapses to
    (sigma_t / K) * (s_hat - s) off-anchor, and minus the row sum at the
    anchor, so every row sums to zero (logit-shift invariance).
    """
    w = (np.asarray(sigma_t, dtype=np.float64) / k)[:, None]
    g = w * (s_pred - s_true)
    rows = np.arange(g.shape[0])
    g[rows, anchors] = 0.0
    g[rows, anchors] = -g.sum(axis=1)
    return g
