"""The scorer interface: a denoiser read as class distributions.

A read (Scorer.score_batch) estimates, per row of features, the label's
forward marginal at one noise time t given the features and the row's
anchor label: a distribution over the K labels, which the sampler's steps
take as it is.  The ratio form q_i / q_j against an anchor j is the loss's.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

# Floor applied to probabilities before ratio/log operations; forward
# marginals are analytically positive but can underflow at large noise.
PROB_FLOOR = 1e-12


def floor_probs(q: np.ndarray) -> np.ndarray:
    """Clip probabilities at PROB_FLOOR from below."""
    return np.maximum(np.asarray(q, dtype=np.float64), PROB_FLOOR)


def from_space(space: np.ndarray | None, start: int, shape: tuple[int, ...], dtype):
    """An array of shape and dtype over the bytes of space, a flat float64 work space,
    from byte start, and the byte offset after it, rounded up to 8; where space is
    None, a new array.  Every offset is a multiple of 8, so each array is aligned."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    end = start + -(-size // 8) * 8
    if space is None:
        return np.empty(shape, dtype), end
    return space.view(np.uint8)[start:start + size].view(dtype).reshape(shape), end


class Scorer:
    """Reads one class distribution per row of (features, anchor label) at one time.

    Subclasses implement score_batch; scoring is read-only on the scorer's
    state.  A sampler's posterior call (sampler._reverse) calls tables(times)
    once, before any read, then per block of inputs prepare(features), both
    on the calling thread; then per tile of the block's rows, on whichever
    worker takes the unit and in that worker's space, fill(prepared, inputs,
    space) for the tile's inputs in its first unit, and score_batch((prepared,
    inputs, tables), anchors, t, space) once per step.  Units of different
    tiles run at once: no two tiles hold the same input, a tile reads only
    rows its own fill wrote, and the tables, built before, are only read, so
    no two reads that may run at once write what the other reads.  A read of
    raw features prepares its own rows.
    """

    k: int

    def tables(self, times):
        """What every read at each of times shares, which depends on the parameters and t
        alone; the base class's reads share nothing."""
        return None

    def prepare(self, features: np.ndarray):
        """One row per input for one block's reads; the base class keeps the features."""
        return features

    def fill(self, prepared, inputs: slice, space: np.ndarray | None) -> None:
        """Does the reads' work that depends on the inputs alone, for prepared's inputs at
        inputs, in space; the base class has none."""

    def space_words(self, rows: int) -> int:
        """Float64 words of the work space (score_batch's space) for reads of up to rows
        rows: at least rows * K, where a read may return its distributions.  The
        base class's reads use none of it."""
        return rows * self.k

    def score_batch(self, features: np.ndarray, anchors: np.ndarray, t: float,
                    space: np.ndarray | None = None) -> np.ndarray:
        """Class distributions for a batch: (n, dim) features, or a tile's (prepared,
        inputs, tables), inputs being each row's input index and t one of the
        tables' times; (n,) anchors, one time t shared by every row -> (n, K) rows
        that sum to one, which belong to the caller.  space, a flat float64 array of
        at least space_words(n) words, is scratch the read may write its arrays in
        instead of allocating them, its result among them: the caller keeps it, and
        the result, until the next read into it."""
        raise NotImplementedError

    def _check_anchors(self, n: int, anchors) -> np.ndarray:
        """anchors as an array, checked to hold one integer label in [0, K) per row of n;
        raises ValidationError otherwise."""
        anchors = np.asarray(anchors)
        if anchors.shape != (n,):
            raise ValidationError(f"need one anchor per row: {n} rows, "
                                  f"anchors of shape {anchors.shape}")
        if anchors.size and not np.issubdtype(anchors.dtype, np.integer):
            raise ValidationError(f"anchors must be integer labels, not {anchors.dtype}")
        if anchors.size and (anchors.min() < 0 or anchors.max() >= self.k):
            raise ValidationError(f"anchors must lie in [0, {self.k})")
        return anchors
