"""Combining the ensemble per query: DS, DW and DWS.

DS picks the single member with the best (lowest) competence score. DW
keeps everyone but weights each member by the inverse square root of its
score. DWS first discards members whose score falls in the upper half of
the observed score interval, then applies the DW weighting to the
survivors. The static mean and median baselines ignore competence and
need no combiner of their own (see ``bench.predict_queries``).

Every combiner takes a block's (B, N) scores and member predictions, one
row per query, as C-contiguous arrays, and sums each row in numpy's own
loop, never through BLAS, so it answers each row bit for bit as it would in
a block of its own, whatever the BLAS kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .region import normalized_inverse

ZERO_SCORE_TOL = 1e-12


@dataclass(frozen=True)
class MemberWeights:
    """Combination weights: alpha sums to 1 over selected members, 0 elsewhere.

    Both arrays are (B, N), one row per query.
    """

    alpha: np.ndarray
    selected: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "selected", np.asarray(self.selected, dtype=bool))


def _block(name: str, values) -> np.ndarray:
    """``values`` as a C-contiguous float (B, N) block; a ValueError names any
    other shape."""
    block = np.ascontiguousarray(values, dtype=float)
    if block.ndim != 2:
        raise ValueError(f"{name} must be a (B, N) block, one row per query, got {block.shape}")
    return block


def ds_predict(scores, query_predictions):
    """Select the member with the lowest score; return its query prediction.

    Ties go to the lowest member index. Returns (B,) arrays of the
    predictions and of the selected members.
    """
    s = _block("scores", scores)
    preds = _block("query_predictions", query_predictions)
    winner = np.argmin(s, axis=1)
    return np.take_along_axis(preds, winner[:, None], axis=1)[:, 0], winner


def _weights(s: np.ndarray, kept: np.ndarray) -> MemberWeights:
    """Each row's kept members weighted by 1/sqrt(score), normalised over
    them; every other member gets 0. Scores below 1e-12 count as zero, where
    :func:`~drs.region.normalized_inverse` takes the formula's limit.
    """
    if np.any(s < 0):
        raise ValueError("scores must be nonnegative")
    return MemberWeights(normalized_inverse(np.sqrt(s), s < ZERO_SCORE_TOL, kept), kept)


def dw_weights(scores) -> MemberWeights:
    """Weights inversely proportional to the square root of each score.

    alpha_i = (1/sqrt(s_i)) / sum_n (1/sqrt(s_n)). Scores below 1e-12 are
    treated as exactly competent: the weight splits uniformly over them and
    everyone else gets 0. All members stay selected. Weights are invariant
    to positive rescaling of the score vector while every score stays at or
    above 1e-12. The (B, N) block is weighted row by row.
    """
    s = _block("scores", scores)
    return _weights(s, np.ones(s.shape, dtype=bool))


def dw_predict(weights: MemberWeights, query_predictions):
    """Weighted mean of the member predictions at each query, (B,)."""
    alpha = _block("weights.alpha", weights.alpha)
    preds = _block("query_predictions", query_predictions)
    return (alpha * preds).sum(axis=1)


def dws_predict(scores, query_predictions):
    """Discard high-error members, then combine the survivors as in DW.

    The cut is at the midpoint of the observed score interval,
    tau = s_min + (s_max - s_min)/2; members with score above tau are
    discarded and the DW weights are recomputed over the rest, so the
    best-scoring member always survives and the survivor set is never
    empty. Returns (prediction, MemberWeights), with (B,) predictions and
    (B, N) weights.
    """
    s = _block("scores", scores)
    s_min = s.min(axis=1, keepdims=True)
    s_max = s.max(axis=1, keepdims=True)
    tau = s_min + (s_max - s_min) / 2.0
    survivors = s <= tau
    empty = np.flatnonzero(~survivors.any(axis=1))
    survivors[empty, np.argmin(s[empty], axis=1)] = True
    weights = _weights(s, survivors)
    return dw_predict(weights, query_predictions), weights
