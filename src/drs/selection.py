"""Combining the ensemble per query: DS, DW and DWS.

DS picks the single member with the best (lowest) competence score. DW
keeps everyone but weights each member by the inverse square root of its
score. DWS first discards members whose score falls in the upper half of
the observed score interval, then applies the DW weighting to the
survivors. The static mean and median baselines ignore competence and
need no combiner of their own (see ``bench.predict_queries``).

Every combiner takes a block's (B, N) scores and member predictions, one
row per query, and answers each row bit for bit as it would in a block of
its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """``values`` as a float (B, N) block; a ValueError names any other shape."""
    block = np.asarray(values, dtype=float)
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


def _inverse_sqrt(s: np.ndarray, members) -> np.ndarray:
    """1/sqrt(score), with the zero-score rule folded in.

    In a row where a member of ``members`` scores below 1e-12, those
    members get 1 and every other member 0 (1/sqrt(inf)), so normalising
    the row splits the weight uniformly over them.
    """
    if np.any(s < 0):
        raise ValueError("scores must be nonnegative")
    zero = (s < ZERO_SCORE_TOL) & members
    exact = zero.any(axis=-1, keepdims=True)
    if exact.any():
        s = np.where(exact, np.where(zero, 1.0, np.inf), s)
    return 1.0 / np.sqrt(s)


def dw_weights(scores) -> MemberWeights:
    """Weights inversely proportional to the square root of each score.

    alpha_i = (1/sqrt(s_i)) / sum_n (1/sqrt(s_n)). Scores below 1e-12 are
    treated as exactly competent: the weight splits uniformly over them and
    everyone else gets 0. All members stay selected. Weights are invariant
    to positive rescaling of the score vector while every score stays at or
    above 1e-12. The (B, N) block is weighted row by row.
    """
    # C order, so each row's sum runs over contiguous memory at any block size.
    s = np.ascontiguousarray(_block("scores", scores))
    inv = _inverse_sqrt(s, True)
    return MemberWeights(inv / inv.sum(axis=-1, keepdims=True), np.ones(s.shape, dtype=bool))


def dw_predict(weights: MemberWeights, query_predictions):
    """Weighted mean of the member predictions at each query, (B,)."""
    alpha = _block("weights.alpha", weights.alpha)
    preds = _block("query_predictions", query_predictions)
    return (alpha[:, None, :] @ preds[:, :, None])[:, 0, 0]


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
    inv = _inverse_sqrt(s, survivors)
    # A row's weights are normalised by the sum over its c survivors alone,
    # and numpy sums c contiguous values in an order that depends on c, so
    # rows are summed in groups of equal c, each on its compacted (rows, c)
    # block: a masked sum over all N members would round differently.
    counts = survivors.sum(axis=1)
    order = np.argsort(counts, kind="stable")
    kept = inv[order][survivors[order]]
    totals = np.empty(len(s))
    first = start = 0
    for c, n_rows in zip(*np.unique(counts, return_counts=True)):
        stop = start + c * n_rows
        rows = order[first : first + n_rows]
        totals[rows] = kept[start:stop].reshape(n_rows, c).sum(axis=1)
        first += n_rows
        start = stop
    weights = MemberWeights(np.where(survivors, inv / totals[:, None], 0.0), survivors)
    return dw_predict(weights, query_predictions), weights
