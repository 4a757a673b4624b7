"""Combining the ensemble per query: DS, DW and DWS.

DS picks the single member with the best (lowest) competence score. DW
keeps everyone but weights each member by the inverse square root of its
score. DWS first discards members whose score falls in the upper half of
the observed score interval, then applies the DW weighting to the
survivors. The static mean and median baselines ignore competence and
need no combiner of their own (see ``bench.predict_queries``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_SCORE_TOL = 1e-12


@dataclass(frozen=True)
class MemberWeights:
    """Combination weights: alpha sums to 1 over selected members, 0 elsewhere."""

    alpha: np.ndarray
    selected: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "selected", np.asarray(self.selected, dtype=bool))


def ds_predict(scores, query_predictions) -> tuple[float, int]:
    """Select the member with the lowest score; return its query prediction.

    Ties go to the lowest member index.
    """
    s = np.asarray(scores, dtype=float)
    preds = np.asarray(query_predictions, dtype=float)
    winner = int(np.argmin(s))
    return float(preds[winner]), winner


def dw_weights(scores) -> MemberWeights:
    """Weights inversely proportional to the square root of each score.

    alpha_i = (1/sqrt(s_i)) / sum_n (1/sqrt(s_n)). Scores below 1e-12 are
    treated as exactly competent: the weight splits uniformly over them and
    everyone else gets 0. All members stay selected. Weights are invariant
    to positive rescaling of the score vector while every score stays at or
    above 1e-12.
    """
    s = np.asarray(scores, dtype=float)
    if np.any(s < 0):
        raise ValueError("scores must be nonnegative")
    zero = s < ZERO_SCORE_TOL
    if zero.any():
        alpha = zero / zero.sum()
    else:
        inv = 1.0 / np.sqrt(s)
        alpha = inv / inv.sum()
    return MemberWeights(alpha, np.ones(len(s), dtype=bool))


def dw_predict(weights: MemberWeights, query_predictions) -> float:
    """Weighted mean of the member predictions at the query."""
    preds = np.asarray(query_predictions, dtype=float)
    return float(weights.alpha @ preds)


def dws_predict(scores, query_predictions):
    """Discard high-error members, then combine the survivors as in DW.

    The cut is at the midpoint of the observed score interval,
    tau = s_min + (s_max - s_min)/2; members with score above tau are
    discarded and the DW weights are recomputed over the rest, so the
    best-scoring member always survives and the survivor set is never
    empty. Returns (prediction, MemberWeights).
    """
    s = np.asarray(scores, dtype=float)
    preds = np.asarray(query_predictions, dtype=float)
    s_min = s.min()
    s_max = s.max()
    tau = s_min + (s_max - s_min) / 2.0
    survivors = s <= tau
    if not survivors.any():
        survivors[np.argmin(s)] = True
    inner = dw_weights(s[survivors])
    alpha = np.zeros(len(s))
    alpha[survivors] = inner.alpha
    weights = MemberWeights(alpha, survivors)
    return float(alpha @ preds), weights

