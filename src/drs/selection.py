"""Combining the ensemble per query: DS, DW, DWS, and the static baselines.

DS picks the single member with the best (lowest) competence score. DW
keeps everyone but weights each member by the inverse square root of its
score. DWS first discards members whose score falls in the upper half of
the observed score interval, then applies the DW weighting to the
survivors. Mean and Median ignore competence entirely.
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


def _as_scores(scores) -> np.ndarray:
    return np.asarray(getattr(scores, "per_member", scores), dtype=float)


def ds_predict(scores, query_predictions) -> tuple[float, int]:
    """Select the member with the lowest score; return its query prediction.

    Ties go to the lowest member index.
    """
    s = _as_scores(scores)
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
    s = _as_scores(scores)
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


def dws_predict(scores, query_predictions, literal_threshold: bool = False):
    """Discard high-error members, then combine the survivors as in DW.

    The cut is at the midpoint of the observed score interval,
    tau = s_min + (s_max - s_min)/2; members with score above tau are
    discarded and the DW weights are recomputed over the rest, so the
    best-scoring member always survives and the survivor set is never
    empty. Returns (prediction, MemberWeights).

    ``literal_threshold`` switches to the alternative cut
    tau = (s_max - s_min)/2 for comparison runs; that rule can exclude
    every member, in which case the lowest-scoring member is kept so a
    prediction is always produced.
    """
    s = _as_scores(scores)
    preds = np.asarray(query_predictions, dtype=float)
    s_min = s.min()
    s_max = s.max()
    if literal_threshold:
        tau = (s_max - s_min) / 2.0
    else:
        tau = s_min + (s_max - s_min) / 2.0
    survivors = s <= tau
    if not survivors.any():
        survivors[np.argmin(s)] = True
    inner = dw_weights(s[survivors])
    alpha = np.zeros(len(s))
    alpha[survivors] = inner.alpha
    weights = MemberWeights(alpha, survivors)
    return float(alpha @ preds), weights


def static_mean(query_predictions) -> float:
    """Arithmetic mean of all member predictions."""
    return float(np.mean(np.asarray(query_predictions, dtype=float)))


def static_median(query_predictions) -> float:
    """Middle order statistic; even counts average the two middle values."""
    return float(np.median(np.asarray(query_predictions, dtype=float)))
