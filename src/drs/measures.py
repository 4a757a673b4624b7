"""The eight competence measures, m1 through m8.

Every measure maps (region of competence, ensemble member) to a nonnegative
score where LOWER means MORE competent. Seven are error functionals over
the region; m1 is the spread of the member's local predictions, oriented
the same way so all eight share one argmin interface.

With f(t_k) the observed target of neighbor k, fh_n(t_k) member n's
prediction on neighbor k, fh_n(x) its prediction at the query and d_k the
normalized inverse-distance weight of neighbor k, member n scores:

    m1  sample variance (divisor K-1) of fh_n(t_1..t_K); needs K >= 2
    m2  sum_k |f(t_k) - fh_n(t_k)| * d_k
    m3  sum_k (f(t_k) - fh_n(t_k))^2 * d_k
    m4  min_k (f(t_k) - fh_n(t_k))^2 * d_k
    m5  max_k (f(t_k) - fh_n(t_k))^2 * d_k
    m6  sum_k (f(t_k) - fh_n(x))^2 * d_k, the only measure that uses the
        query prediction and ignores the neighbor predictions
    m7  sum_k sqrt((f(t_k) - fh_n(t_k))^2 * d_k)
    m8  (f(t_1) - fh_n(t_1))^2 on the nearest neighbor only, unweighted

The region of a block of B queries scores to a (B, N) matrix, each row bit
for bit the score vector of that query's region in a block of its own.
"""

from __future__ import annotations

import numpy as np

from .region import RegionOfCompetence

MEASURE_IDS = ("m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8")


def score_all(
    measure_id: str,
    region: RegionOfCompetence,
    query_predictions=None,
) -> np.ndarray:
    """Evaluate one measure for every ensemble member of a region at once.

    Returns the (B, N) scores of the region of a block of B queries, one
    per query and member. ``query_predictions`` (each member's prediction
    at each query, (B, N)) is required by m6 and ignored by the others.
    Measure ids are case-insensitive.
    """
    mid = measure_id.lower()
    preds = region.member_predictions
    if preds.ndim != 3 or region.observed.ndim != 2 or region.d_weights.ndim != 2:
        raise ValueError(
            "region must be a block of B queries: (B, N, K) member predictions and "
            f"(B, K) targets and weights, got shapes {preds.shape}, "
            f"{region.observed.shape} and {region.d_weights.shape}; scores are (B, N)"
        )
    observed = region.observed[..., None, :]
    d = region.d_weights[..., None, :]
    # The weighted sums are matrix-vector products, (N, K) @ (K, 1) per
    # query, which round the same whether or not a batch axis leads.
    d_column = region.d_weights[..., None]
    if mid == "m1":
        if region.k < 2:
            raise ValueError("m1 needs at least 2 neighbors")
        scores = np.var(preds, axis=-1, ddof=1)
    elif mid == "m2":
        scores = (np.abs(observed - preds) @ d_column)[..., 0]
    elif mid == "m3":
        scores = (((observed - preds) ** 2) @ d_column)[..., 0]
    elif mid == "m4":
        scores = ((observed - preds) ** 2 * d).min(axis=-1)
    elif mid == "m5":
        scores = ((observed - preds) ** 2 * d).max(axis=-1)
    elif mid == "m6":
        if query_predictions is None:
            raise ValueError("m6 requires query_predictions")
        qp = np.asarray(query_predictions, dtype=float)
        if qp.shape != preds.shape[:-1]:
            raise ValueError(
                f"query_predictions must have one entry per member "
                f"({region.n_members}), got shape {qp.shape}"
            )
        scores = (((observed - qp[..., None]) ** 2) @ d_column)[..., 0]
    elif mid == "m7":
        scores = np.sqrt((observed - preds) ** 2 * d).sum(axis=-1)
    elif mid == "m8":
        scores = (region.observed[..., :1] - preds[..., 0]) ** 2
    else:
        raise ValueError(f"unknown measure id {measure_id!r}; expected one of {MEASURE_IDS}")
    return scores
