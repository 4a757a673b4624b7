"""The region of competence: a query's K nearest training neighbors.

Neighbor search is exact brute force with Euclidean distance; the training
folds this library targets are small enough that an index would buy nothing
and exactness keeps the competence scores auditable. Each neighbor also
carries a normalized inverse-distance weight: nearer neighbors count more,
and the weights sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_DISTANCE_TOL = 1e-12


@dataclass(frozen=True)
class RegionOfCompetence:
    """The K nearest training patterns to one query, with per-member predictions.

    neighbor_indices   : K training-set row indices, ascending distance
    distances          : K Euclidean distances, sorted ascending
    d_weights          : K normalized inverse-distance weights (sum to 1)
    observed           : K observed target values of the neighbors
    member_predictions : (N, K) matrix; row n holds member n's predictions
                         on the K neighbors
    """

    neighbor_indices: np.ndarray
    distances: np.ndarray
    d_weights: np.ndarray
    observed: np.ndarray
    member_predictions: np.ndarray

    @property
    def k(self) -> int:
        return len(self.neighbor_indices)

    @property
    def n_members(self) -> int:
        return self.member_predictions.shape[0]


def find_neighbors(x, reference_features, k: int):
    """Indices and distances of the k reference rows nearest to x.

    Distances are Euclidean, returned ascending; ties break toward the
    lower row index.
    """
    ref = np.asarray(reference_features, dtype=float)
    x = np.asarray(x, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > ref.shape[0]:
        raise ValueError(f"k ({k}) exceeds reference size ({ref.shape[0]})")
    if x.shape[-1] != ref.shape[1]:
        raise ValueError(f"query has {x.shape[-1]} features, reference has {ref.shape[1]}")
    dist = np.sqrt(((ref - x) ** 2).sum(axis=1))
    nearest = np.argsort(dist, kind="stable")[:k]
    return nearest, dist[nearest]


def inverse_distance_weights(distances) -> np.ndarray:
    """Normalized inverse-distance weights: d_k = (1/dist_k) / sum_j (1/dist_j).

    The formula is singular at zero distance, so its pointwise limit is
    used there: if any distance is below 1e-12, the z zero-distance entries
    each get weight 1/z and all others get 0. The output always sums to 1
    and is invariant under positive rescaling of the distances while every
    distance stays at or above 1e-12.
    """
    dist = np.asarray(distances, dtype=float)
    if dist.ndim != 1 or dist.size == 0:
        raise ValueError("distances must be a non-empty 1-D array")
    if np.any(dist < 0):
        raise ValueError("distances must be nonnegative")
    zero = dist < ZERO_DISTANCE_TOL
    if zero.any():
        return zero / zero.sum()
    inv = 1.0 / dist
    return inv / inv.sum()


def build_region(
    x,
    reference_features,
    reference_targets,
    ensemble,
    k: int,
    reference_predictions: np.ndarray | None = None,
) -> RegionOfCompetence:
    """Assemble the region of competence for one query pattern.

    Composes the neighbor search, the inverse-distance weights, the
    neighbors' observed targets, and every ensemble member's prediction on
    every neighbor. When ``reference_predictions`` (the (N, n_reference)
    matrix of member predictions on the whole reference set) is supplied,
    member predictions are taken from its columns instead of re-running the
    members; the result is identical because members are deterministic.
    """
    ref_X = np.asarray(reference_features, dtype=float)
    ref_y = np.asarray(reference_targets, dtype=float)
    indices, distances = find_neighbors(x, ref_X, k)
    weights = inverse_distance_weights(distances)
    if reference_predictions is not None:
        member_preds = np.asarray(reference_predictions, dtype=float)[:, indices]
    else:
        member_preds = ensemble.predict_all(ref_X[indices])
    return RegionOfCompetence(indices, distances, weights, ref_y[indices], member_preds)
