"""The region of competence: a query's K nearest training neighbors.

Neighbor search is exact brute force with Euclidean distance; the training
folds this library targets are small enough that an index would buy nothing
and exactness keeps the competence scores auditable. Each neighbor also
carries a normalized inverse-distance weight: nearer neighbors count more,
and the weights sum to one.

Every function here takes one query or a block of B queries: a leading
batch axis on the input gives a leading batch axis on every output, and
each row of a block comes out bit for bit as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_DISTANCE_TOL = 1e-12


@dataclass(frozen=True)
class RegionOfCompetence:
    """The K nearest training patterns to a query, with per-member predictions.

    neighbor_indices   : K training-set row indices, ascending distance
    distances          : K Euclidean distances, sorted ascending
    d_weights          : K normalized inverse-distance weights (sum to 1)
    observed           : K observed target values of the neighbors
    member_predictions : (N, K) matrix; row n holds member n's predictions
                         on the K neighbors

    A region of a block of B queries has a leading batch axis on every
    field: (B, K) for the first four and (B, N, K) for member_predictions.
    """

    neighbor_indices: np.ndarray
    distances: np.ndarray
    d_weights: np.ndarray
    observed: np.ndarray
    member_predictions: np.ndarray

    @property
    def k(self) -> int:
        return self.neighbor_indices.shape[-1]

    @property
    def n_members(self) -> int:
        return self.member_predictions.shape[-2]


def find_neighbors(x, reference_features, k: int):
    """Indices and distances of the k reference rows nearest to x.

    ``x`` is one query (d,) or a block of queries (B, d); the results are
    (k,) or (B, k). Distances are Euclidean, returned ascending; ties break
    toward the lower row index, as a stable argsort of each row's distances.
    """
    ref = np.asarray(reference_features, dtype=float)
    x = np.asarray(x, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > ref.shape[0]:
        raise ValueError(f"k ({k}) exceeds reference size ({ref.shape[0]})")
    if x.shape[-1] != ref.shape[1]:
        raise ValueError(f"query has {x.shape[-1]} features, reference has {ref.shape[1]}")
    if x.ndim == 1:
        nearest, dist = find_neighbors(x[None], ref, k)
        return nearest[0], dist[0]
    diff = ref - x[:, None, :]
    diff **= 2
    dist = np.sqrt(diff.sum(axis=-1))
    # The stable argsort's first k are every distance below the k-th smallest
    # and then the lowest-index rows at it; a stable sort of those k in row
    # order gives its answer without sorting the whole row.
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    below = dist < kth
    tied = dist == kth
    room = k - below.sum(axis=1, keepdims=True)
    rows = np.nonzero(below | (tied & (np.cumsum(tied, axis=1) <= room)))[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(dist, rows, axis=1), axis=1, kind="stable")
    nearest = np.take_along_axis(rows, order, axis=1)
    return nearest, np.take_along_axis(dist, nearest, axis=1)


def inverse_distance_weights(distances) -> np.ndarray:
    """Normalized inverse-distance weights: d_k = (1/dist_k) / sum_j (1/dist_j).

    The formula is singular at zero distance, so its pointwise limit is
    used there: if any distance is below 1e-12, the z zero-distance entries
    each get weight 1/z and all others get 0. The output always sums to 1
    and is invariant under positive rescaling of the distances while every
    distance stays at or above 1e-12. ``distances`` is one region's (k,)
    vector or a (B, k) block, weighted row by row.
    """
    dist = np.asarray(distances, dtype=float)
    if dist.ndim not in (1, 2) or dist.shape[-1] == 0:
        raise ValueError("distances must be a non-empty 1-D array or a (B, k) block")
    if np.any(dist < 0):
        raise ValueError("distances must be nonnegative")
    zero = dist < ZERO_DISTANCE_TOL
    exact = zero.any(axis=-1, keepdims=True)
    if exact.any():
        # Zero distances become 1 and the rest infinite, so 1/dist is 1 or 0.
        dist = np.where(exact, np.where(zero, 1.0, np.inf), dist)
    inv = 1.0 / dist
    return inv / inv.sum(axis=-1, keepdims=True)


def build_region(
    x,
    reference_features,
    reference_targets,
    ensemble,
    k: int,
    reference_predictions: np.ndarray | None = None,
) -> RegionOfCompetence:
    """Assemble the region of competence for one query (d,) or a block (B, d).

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
        member_preds = ensemble.predict_all(ref_X[indices.ravel()])
        member_preds = member_preds.reshape(len(member_preds), *indices.shape)
    # A view, not a copy: each query's (N, K) slice keeps the memory order of
    # a one-query gather, and with it the rounding of the measures' sums.
    member_preds = np.moveaxis(member_preds, 0, -2)
    return RegionOfCompetence(indices, distances, weights, ref_y[indices], member_preds)
