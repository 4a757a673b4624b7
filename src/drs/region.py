"""The region of competence: a query's K nearest training neighbors.

Neighbor search is exact, with Euclidean distance; the training folds this
library targets are small enough that an index would buy nothing, and
exactness keeps the competence scores auditable. It runs in two steps. A
filter computes approximate squared distances, |x|^2 + |r|^2 - 2 x.r, and
keeps as candidates the reference rows within a rigorous rounding bound of
each query's k-th approximate value (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, section 3.1). The x.r come from matrix products
over chunks of the block's rows, each of at most 2^18 multiply-adds:
products that small run on the calling thread, where a larger one wakes a
BLAS helper thread that then spins between blocks. The bound holds for any
summation order, so the chunks change no candidate. The exact distances are
then computed on the block's (row, candidate) pairs alone, and one stable
sort of the pairs by (row, distance) puts each row's k nearest first, so
indices and distances match a search over every reference row bit for bit.
Each neighbor also carries a normalized inverse-distance weight: nearer
neighbors count more, and the weights sum to one.

Every function here takes a block of B queries, (B, d), and answers with
one row per query; each row comes out bit for bit as it would in a block
of its own. A single query is the block ``x[None]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import DatasetError

ZERO_DISTANCE_TOL = 1e-12
# Largest multiply-add count of one product in the neighbour filter,
# (query rows) x (reference rows) x (features).
_PRODUCT_CELLS = 1 << 18


@dataclass(frozen=True)
class RegionOfCompetence:
    """The K nearest training patterns to each of B queries, with per-member predictions.

    neighbor_indices   : (B, K) training-set row indices, ascending distance
    distances          : (B, K) Euclidean distances, sorted ascending
    d_weights          : (B, K) normalized inverse-distance weights (rows sum to 1)
    observed           : (B, K) observed target values of the neighbors
    member_predictions : (B, N, K); [b, n] holds member n's predictions on
                         query b's K neighbors
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
    """Indices and distances of the k reference rows nearest to each row of x.

    ``x`` is a block of queries (B, d); the results are (B, k). Distances
    are Euclidean, ``sqrt(((r - x) ** 2).sum())`` for each reference row r,
    returned ascending; ties break toward the lower row index, as a stable
    argsort of each row's distances over every reference row. The exact
    step is that sort, run once over the block: the filter's (row,
    candidate) pairs, in reference-row order, sorted stably by (row,
    distance), and the first k of each row's run. Raises DatasetError when
    a returned distance overflows float64.
    """
    ref = np.asarray(reference_features, dtype=float)
    x = np.asarray(x, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > ref.shape[0]:
        raise ValueError(f"k ({k}) exceeds reference size ({ref.shape[0]})")
    if x.ndim != 2 or x.shape[1] != ref.shape[1]:
        raise ValueError(f"queries must be a (B, {ref.shape[1]}) block of features, got {x.shape}")
    d = ref.shape[1]
    step = max(1, _PRODUCT_CELLS // max(1, ref.size))  # query rows per product
    # Rounding bound. Each squared distance, and each |x|^2 + |r|^2 + 2|x.r|,
    # is at most scale / 2. Summed in any order, with or without FMA, the
    # approximation is off by at most about (d + 3) u scale / 2, and the
    # exact expression with its sqrt by about (d + 4) u scale / 2 (Higham
    # 2002, section 3.1; u is the unit roundoff, and the smallest normal
    # number covers underflow). 2 * slack is about twice their sum, so every
    # row whose exact distance is at most the k-th, ties after the sqrt
    # included, has its approximation within 2 * slack of the k-th
    # approximation. A row whose bound is not finite (overflow, inf or nan)
    # keeps every reference row, so overflow here is expected; the exact step
    # below reports it only where it reaches a returned distance.
    with np.errstate(over="ignore", invalid="ignore"):
        ref_sq = np.einsum("ij,ij->i", ref, ref)
        x_sq = np.einsum("ij,ij->i", x, x)
        approx = np.empty((len(x), len(ref)))
        for start in range(0, len(x), step):
            np.matmul(x[start : start + step], ref.T, out=approx[start : start + step])
        approx *= -2.0
        approx += ref_sq
        approx += x_sq[:, None]
        scale = 4.0 * (x_sq + ref_sq.max())
        slack = (2 * d + 8) * (np.finfo(float).eps / 2 * scale + np.finfo(float).tiny)
        limit = np.partition(approx, k - 1, axis=1)[:, k - 1] + 2.0 * slack
    candidate = approx <= limit[:, None]
    candidate[~np.isfinite(limit) | ~np.isfinite(approx).all(axis=1)] = True

    # The pairs come row by row, candidates in reference-row order, so one
    # stable sort by (row, distance) is the tie rule itself. (np.nonzero
    # gives the same pairs, several times slower on a 2-D mask.)
    rows, cand = np.divmod(np.flatnonzero(candidate), len(ref))
    with np.errstate(over="ignore", invalid="ignore"):
        diff = ref[cand] - x[rows]
        diff **= 2
        dist = np.sqrt(diff.sum(axis=-1))
    run_starts = np.searchsorted(rows, np.arange(len(x)))
    picked = np.lexsort((dist, rows))[run_starts[:, None] + np.arange(k)]
    nearest, distances = cand[picked], dist[picked]
    if not np.isfinite(distances).all():
        largest = max(float(np.abs(ref).max()), float(np.abs(x).max()))
        raise DatasetError(
            f"features reach |x| = {largest:.6g}; the neighbour distances overflow "
            "float64 (--normalize global scales the training features, but a query "
            "far outside their range overflows even after normalisation)"
        )
    return nearest, distances


def normalized_inverse(values, zero, kept=True) -> np.ndarray:
    """1/value over a (B, n) block of nonnegative values, normalised over each
    row's ``kept`` entries (a mask; True keeps all); every other entry gets 0.

    At zero the formula is singular, so its limit is used: in a row where z
    kept entries are flagged in the ``zero`` mask, each gets 1/z, all else 0.
    """
    zero = zero & kept
    exact = zero.any(axis=1, keepdims=True)
    if exact.any():
        # Flagged entries become 1 and the rest infinite, so 1/value is 1 or 0.
        values = np.where(exact, np.where(zero, 1.0, np.inf), values)
    inv = np.where(kept, 1.0 / values, 0.0)
    return inv / inv.sum(axis=1, keepdims=True)


def inverse_distance_weights(distances) -> np.ndarray:
    """Normalized inverse-distance weights: d_k = (1/dist_k) / sum_j (1/dist_j).

    Distances below 1e-12 count as zero, where :func:`normalized_inverse`
    takes the formula's limit. The output always sums to 1 and is invariant
    under positive rescaling of the distances while every distance stays at
    or above 1e-12. ``distances`` is a (B, k) block, weighted row by row.
    """
    dist = np.asarray(distances, dtype=float)
    if dist.ndim != 2 or dist.shape[-1] == 0:
        raise ValueError("distances must be a (B, k) block with k >= 1")
    if np.any(dist < 0):
        raise ValueError("distances must be nonnegative")
    return normalized_inverse(dist, dist < ZERO_DISTANCE_TOL)


def build_region(
    x, reference_features, reference_targets, reference_predictions, k: int
) -> RegionOfCompetence:
    """Assemble the region of competence for a block of queries (B, d).

    Composes the neighbor search, the inverse-distance weights, the
    neighbors' observed targets, and every ensemble member's prediction on
    every neighbor, gathered from ``reference_predictions``: the
    (N, n_reference) matrix of member predictions on the whole reference
    set, ``ensemble.predict_all(reference_features)``.
    """
    ref_y = np.asarray(reference_targets, dtype=float)
    indices, distances = find_neighbors(x, reference_features, k)
    weights = inverse_distance_weights(distances)
    member_preds = np.moveaxis(np.asarray(reference_predictions, dtype=float)[:, indices], 0, -2)
    return RegionOfCompetence(indices, distances, weights, ref_y[indices], member_preds)
