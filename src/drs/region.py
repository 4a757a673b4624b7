"""The region of competence: a query's K nearest training neighbors.

Neighbor search is exact, with Euclidean distance; the training folds this
library targets are small enough that an index would buy nothing, and
exactness keeps the competence scores auditable. It runs in two steps. A
filter ranks the reference rows by h = |r|^2 / 2 - x.r, half the squared
distance less |x|^2 / 2, which is the same for all of a query's rows. Each
query's threshold is the k-th smallest of the minima of 8k groups of
reference rows (or of the rows themselves, when there are fewer), which is
never below its k-th smallest h, and the filter keeps as candidates the
reference rows within a rigorous rounding bound of it (Higham, Accuracy
and Stability of Numerical Algorithms, 2002, section 3.1). The x.r come
from matrix products over chunks of the block's rows, each of at most 2^18
multiply-adds: products that small run on the calling thread, where a
larger one wakes a BLAS helper thread that then spins between blocks. The
bound holds for any summation order, so the chunks change no candidate. A
NaN or inf in a query row, or in any reference row, makes the row's bound
non-finite, and such a row keeps every reference row. The exact distances
are then computed on the block's (row, candidate) pairs alone, and a
stable sort of each row's candidates by distance puts its k nearest first,
so indices and distances match a search over every reference row bit for
bit.
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

# Largest multiply-add count of one product in the neighbour filter,
# (query rows) x (reference rows) x (features).
_PRODUCT_CELLS = 1 << 18
# A value below 2^-537, the square root of the smallest positive double
# (2^-1074), counts as zero in inverse weighting. So the square root of a
# score is zero exactly when the score is 0, and a neighbour distance, the
# square root of a sum of squares, exactly when that sum is 0: the rule has
# no unit. It is not a bare == 0 because below 2^-537 the inverse can
# overflow, or push a row's sum of inverses past float64's range.
_ZERO_BELOW = np.sqrt(np.finfo(float).smallest_subnormal)


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
    step is that sort over each row's candidates alone: the filter's
    candidates, in reference-row order, laid out one row per query and
    padded with NaN, which sorts after every distance, then sorted stably
    along each row, and the first k taken. A finite rounding bound implies
    a finite h everywhere (see the comment in the body), so only a
    row with a non-finite bound keeps every reference row. Raises
    DatasetError when a returned distance is not finite: naming the first
    query row, or else returned reference row, that holds a NaN, or else
    the overflow of float64.
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
    groups = min(len(ref), 8 * k)
    # Rounding bound. Each squared distance, and each |x|^2 + |r|^2 + 2|x.r|,
    # is at most scale / 2, so |h| is at most scale / 4. Summed in any order,
    # with or without FMA, h is off by at most about (d + 1) u scale / 4, and
    # half the exact expression with its sqrt by about (d + 4) u scale / 4
    # (Higham 2002, section 3.1; u is the unit roundoff, and the smallest
    # normal number covers underflow). slack is about four times their sum,
    # and twice their sum is enough for every row whose exact distance is at
    # most the k-th, ties after the sqrt included, to have its h within
    # slack of the k-th smallest h. The threshold is the k-th smallest of
    # the minima of ``groups`` column groups, column j in group j mod
    # groups. The minima are the values of distinct columns, so it is never
    # below the k-th smallest h, and the candidates hold every such row. A
    # row whose bound is not finite (overflow, inf or nan) keeps every
    # reference row, so overflow here is expected; the exact step below
    # reports it only where it reaches a returned distance.
    with np.errstate(over="ignore", invalid="ignore"):
        ref_sq = np.einsum("ij,ij->i", ref, ref)
        x_sq = np.einsum("ij,ij->i", x, x)
        half_ref_sq, neg_ref = ref_sq / 2.0, -ref
        h = np.empty((len(x), len(ref)))
        for start in range(0, len(x), step):
            chunk = h[start : start + step]
            np.matmul(x[start : start + step], neg_ref.T, out=chunk)
            chunk += half_ref_sq
        # The group minima from strided views of h: whole rounds of groups,
        # then the columns left over, which fall in the first groups.
        rounds, extra = divmod(len(ref), groups)
        minima = h[:, : rounds * groups].reshape(len(x), rounds, groups).min(axis=1)
        np.minimum(minima[:, :extra], h[:, rounds * groups :], out=minima[:, :extra])
        scale = 4.0 * (x_sq + ref_sq.max())
        slack = (2 * d + 8) * (np.finfo(float).eps / 2 * scale + np.finfo(float).tiny)
        limit = np.partition(minima, k - 1, axis=1)[:, k - 1] + slack
    # A row whose limit is finite has a finite h everywhere: by
    # Cauchy-Schwarz, |x.r| <= (|x|^2 + |r|^2) / 2, so each is at most about
    # scale / 8, and scale is finite. A NaN or inf in the row, or in any
    # reference row, makes scale, and so slack and limit, non-finite.
    candidate = h <= limit[:, None]
    candidate[~np.isfinite(limit)] = True

    # The pairs come row by row, candidates in reference-row order. (np.nonzero
    # gives the same pairs, several times slower on a 2-D mask.)
    rows, cand = np.divmod(np.flatnonzero(candidate), len(ref))
    with np.errstate(over="ignore", invalid="ignore"):
        diff = ref[cand] - x[rows]
        diff **= 2
        dist = np.sqrt(diff.sum(axis=-1))
    # Each row's distances, in candidate order, padded with NaN to the
    # block's largest candidate count. A stable sort of each table row is
    # the tie rule itself, and NaN sorts last, so the padding follows every
    # real candidate (a NaN distance included). Every row has at least k
    # candidates, so no pick is padding.
    counts = candidate.sum(axis=1)
    run_starts = np.cumsum(counts) - counts
    table = np.full((len(x), max(k, int(counts.max(initial=0)))), np.nan)
    table[rows, np.arange(rows.size) - run_starts[rows]] = dist
    picked = np.argsort(table, axis=1, kind="stable")[:, :k]
    picked += run_starts[:, None]
    nearest, distances = cand[picked], dist[picked]
    if not np.isfinite(distances).all():
        # A NaN feature, not an overflow, when a query row or a returned
        # reference row holds one (Python's max would drop the NaN below).
        nan_query = np.flatnonzero(np.isnan(x).any(axis=1))
        nan_reference = nearest[np.isnan(ref).any(axis=1)[nearest]]
        for side, rows in (("query", nan_query), ("reference", nan_reference)):
            if rows.size:
                raise DatasetError(
                    f"{side} row {rows[0]} has a NaN feature, so its neighbour "
                    "distances are NaN"
                )
        largest = max(float(np.abs(ref).max()), float(np.abs(x).max()))
        raise DatasetError(
            f"features reach |x| = {largest:.6g}; the neighbour distances overflow "
            "float64 (--normalize global scales the training features, but a query "
            "far outside their range overflows even after normalisation)"
        )
    return nearest, distances


def normalized_inverse(values, kept=True) -> np.ndarray:
    """1/value over a (B, n) block of nonnegative values, normalised over each
    row's ``kept`` entries (a mask; True keeps all); every other entry gets 0.

    At zero the formula is singular, so its limit is used: in a row where z
    kept entries are zero (below 2^-537), each gets 1/z, all else 0.
    """
    zero = (values < _ZERO_BELOW) & kept
    exact = zero.any(axis=1, keepdims=True)
    if exact.any():
        # Zero entries become 1 and the rest infinite, so 1/value is 1 or 0.
        values = np.where(exact, np.where(zero, 1.0, np.inf), values)
    inv = np.where(kept, 1.0 / values, 0.0)
    return inv / inv.sum(axis=1, keepdims=True)


def inverse_distance_weights(distances) -> np.ndarray:
    """Normalized inverse-distance weights: d_k = (1/dist_k) / sum_j (1/dist_j).

    At zero distances :func:`normalized_inverse` takes the formula's limit.
    The output always sums to 1 and is invariant under positive rescaling
    of the distances within float64's range. ``distances`` is a (B, k)
    block, weighted row by row.
    """
    dist = np.asarray(distances, dtype=float)
    if dist.ndim != 2 or dist.shape[-1] == 0:
        raise ValueError("distances must be a (B, k) block with k >= 1")
    if np.any(dist < 0):
        raise ValueError("distances must be nonnegative")
    return normalized_inverse(dist)


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
