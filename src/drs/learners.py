"""Fitting the homogeneous ensemble: CART regression trees over bagged resamples.

The tree builder is an exact greedy least-squares CART: at every node it
scans all (feature, threshold) pairs, where candidate thresholds are the
midpoints between consecutive distinct sorted feature values, and takes the
split with the largest reduction in within-node sum of squared deviations.
Leaves predict the mean target of the instances routed to them. The builder
is fully deterministic: equal-gain splits are broken by lowest feature
index, then lowest threshold.

Trees grow level by level, all members of an ensemble together (as in
SLIQ, Mehta et al. 1996, and XGBoost's depth-wise builder, Chen & Guestrin
2016). One array holds the bag rows of every active node, each node's rows
in bag order. At each depth, the purity check and the leaf mean run once
per group of equal-size nodes, and the split search runs on batches of
nodes of mixed sizes, each padded to the largest node of its batch, under a
fixed cell cap. One stable partition of the split nodes' rows per depth
makes the children, each in its parent's row order. Each tree numbers its
nodes breadth first from the root, left child before right. The nodes,
splits, thresholds and leaf values are a node-at-a-time builder's bit for
bit:

- ``var`` and ``mean`` run on groups of one exact size, so their row-wise
  pairwise sums are those of 1-D calls;
- ``cumsum`` adds sequentially, along any axis;
- a node's rows are sorted per feature by (value rank, bag position), the
  order a stable sort of its bag-ordered rows gives, so tied values keep
  their order and every prefix sum is the same;
- a padding row's sort key lies above every real key and its target is 0,
  so it sorts after the node's real rows and leaves their prefix sums as
  they are; each node's totals are read at its own last real row;
- the SSE is computed only at cut positions that leave ``min_leaf_size``
  rows on both sides of the batch's largest node, with each node's own
  right-hand count, and every cut that leaves fewer in a node is set to
  ``inf``, as ties are, and never chosen;
- midpoints grow with the cut position, so the lowest threshold among
  equal-SSE cuts is the first such cut's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import DatasetError
from .rng import derive_seed, make_rng

_PURITY_TOL = 1e-12
# Largest (feature, row) cell count of one split-search batch, padding rows
# included: nodes x largest node size x features. It bounds the split
# search's working arrays only; it changes no tree and no node id.
_BATCH_CELLS = 1 << 14


@dataclass(frozen=True)
class TreeParams:
    """Stopping rules for the tree builder.

    min_parent_size : smallest node that is still considered for a split
    min_leaf_size   : smallest child either side of a split may have
    max_depth       : None for unlimited
    """

    min_parent_size: int = 10
    min_leaf_size: int = 1
    max_depth: int | None = None

    def __post_init__(self):
        if self.min_leaf_size < 1:
            raise ValueError("min_leaf_size must be >= 1")
        if self.min_parent_size < 2 * self.min_leaf_size:
            raise ValueError("min_parent_size must be >= 2 * min_leaf_size")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")


class RegressionTree:
    """A fitted binary regression tree (immutable).

    Nodes live in flat arrays indexed by node id; node 0 is the root.
    Internal nodes store (split_feature, split_threshold, left, right);
    leaves store a constant value and have split_feature == -1. Routing a
    sample: x[feature] <= threshold goes left.
    """

    def __init__(self, feature, threshold, left, right, value, n_features):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)
        self.n_features = int(n_features)
        for arr in (self.feature, self.threshold, self.left, self.right, self.value):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    def predict(self, X):
        """Predict a batch of samples (n, d); returns the (n,) predictions."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected (n, {self.n_features}) features, got shape {X.shape}"
            )
        idx = np.zeros(X.shape[0], dtype=np.int64)
        active = np.flatnonzero(self.feature[idx] >= 0)
        while active.size:
            cur = idx[active]
            go_left = X[active, self.feature[cur]] <= self.threshold[cur]
            idx[active] = np.where(go_left, self.left[cur], self.right[cur])
            active = active[self.feature[idx[active]] >= 0]
        return self.value[idx]

    def to_text(self) -> str:
        """Line-oriented audit dump: one node per line, in preorder from the root.

        ``node feature threshold`` for an internal node, followed by its left
        and then its right subtree; ``leaf value`` for a leaf. The dump fixes
        the tree's shape and every value but shows no node ids, so it does
        not depend on how the nodes are numbered. Not a stability-guaranteed
        format.
        """
        lines = []
        stack = [0]
        while stack:
            i = stack.pop()
            if self.feature[i] < 0:
                lines.append(f"leaf {float(self.value[i])!r}")
            else:
                lines.append(f"node {int(self.feature[i])} {float(self.threshold[i])!r}")
                stack += [self.right[i], self.left[i]]
        return "\n".join(lines)


def _check_training_set(X, y):
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, d) and targets (n,) with matching n")
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on an empty training set")
    # Every sum in the split arithmetic (prefix sums of y and y*y, their
    # squares, the variance) stays below (n * max|y|)**2.
    largest = float(np.max(np.abs(y)))
    bound = X.shape[0] * largest
    if not math.isfinite(bound * bound):
        raise DatasetError(
            f"targets reach |y| = {largest:.6g}; with {X.shape[0]} training rows "
            "the split sums overflow float64, try --normalize global"
        )


def _sort_keys(X):
    """Integer sort keys for the columns of X, and the values they stand for.

    ``keys[f, i]`` is the rank of ``X[i, f]`` among the u distinct values of
    column f, shifted left by ``shift`` bits. A node's row position (below
    ``2**shift``) fills the low bits, so sorting a node's keys orders its
    rows by value and equal values by position, as a stable sort would.
    ``keys[:, n]`` is the padding key ``u << shift``: a padding row's key,
    with its position in the low bits, sorts after every real row.
    ``distinct[f, r]`` is the r-th smallest distinct value of column f.
    """
    n, d = X.shape
    shift = max(1, (n - 1).bit_length())
    ranks = np.empty((d, n + 1), dtype=np.int64)
    columns = []
    for f in range(d):
        values, ranks[f, :n] = np.unique(X[:, f], return_inverse=True)
        columns.append(values)
    u = max(len(v) for v in columns)
    ranks[:, n] = u
    distinct = np.array([np.pad(v, (0, u - len(v)), mode="edge") for v in columns])
    dtype = np.int32 if ((u + 1) << shift) < 2**31 else np.int64
    return (ranks << shift).astype(dtype), distinct, shift


def _best_splits(keys, yb, sizes, distinct, shift, min_leaf):
    """Best (feature, threshold) of each node in a batch of padded nodes.

    ``keys`` is (d, c, m): the sort keys of the rows of node c under feature
    f, their positions in the low ``shift`` bits (see :func:`_sort_keys`).
    Node c holds ``sizes[c]`` real rows, at least 2, and padding rows up to
    m, with m >= 2 * min_leaf; a padding row has the padding key and a
    target of 0. ``yb`` is (c, m), the targets in position order. Returns
    (found, feature, threshold) arrays of length c; ``found`` is False where
    no split reduces the SSE.
    """
    c, m = yb.shape
    keys = np.sort(keys, axis=2)
    ranks = keys >> shift
    ys = yb.ravel()[(keys & ((1 << shift) - 1)) + np.arange(0, c * m, m)[:, None]]
    del keys
    csum = np.cumsum(ys, axis=2)
    csq = np.cumsum(ys * ys, axis=2)
    del ys
    nodes = np.arange(c)
    total_sum = csum[0, nodes, sizes - 1]
    total_sq = csq[0, nodes, sizes - 1]

    # Only cut positions that leave min_leaf rows on both sides of the
    # largest node; a smaller node's cuts past sizes - min_leaf are masked
    # with the ties below, so none is ever chosen.
    lo, hi = min_leaf - 1, m - min_leaf
    n_left = np.arange(lo + 1, hi + 1, dtype=float)
    n_right = sizes[:, None] - n_left
    short = n_right < min_leaf
    n_right[short] = min_leaf  # any positive count: keeps masked cuts finite
    sum_left = csum[:, :, lo:hi]
    sq_left = csq[:, :, lo:hi]
    ts = total_sum[:, None]
    children_sse = (
        sq_left
        - sum_left * sum_left / n_left
        + (total_sq[:, None] - sq_left)
        - (ts - sum_left) ** 2 / n_right
    )
    del csum, csq, sum_left, sq_left
    children_sse[(ranks[:, :, lo:hi] == ranks[:, :, lo + 1 : hi + 1]) | short] = np.inf

    col_best = children_sse.min(axis=2)
    best = col_best.min(axis=0)
    parent_sse = total_sq - total_sum * total_sum / sizes
    found = np.isfinite(best) & ~(parent_sse - best <= 0.0)
    feat = np.argmax(col_best == best, axis=0)
    # Midpoints grow with the cut position, so the lowest threshold among
    # equal-SSE cuts is the first one. A node with no valid cut reads its
    # (unused) threshold at the first cut, clamped to its real rows.
    cut = lo + np.argmax(children_sse[feat, nodes] == best[:, None], axis=1)
    cut = np.minimum(cut, sizes - 2)
    below = distinct[feat, ranks[feat, nodes, cut]]
    above = distinct[feat, ranks[feat, nodes, cut + 1]]
    return found, feat, (below + above) / 2.0


def _search_runs(sizes, d):
    """Cut nodes in ascending ``sizes`` order into consecutive runs whose
    padded cells (nodes x largest size x d) stay within ``_BATCH_CELLS``;
    one node too large for the cap is a run of its own. Yields slices."""
    start = 0
    while start < sizes.size:
        cells = np.arange(1, sizes.size - start + 1) * sizes[start:] * d
        stop = start + max(1, int(np.searchsorted(cells, _BATCH_CELLS, side="right")))
        yield slice(start, stop)
        start = stop


def _grow_trees(X, y, bags, params: TreeParams) -> list[RegressionTree]:
    """Fit one tree per row of ``bags`` (row indices into X and y), level by level."""
    n_trees, n = bags.shape
    d = X.shape[1]
    keys, distinct, shift = _sort_keys(X)
    y_padded = np.append(y, 0.0)  # row n is the padding row

    # The active nodes of one depth: their rows, node after node, each in
    # bag order, and each node's tree and size.
    rows = bags.ravel()
    tree_of = np.arange(n_trees)
    sizes = np.full(n_trees, n)
    # Per depth: (tree_of, feature, threshold, value, left, right), children
    # numbered across all depths.
    nodes_by_depth = []
    n_grown = 0  # nodes of the depths above
    depth = 0
    while True:
        n_nodes = tree_of.size
        starts = np.cumsum(sizes) - sizes
        feature = np.full(n_nodes, -1)
        threshold = np.full(n_nodes, np.nan)
        mean = np.empty(n_nodes)
        left = np.full(n_nodes, -1)
        right = np.full(n_nodes, -1)
        splittable = params.max_depth is None or depth < params.max_depth

        # Purity and leaf means per exact-size group, where the row-wise
        # pairwise sums are those of 1-D calls.
        by_size = np.argsort(sizes, kind="stable")
        groups = np.split(by_size, np.flatnonzero(np.diff(sizes[by_size])) + 1)
        impure = [np.empty(0, dtype=np.int64)]
        for group in groups:
            m = int(sizes[group[0]])
            yb = y[rows[starts[group, None] + np.arange(m)]]
            mean[group] = yb.mean(axis=1)
            if splittable and m >= params.min_parent_size:
                impure.append(group[~(np.var(yb, axis=1) < _PURITY_TOL)])

        # Split search over the impure nodes in size order, padded per run.
        impure = np.concatenate(impure)
        for run in _search_runs(sizes[impure], d):
            nodes = impure[run]
            run_sizes = sizes[nodes]
            positions = np.arange(run_sizes[-1])
            real = positions < run_sizes[:, None]
            node_rows = np.full(real.shape, n)
            node_rows[real] = rows[(starts[nodes, None] + positions)[real]]
            found, feat, thr = _best_splits(
                keys[:, node_rows] | positions.astype(keys.dtype),
                y_padded[node_rows], run_sizes, distinct, shift, params.min_leaf_size,
            )
            feature[nodes[found]] = feat[found]
            threshold[nodes[found]] = thr[found]

        # Children: split node j's are 2j (left) and 2j + 1 (right) of the
        # next depth, numbered from n_grown + n_nodes. A stable sort of the
        # split nodes' rows by child gives each child its parent's row order.
        split = np.flatnonzero(feature >= 0)
        left[split] = n_grown + n_nodes + 2 * np.arange(split.size)
        right[split] = left[split] + 1
        value = np.where(feature < 0, mean, np.nan)
        nodes_by_depth.append((tree_of, feature, threshold, value, left, right))
        if not split.size:
            break
        rows = rows[np.repeat(feature >= 0, sizes)]
        sizes = sizes[split]
        key = np.repeat(2 * np.arange(split.size), sizes)
        key += X[rows, np.repeat(feature[split], sizes)] > np.repeat(threshold[split], sizes)
        rows = rows[np.argsort(key, kind="stable")]
        sizes = np.bincount(key, minlength=2 * split.size)
        tree_of = np.repeat(tree_of[split], 2)
        n_grown += n_nodes
        depth += 1

    # Each depth holds every tree's nodes in breadth-first order, left child
    # before right, so a stable sort by tree numbers each tree breadth first.
    # A child's id within its tree is its rank among the tree's nodes.
    tree_of, feature, threshold, value, left, right = map(np.concatenate, zip(*nodes_by_depth))
    del nodes_by_depth
    order = np.argsort(tree_of, kind="stable")
    sizes = np.bincount(tree_of, minlength=n_trees)
    base = np.cumsum(sizes) - sizes
    local = np.empty_like(order)
    local[order] = np.arange(order.size)
    local -= base[tree_of]
    split = feature >= 0
    left[split] = local[left[split]]
    right[split] = local[right[split]]
    columns = [np.split(a[order], base[1:]) for a in (feature, threshold, left, right, value)]
    return [RegressionTree(*tree, d) for tree in zip(*columns)]


def fit_individual(features, targets, params: TreeParams | None = None) -> RegressionTree:
    """The single-regressor baseline: one tree on the whole training set, no bagging.

    It is the builder's one-member case, with the identity as its bag.
    Raises DatasetError when the targets are too large for the split sums
    (see :func:`generate_ensemble`).
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    _check_training_set(X, y)
    bag = np.arange(X.shape[0])[None]
    return _grow_trees(X, y, bag, params or TreeParams())[0]


def bagging_sample(n: int, seed: int) -> np.ndarray:
    """Draw ``n`` indices uniformly with replacement from 0..n-1 (deterministic per seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return make_rng(seed).integers(0, n, size=n)


@dataclass(frozen=True)
class Ensemble:
    """An ordered collection of fitted regressors.

    Member ``i`` was trained on the bag
    ``bagging_sample(n, derive_seed(seed, i))`` (see :func:`generate_ensemble`).
    """

    members: tuple

    @property
    def n_members(self) -> int:
        return len(self.members)

    def predict_all(self, X) -> np.ndarray:
        """(n_members, n_samples) matrix of every member's predictions on X (n_samples, d)."""
        X = np.asarray(X, dtype=float)
        return np.vstack([m.predict(X) for m in self.members])


def generate_ensemble(
    features,
    targets,
    n_members: int,
    params: TreeParams | None = None,
    seed: int = 0,
) -> Ensemble:
    """Train ``n_members`` regressors on bagged resamples of the training set.

    Member ``i`` draws its bag with the derived seed ``derive_seed(seed, i)``,
    so members are independent, order-stable, and reproducible per
    (seed, i): a member equals :func:`fit_individual` on its bag's rows.
    Every bag has exactly the training-set size, drawn with replacement.
    All members are grown together, level by level.

    Raises DatasetError when ``(n * max|y|)**2`` is not finite, since the
    split sums would overflow float64 and every tree would collapse.
    """
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    _check_training_set(X, y)
    n = X.shape[0]
    bags = np.stack([bagging_sample(n, derive_seed(seed, i)) for i in range(n_members)])
    return Ensemble(tuple(_grow_trees(X, y, bags, params or TreeParams())))
