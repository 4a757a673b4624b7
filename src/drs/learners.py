"""Fitting the homogeneous ensemble: CART regression trees over bagged resamples.

The tree builder is an exact greedy least-squares CART: at every node it
scans all (feature, threshold) pairs, where candidate thresholds are the
midpoints between consecutive distinct sorted feature values, and takes the
split with the largest reduction in within-node sum of squared deviations.
Leaves predict the mean target of the instances routed to them. The builder
is fully deterministic: equal-gain splits are broken by lowest feature
index, then lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import derive_seed, make_rng

_PURITY_TOL = 1e-12


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

    def predict(self, x):
        """Predict one sample (1-D input, returns float) or a batch (2-D)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x[None, :] if single else x
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got shape {x.shape}"
            )
        idx = np.zeros(X.shape[0], dtype=np.int64)
        active = np.flatnonzero(self.feature[idx] >= 0)
        while active.size:
            cur = idx[active]
            go_left = X[active, self.feature[cur]] <= self.threshold[cur]
            idx[active] = np.where(go_left, self.left[cur], self.right[cur])
            active = active[self.feature[idx[active]] >= 0]
        out = self.value[idx]
        return float(out[0]) if single else out

    def to_text(self) -> str:
        """Line-oriented audit dump: one node per line.

        ``id node feature threshold left right`` for internal nodes,
        ``id leaf value`` for leaves. Not a stability-guaranteed format.
        """
        lines = []
        for i in range(self.n_nodes):
            if self.feature[i] < 0:
                lines.append(f"{i} leaf {float(self.value[i])!r}")
            else:
                lines.append(
                    f"{i} node {int(self.feature[i])} {float(self.threshold[i])!r} "
                    f"{self.left[i]} {self.right[i]}"
                )
        return "\n".join(lines)

def _best_split(X, y, min_leaf):
    """Best (feature, threshold) by SSE reduction, or None if no split helps.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature; children SSE is computed for every candidate at
    once from cumulative sums. Ties on gain resolve to the lowest feature
    index, then the lowest threshold.
    """
    m = X.shape[0]
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    total_sum = csum[-1, 0]
    total_sq = csq[-1, 0]

    n_left = np.arange(1, m, dtype=float)[:, None]
    n_right = m - n_left
    sum_left = csum[:-1]
    sq_left = csq[:-1]
    children_sse = (
        sq_left
        - sum_left * sum_left / n_left
        + (total_sq - sq_left)
        - (total_sum - sum_left) ** 2 / n_right
    )
    valid = (xs[:-1] < xs[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    children_sse = np.where(valid, children_sse, np.inf)

    best = children_sse.min()
    if not np.isfinite(best):
        return None
    parent_sse = total_sq - total_sum * total_sum / m
    if parent_sse - best <= 0.0:
        return None
    col_best = children_sse.min(axis=0)
    feat = int(np.flatnonzero(col_best == best)[0])
    rows = np.flatnonzero(children_sse[:, feat] == best)
    thresholds = (xs[rows, feat] + xs[rows + 1, feat]) / 2.0
    return feat, float(thresholds.min())


def fit_tree(features, targets, params: TreeParams | None = None) -> RegressionTree:
    """Fit a CART regression tree by exact greedy least-squares splitting.

    Recursion stops when a node is smaller than ``params.min_parent_size``,
    at ``params.max_depth``, when the node targets are pure (population
    variance below 1e-12), or when no split reduces the SSE. A degenerate
    training set yields a single-leaf tree.
    """
    X = np.ascontiguousarray(features, dtype=float)
    y = np.ascontiguousarray(targets, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, d) and targets (n,) with matching n")
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on an empty training set")
    if params is None:
        params = TreeParams()

    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(np.nan)
        return len(feature) - 1

    # Explicit stack instead of recursion: fully grown trees on large folds
    # can exceed Python's recursion limit.
    root = new_node()
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        yn = y[idx]
        make_leaf = (
            idx.size < params.min_parent_size
            or (params.max_depth is not None and depth >= params.max_depth)
            or np.var(yn) < _PURITY_TOL
        )
        split = None
        if not make_leaf:
            split = _best_split(X[idx], yn, params.min_leaf_size)
        if split is None:
            value[node] = yn.mean()
            continue
        feat, thr = split
        feature[node] = feat
        threshold[node] = thr
        go_left = X[idx, feat] <= thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], idx[~go_left], depth + 1))
        stack.append((left[node], idx[go_left], depth + 1))

    return RegressionTree(feature, threshold, left, right, value, X.shape[1])


def fit_individual(features, targets, params: TreeParams | None = None) -> RegressionTree:
    """The single-regressor baseline: one tree on the whole training set, no bagging."""
    return fit_tree(features, targets, params)


def bagging_sample(n: int, seed: int) -> np.ndarray:
    """Draw ``n`` indices uniformly with replacement from 0..n-1 (deterministic per seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return make_rng(seed).integers(0, n, size=n)


@dataclass(frozen=True)
class Ensemble:
    """An ordered collection of fitted regressors plus its generation audit trail.

    ``bag_indices[i]`` is the resample member ``i`` was trained on.
    """

    members: tuple
    bag_indices: tuple

    @property
    def n_members(self) -> int:
        return len(self.members)

    def predict_all(self, X) -> np.ndarray:
        """(n_members, n_samples) matrix of every member's predictions on X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.vstack([m.predict(X) for m in self.members])


def generate_ensemble(
    features,
    targets,
    n_members: int,
    params: TreeParams | None = None,
    seed: int = 0,
) -> Ensemble:
    """Train ``n_members`` regressors on bagged resamples of the training set.

    Member ``i`` draws its bag with the derived seed ``derive_seed(seed, i)``
    and is fitted by :func:`fit_tree`, so members are independent,
    order-stable, and reproducible per (seed, i).
    Every bag has exactly the training-set size, drawn with replacement.
    """
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    n = X.shape[0]
    members = []
    bags = []
    for i in range(n_members):
        bag = bagging_sample(n, derive_seed(seed, i))
        members.append(fit_tree(X[bag], y[bag], params))
        bags.append(bag)
    return Ensemble(tuple(members), tuple(bags))
