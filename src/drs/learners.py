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
in bag order. At each depth, one pass over the nodes' target ranges settles
the purity of every node whose range puts it far from the tolerance; the
variance of the rest runs once per group of equal-size nodes. The split
search runs on batches of impure nodes of mixed sizes, each padded to the
largest node of its batch, under a fixed cell cap, and the leaf mean runs
per equal-size group of the nodes that stay leaves. One stable partition of
the split nodes' rows per depth makes the children, each in its parent's
row order. Each tree numbers its nodes breadth first from the root, left
child before right. The nodes, splits, thresholds and leaf values are a
node-at-a-time builder's bit for bit:

- a node of n rows whose targets span R has a variance of at least
  R**2 / (2 n), so R**2 >= 4 n ``_PURITY_TOL`` marks it impure with a
  factor-2 margin over ``var``'s rounding, and every other candidate takes
  the same ``var < _PURITY_TOL`` test as a 1-D call;
- ``var`` and ``mean`` run on groups of one exact size, so their row-wise
  pairwise sums are those of 1-D calls; ``mean`` runs on leaves only, and a
  split node's value is NaN;
- ``cumsum`` adds sequentially, along any axis;
- a complex addition is two independent IEEE additions, so the prefix sums
  of the packed targets y + i y**2 are, part by part, the real prefix sums
  of y and of y**2;
- a node's rows are sorted per feature by (value rank, bag position), the
  order a stable sort of its bag-ordered rows gives, so tied values keep
  their order and every prefix sum is the same;
- a padding row's sort key lies above every real key and its target is 0,
  so it sorts after the node's real rows and leaves their prefix sums as
  they are; each node's totals are read at its own last real row;
- the SSE is computed only at cut positions that leave ``min_leaf_size``
  rows on both sides of the batch's largest node, with each node's own
  right-hand count. Ties, and cuts that leave fewer in a node, get ``inf``
  added and are never chosen; the rest get 0 added. The overflow guard keeps
  every SSE finite, so this equals writing ``inf`` (x + 0 is x);
- midpoints grow with the cut position, so a node's first minimum SSE in
  (feature, cut) order is at the lowest feature's lowest threshold; where
  the midpoint of two adjacent doubles rounds to the larger, the smaller is
  the threshold, and it splits them the same way.

None of these depends on which nodes share a batch or a depth, so a tree
grown among others is the tree grown alone: ``generate_ensemble`` grows
the single-regressor baseline, on the identity bag, in its members' pass.

Prediction walks every member of an ensemble at once through one table of
all their nodes (see :func:`_walk`); one tree is the one-member case. The
table takes the trees deepest first, so at each step the cells still
moving are a prefix of the walk's tree-major cells, and each tree stops at
its own depth instead of the deepest tree's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .datasets import DatasetError
from .rng import derive_seed, make_rng

# A node whose target variance is below this is a leaf. The range bound in
# _grow_trees compares against the same value, so changing it here changes
# the whole purity rule.
_PURITY_TOL = 1e-12
# Largest (feature, row) cell count of one split-search batch, padding rows
# included (nodes x largest node size x features), and largest (tree, row)
# cell count of one chunk of the prediction walk. It bounds working arrays
# only (16 bytes a packed cell); it changes no tree, node id or prediction.
# Housing fold fits: 2**15 is 7% faster than 2**14 (peaks 2.60 / 2.08 MB); 2**16 no faster.
_BATCH_CELLS = 1 << 15


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
        """Predict a batch of samples (n, d); returns the (n,) predictions.

        The one-tree case of :meth:`Ensemble.predict_all`'s walk.
        """
        return _walk(self._table, self.n_features, X)[0]

    @functools.cached_property
    def _table(self):
        return _node_table([self])

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


def _node_table(trees):
    """The nodes of ``trees`` in one flat table, for :func:`_walk`.

    Returns (order, roots, feature, threshold, children, value, walking).
    The walk takes the trees deepest first, ties in the given order: its
    t-th tree is ``trees[order[t]]``, rooted at node ``roots[t]``, and
    ``walking[s]`` trees are deeper than s, so they come first and are the
    only ones still moving at step s. Node i's right and left children are
    ``children[2i]`` and ``children[2i + 1]``, ids into the table. A leaf
    reads feature 0 and is both its own children.
    """
    sizes = [tree.n_nodes for tree in trees]
    starts = np.cumsum([0] + sizes[:-1])
    feature, threshold, left, right, value = (
        np.concatenate([getattr(tree, name) for tree in trees])
        for name in ("feature", "threshold", "left", "right", "value")
    )
    inner = feature >= 0
    offset = np.repeat(starts, sizes)
    ids = np.arange(feature.size)
    children = np.where(inner, np.stack([right, left]) + offset, ids).T.ravel()
    # Each tree's depth: the number of levels that hold its inner nodes.
    tree_of = np.repeat(np.arange(len(trees)), sizes)
    depths = np.zeros(len(trees), dtype=np.int64)
    level, depth = starts[inner[starts]], 0
    while level.size:
        depth += 1
        depths[tree_of[level]] = depth
        level = children.reshape(-1, 2)[level].ravel()
        level = level[inner[level]]
    order = np.argsort(-depths, kind="stable")
    walking = len(trees) - np.cumsum(np.bincount(depths))[:-1]
    return order, starts[order], np.where(inner, feature, 0), threshold, children, value, walking


def _walk(table, n_features, X):
    """Route every row of X through every tree of a :func:`_node_table`.

    A row goes left where ``x[feature] <= threshold``, so NaN goes right.
    Returns the (trees, n) leaf values reached, in the trees' given order.
    Rows are walked in chunks of at most ``_BATCH_CELLS`` (tree, row)
    cells, so the index arrays stay small for any n. The cells are
    tree-major with the deepest trees first, so step s moves the prefix of
    cells whose trees are deeper than s, and each tree stops at its depth.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"expected (n, {n_features}) features, got shape {X.shape}")
    order, roots, feature, threshold, children, value, walking = table
    n, d = X.shape
    out = np.empty((len(roots), n))
    step = max(1, _BATCH_CELLS // len(roots))
    for start in range(0, n, step):
        rows = X[start : start + step]
        m = len(rows)
        x = rows.ravel()
        # One cell per (tree, row), tree-major: its node, and its row's
        # offset in x.
        node = np.repeat(roots, m)
        offset = np.tile(np.arange(m) * d, len(roots))
        for trees in walking:
            moving = node[: trees * m]
            goes_left = x[offset[: trees * m] + feature[moving]] <= threshold[moving]
            moving[:] = children[2 * moving + goes_left]
        out[order, start : start + m] = value[node].reshape(len(roots), m)
    return out


def _check_training_set(X, y):
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, d) and targets (n,) with matching n")
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on an empty training set")
    # Every sum in the split arithmetic (prefix sums of y and y*y, their
    # squares, the variance) stays below (n * max|y|)**2, and the sum a + b
    # behind each threshold, the midpoint of two feature values, within 2 max|x|.
    largest = float(np.max(np.abs(y)))
    bound = X.shape[0] * largest
    if not math.isfinite(bound * bound):
        raise DatasetError(
            f"targets reach |y| = {largest:.6g}; with {X.shape[0]} training rows "
            "the split sums overflow float64, try --normalize global"
        )
    widest = float(np.max(np.abs(X), initial=0.0))
    if not math.isfinite(2 * widest):
        raise DatasetError(f"features reach |x| = {widest:.6g}; the split thresholds "
                           "overflow float64, try --normalize global")


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


def _best_splits(keys, zb, sizes, distinct, shift, min_leaf):
    """Best (feature, threshold) of each node in a batch of padded nodes.

    ``keys`` is (d, c, m): the sort keys of the rows of node c under feature
    f, their positions in the low ``shift`` bits (see :func:`_sort_keys`).
    Node c holds ``sizes[c]`` real rows, at least 2, and padding rows up to
    m, with m >= 2 * min_leaf; a padding row has the padding key and a
    target of 0. ``zb`` is (c, m), the packed targets y + i y**2 in position
    order. ``keys`` is sorted in place, then reused as the gather index, so
    a caller passes a fresh array. Returns (found, feature, threshold)
    arrays of length c; ``found`` is False where no split reduces the SSE.
    """
    c, m = zb.shape
    keys.sort(axis=2)
    ranks = keys >> shift
    # The gather index into zb, in the key buffer: position + node offset.
    keys &= (1 << shift) - 1
    keys += np.arange(0, c * m, m, dtype=keys.dtype)[:, None]
    sums = np.take(zb, keys)
    del keys
    np.cumsum(sums, axis=2, out=sums)
    nodes = np.arange(c)
    total = sums[0, nodes, sizes - 1]
    parent_sse = total.imag - total.real * total.real / sizes

    # Only cuts that leave min_leaf rows on both sides of the largest node;
    # a smaller node's cuts past sizes - min_leaf are masked with the ties.
    lo, hi = min_leaf - 1, m - min_leaf
    n_left = np.arange(lo + 1, hi + 1, dtype=float)
    n_right = sizes[:, None] - n_left
    short = n_right < min_leaf
    n_right[short] = min_leaf  # any positive count: keeps masked cuts finite
    # Unit-stride copies of the cut range for the passes below.
    sum_left = np.ascontiguousarray(sums.real[:, :, lo:hi])
    sq_left = np.ascontiguousarray(sums.imag[:, :, lo:hi])
    del sums
    # The children SSE in place, in two buffers, as ((sq_left - sum_left**2 /
    # n_left) + (total_sq - sq_left)) - (total_sum - sum_left)**2 / n_right.
    sse = np.multiply(sum_left, sum_left)
    sse /= n_left
    np.subtract(sq_left, sse, out=sse)
    right = np.subtract(total.imag[:, None], sq_left)
    sse += right
    np.subtract(total.real[:, None], sum_left, out=right)
    right *= right
    right /= n_right
    sse -= right
    del sum_left, sq_left
    masked = ranks[:, :, lo:hi] == ranks[:, :, lo + 1 : hi + 1]
    masked |= short
    # Add +inf to the masked cuts and 0 to the rest: the mask times +inf's bits.
    np.multiply(masked, np.float64(np.inf).view(np.int64), out=right.view(np.int64))
    sse += right

    # The first minimum in (feature, cut) order breaks ties. A node with no
    # valid cut reads its unused threshold at the first cut, within its rows.
    first = sse.transpose(1, 0, 2).reshape(c, -1).argmin(axis=1)
    feat, cut = np.divmod(first, hi - lo)
    best = sse[feat, nodes, cut]
    found = np.isfinite(best) & ~(parent_sse - best <= 0.0)
    cut = np.minimum(cut + lo, sizes - 2)
    below = distinct[feat, ranks[feat, nodes, cut]]
    above = distinct[feat, ranks[feat, nodes, cut + 1]]
    # A midpoint that rounds up to `above` would send both values left.
    middle = (below + above) / 2.0
    return found, feat, np.where(middle == above, below, middle)


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


def _size_groups(y, rows, starts, sizes, nodes):
    """``nodes`` grouped by exact size, each group with its targets.

    Yields (group, yb): the node ids of one size m, in ``nodes`` order, and
    the (len(group), m) targets ``y`` of their rows, node j's rows being
    ``rows[starts[j] : starts[j] + m]``. Row-wise ``var`` and ``mean`` of yb
    add pairwise, as 1-D calls on each node do.
    """
    nodes = nodes[np.argsort(sizes[nodes], kind="stable")]
    for group in np.split(nodes, np.flatnonzero(np.diff(sizes[nodes])) + 1):
        if group.size:
            yield group, y[rows[starts[group, None] + np.arange(sizes[group[0]])]]


def _grow_trees(X, y, bags, params: TreeParams) -> list[RegressionTree]:
    """Fit one tree per row of ``bags`` (up to len(y) row indices into X and y), level by level."""
    n_trees, n = bags.shape
    d = X.shape[1]
    keys, distinct, shift = _sort_keys(X)
    # Packed targets y + i y**2, set part by part so that every bit is kept;
    # the last row, 0, is the padding row, as in keys.
    z_padded = np.zeros(len(y) + 1, dtype=complex)
    z_padded.real[:-1], z_padded.imag[:-1] = y, y * y

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
        threshold, value = np.full((2, n_nodes), np.nan)
        left, right = np.full((2, n_nodes), -1)

        # Purity of the nodes that may split: impure by the range bound (see
        # the module docstring), else by np.var per exact-size group.
        impure = np.zeros(n_nodes, dtype=bool)
        if params.max_depth is None or depth < params.max_depth:
            values = y[rows]
            spread = np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)
            del values
            candidate = sizes >= params.min_parent_size
            impure = candidate & (spread * spread >= 4 * sizes * _PURITY_TOL)
            near = np.flatnonzero(candidate & ~impure)
            for group, yb in _size_groups(y, rows, starts, sizes, near):
                impure[group] = ~(np.var(yb, axis=1) < _PURITY_TOL)

        # Split search over the impure nodes in size order, padded per run.
        impure = np.flatnonzero(impure)
        impure = impure[np.argsort(sizes[impure], kind="stable")]
        for run in _search_runs(sizes[impure], d):
            nodes = impure[run]
            run_sizes = sizes[nodes]
            positions = np.arange(run_sizes[-1])
            real = positions < run_sizes[:, None]
            node_rows = np.full(real.shape, len(y))
            node_rows[real] = rows[(starts[nodes, None] + positions)[real]]
            node_keys = np.take(keys, node_rows, axis=1)
            node_keys |= positions.astype(keys.dtype)
            found, feat, thr = _best_splits(
                node_keys, z_padded[node_rows], run_sizes, distinct, shift, params.min_leaf_size
            )
            feature[nodes[found]] = feat[found]
            threshold[nodes[found]] = thr[found]

        # Children: split node j's are 2j (left) and 2j + 1 (right) of the
        # next depth, numbered from n_grown + n_nodes. A stable sort of the
        # split nodes' rows by child gives each child its parent's row order.
        split = np.flatnonzero(feature >= 0)
        left[split] = n_grown + n_nodes + 2 * np.arange(split.size)
        right[split] = left[split] + 1
        for group, yb in _size_groups(y, rows, starts, sizes, np.flatnonzero(feature < 0)):
            value[group] = yb.mean(axis=1)
        nodes_by_depth.append((tree_of, feature, threshold, value, left, right))
        if not split.size:
            break
        rows = rows[np.repeat(feature >= 0, sizes)]
        sizes = sizes[split]
        # The narrowest unsigned key: numpy radix-sorts 8- and 16-bit keys.
        key = np.arange(0, 2 * split.size, 2, dtype=np.min_scalar_type(2 * split.size))
        key = np.repeat(key, sizes)
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
    Raises DatasetError as :func:`generate_ensemble` does.
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
    ``individual`` is the single-regressor baseline on the whole training
    set when it was grown with the members, else None; it is not a member.
    """

    members: tuple
    individual: RegressionTree | None = None

    @functools.cached_property
    def _table(self):
        return _node_table(self.members)

    @property
    def n_members(self) -> int:
        return len(self.members)

    def predict_all(self, X) -> np.ndarray:
        """(n_members, n_samples) matrix of every member's predictions on X (n_samples, d).

        All members walk together through one node table built with the
        ensemble; each entry is the leaf value that member's tree reaches,
        exactly as :meth:`RegressionTree.predict` gives it. Raises
        ValueError when X does not have the members' feature count.
        """
        return _walk(self._table, self.members[0].n_features, X)


def generate_ensemble(
    features,
    targets,
    n_members: int,
    params: TreeParams | None = None,
    seed: int = 0,
    *,
    individual: bool = False,
) -> Ensemble:
    """Train ``n_members`` regressors on bagged resamples of the training set.

    Member ``i`` draws its bag with the derived seed ``derive_seed(seed, i)``,
    so members are independent, order-stable, and reproducible per
    (seed, i): a member equals :func:`fit_individual` on its bag's rows.
    Every bag has exactly the training-set size, drawn with replacement.
    All members are grown together, level by level. With ``individual``,
    the identity bag joins them as one more tree, grown in the same pass,
    and the ensemble carries it as ``individual``: :func:`fit_individual`'s
    tree bit for bit, since no node's split depends on the nodes it shares
    a batch with.

    Raises DatasetError when ``(n * max|y|)**2`` or ``2 * max|x|`` is not
    finite: the split sums or the thresholds would overflow float64.
    """
    if n_members < 1:
        raise ValueError("n_members must be >= 1")
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    _check_training_set(X, y)
    n = X.shape[0]
    bags = [bagging_sample(n, derive_seed(seed, i)) for i in range(n_members)]
    if individual:
        bags.append(np.arange(n))
    bags = np.stack(bags)
    trees = _grow_trees(X, y, bags, params or TreeParams())
    return Ensemble(tuple(trees[:n_members]), trees[n_members] if individual else None)
