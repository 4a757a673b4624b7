"""Tree fitting, prediction, bagging, and ensemble generation."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR
from drs import learners
from drs.datasets import kfold_split, load_csv, normalize_minmax
from drs.learners import (
    Ensemble,
    RegressionTree,
    TreeParams,
    _best_splits,
    _sort_keys,
    bagging_sample,
    fit_individual,
    generate_ensemble,
)
from drs.rng import derive_seed


def reference_best_split(X, y, min_leaf):
    """One node's split search, the reference for the batched kernel.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of each feature, or the smaller value where the midpoint rounds
    to the larger; children SSE is computed for every candidate at once
    from cumulative sums. Ties on gain resolve to the lowest feature
    index, then the lowest threshold. Returns None if no split helps.
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
    below, above = xs[rows, feat], xs[rows + 1, feat]
    thresholds = (below + above) / 2.0
    return feat, float(np.where(thresholds == above, below, thresholds).min())


def reference_fit_tree(features, targets, params=None):
    """Node-at-a-time CART, the reference for the level-wise builder.

    Pops nodes from a stack, left child first, and numbers both children
    when it splits a node. A node becomes a leaf when it is smaller than
    ``min_parent_size``, at ``max_depth``, when its targets are all equal,
    or when no split reduces the SSE.
    """
    X = np.ascontiguousarray(features, dtype=float)
    y = np.ascontiguousarray(targets, dtype=float)
    params = params or TreeParams()
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(np.nan)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        yn = y[idx]
        make_leaf = (
            idx.size < params.min_parent_size
            or (params.max_depth is not None and depth >= params.max_depth)
            or yn.min() == yn.max()
        )
        split = None
        if not make_leaf:
            split = reference_best_split(X[idx], yn, params.min_leaf_size)
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


def reference_predict(tree, X):
    """One tree's walk, all rows together, the reference for the ensemble
    walk: the rows still at an internal node step down one level at a time,
    left where ``x[feature] <= threshold``."""
    X = np.asarray(X, dtype=float)
    idx = np.zeros(X.shape[0], dtype=np.int64)
    active = np.flatnonzero(tree.feature[idx] >= 0)
    while active.size:
        cur = idx[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        idx[active] = np.where(go_left, tree.left[cur], tree.right[cur])
        active = active[tree.feature[idx[active]] >= 0]
    return tree.value[idx]


# x0 <= 0.5 -> 1.0, else x1 <= -0.25 -> 2.0, else 3.0, numbered breadth
# first and in another order.
LEVEL_ORDER_TREE = RegressionTree(
    feature=[0, -1, 1, -1, -1], threshold=[0.5, np.nan, -0.25, np.nan, np.nan],
    left=[1, -1, 3, -1, -1], right=[2, -1, 4, -1, -1],
    value=[np.nan, 1.0, np.nan, 2.0, 3.0], n_features=2,
)
PERMUTED_TREE = RegressionTree(
    feature=[0, 1, -1, -1, -1], threshold=[0.5, -0.25, np.nan, np.nan, np.nan],
    left=[3, 4, -1, -1, -1], right=[1, 2, -1, -1, -1],
    value=[np.nan, np.nan, 3.0, 1.0, 2.0], n_features=2,
)


def _best_splits_of(nodes, min_leaf):
    """The batched split kernel on one batch of ``nodes``, a list of
    (X (m, d), y (m,)) pairs of any sizes m >= 2, each padded to the largest,
    which must have at least 2 * min_leaf rows. The targets go in packed,
    y + i y**2, with a padding target of 0."""
    sizes = np.array([y.size for _, y in nodes])
    keys, distinct, shift = _sort_keys(np.concatenate([X for X, _ in nodes]))
    positions = np.arange(sizes.max())
    real = positions < sizes[:, None]
    starts = np.cumsum(sizes) - sizes
    rows = np.where(real, starts[:, None] + positions, sizes.sum())  # the padding row
    y = np.concatenate([y for _, y in nodes])
    z_padded = np.zeros(y.size + 1, dtype=complex)
    z_padded.real[:-1], z_padded.imag[:-1] = y, y * y
    keys = keys[:, rows] | positions.astype(keys.dtype)
    return _best_splits(keys, z_padded[rows], sizes, distinct, shift, min_leaf)


def _best_split(X, y, min_leaf):
    """The batched split kernel on a batch of one node."""
    found, feat, thr = _best_splits_of([(X, y)], min_leaf)
    return (int(feat[0]), float(thr[0])) if found[0] else None


def oracle_best_split(X, y, min_leaf):
    """Exhaustive pure-Python split search with the same contract:
    midpoint thresholds, both children >= min_leaf, strictly positive SSE
    reduction, ties to the lowest feature index then lowest threshold."""
    n, d = X.shape
    X = [[float(v) for v in row] for row in X]
    y = [float(v) for v in y]
    mean = sum(y) / n
    parent_sse = sum((v - mean) ** 2 for v in y)
    best = None  # (children_sse, feature, threshold)
    for f in range(d):
        order = sorted(range(n), key=lambda i: X[i][f])
        xs = [X[i][f] for i in order]
        ys = [y[i] for i in order]
        for pos in range(n - 1):
            if not xs[pos] < xs[pos + 1]:
                continue
            nl, nr = pos + 1, n - pos - 1
            if nl < min_leaf or nr < min_leaf:
                continue
            thr = (xs[pos] + xs[pos + 1]) / 2.0
            lm = sum(ys[:nl]) / nl
            rm = sum(ys[nl:]) / nr
            sse = sum((v - lm) ** 2 for v in ys[:nl]) + sum(
                (v - rm) ** 2 for v in ys[nl:]
            )
            cand = (sse, f, thr)
            if best is None or cand < best:
                best = cand
    if best is None or parent_sse - best[0] <= 0.0:
        return None
    return best


class TestBestSplit:
    def test_single_candidate(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        assert _best_split(X, y, 1) == (0, 0.5)

    def test_threshold_is_midpoint_of_distinct_values(self):
        X = np.array([[1.0], [1.0], [4.0]])
        y = np.array([0.0, 0.0, 9.0])
        feat, thr = _best_split(X, y, 1)
        assert (feat, thr) == (0, 2.5)

    def test_equal_gain_prefers_lowest_threshold(self):
        # splits at 0.5 and 2.5 give identical children SSE
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 0.0, 0.0, 1.0])
        feat, thr = _best_split(X, y, 1)
        assert (feat, thr) == (0, 0.5)

    def test_equal_gain_prefers_lowest_feature(self):
        col = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([col, col])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        feat, _ = _best_split(X, y, 1)
        assert feat == 0

    def test_no_positive_reduction_returns_none(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, -1.0, -1.0, 1.0])
        assert _best_split(X, y, 2) is None  # the only legal split gains nothing

    def test_constant_feature_returns_none(self):
        X = np.ones((6, 1))
        y = np.arange(6.0)
        assert _best_split(X, y, 1) is None

    def test_min_leaf_restricts_candidates(self):
        X = np.arange(6.0)[:, None]
        y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 100.0])
        # best unrestricted cut isolates the last row; min_leaf=3 forbids it
        feat, thr = _best_split(X, y, 3)
        assert thr == 2.5

    def test_batch_matches_reference_per_node(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            c, m, d = int(rng.integers(1, 8)), int(rng.integers(2, 25)), int(rng.integers(1, 4))
            min_leaf = int(rng.integers(1, m // 2 + 1))
            X = rng.integers(0, 4, size=(c, m, d)).astype(float)
            y = rng.integers(0, 3, size=(c, m)).astype(float)
            found, feat, thr = _best_splits_of(list(zip(X, y)), min_leaf)
            for i in range(c):
                want = reference_best_split(X[i], y[i], min_leaf)
                got = (int(feat[i]), float(thr[i])) if found[i] else None
                assert got == want

    def test_matches_exhaustive_search_on_random_data(self):
        rng = np.random.default_rng(42)
        for trial in range(120):
            n = int(rng.integers(4, 30))
            d = int(rng.integers(1, 4))
            min_leaf = int(rng.integers(1, 3))
            # duplicated grid values force threshold handling around ties
            X = rng.integers(0, 6, size=(n, d)).astype(float)
            y = np.round(rng.normal(size=n), 2)
            got = _best_split(X, y, min_leaf)
            want = oracle_best_split(X, y, min_leaf)
            if want is None:
                assert got is None
                continue
            assert got is not None
            want_sse, want_feat, want_thr = want
            got_feat, got_thr = got
            if (got_feat, got_thr) != (want_feat, want_thr):
                # both must be equally good; recompute in oracle arithmetic
                go_left = X[:, got_feat] <= got_thr
                for side in (go_left, ~go_left):
                    assert side.sum() >= min_leaf
                lm = y[go_left].mean()
                rm = y[~go_left].mean()
                got_sse = float(((y[go_left] - lm) ** 2).sum() + ((y[~go_left] - rm) ** 2).sum())
                assert got_sse <= want_sse + 1e-9


@st.composite
def padded_batches(draw):
    """One batch of nodes of different sizes over a few distinct values (so
    duplicated values and tied targets): a node of exactly 2 * min_leaf
    rows, a node of over twice that, so the first is mostly padding, and up
    to four more of 2 to 40 rows, some too small for any valid cut. Some
    batches repeat one column at another feature index, so every node has
    equal-SSE cuts on two features."""
    min_leaf = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    sizes = [2 * min_leaf, draw(st.integers(4 * min_leaf + 1, 4 * min_leaf + 30))]
    sizes += draw(st.lists(st.integers(2, 40), max_size=4))
    sizes = draw(st.permutations(sizes))
    repeat = draw(st.none() | st.tuples(st.integers(0, d - 1), st.integers(0, d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = []
    for m in sizes:
        X = rng.integers(0, 5, size=(m, d)).astype(float)
        if repeat is not None:
            column, at = repeat
            X = np.insert(X, at, X[:, column], axis=1)
        nodes.append((X, np.round(rng.normal(size=m), 1)))
    return nodes, min_leaf


class TestPaddedBatch:
    @settings(max_examples=100, deadline=None)
    @given(padded_batches())
    def test_each_node_gets_its_reference_split(self, batch):
        nodes, min_leaf = batch
        found, feat, thr = _best_splits_of(nodes, min_leaf)
        for i, (X, y) in enumerate(nodes):
            got = (int(feat[i]), float(thr[i])) if found[i] else None
            assert got == reference_best_split(X, y, min_leaf)

    def test_padding_key_widens_keys_at_the_int32_edge(self):
        # 2**16 rows give shift 16. With u = 32,767 distinct values the
        # padding key u << 16 fits int32, but the bound on a padding row's
        # key with its position, (u + 1) << 16 = 2**31, does not, so the
        # keys are int64.
        n = 2**16
        keys, distinct, shift = _sort_keys((np.arange(n) % 32767.0)[:, None])
        assert (shift, distinct.shape) == (16, (1, 32767))
        assert keys.dtype == np.int64
        assert keys[0, n] == 32767 << 16
        assert keys[0, :n].max() == 32766 << 16
        keys, _, _ = _sort_keys((np.arange(n) % 32766.0)[:, None])
        assert keys.dtype == np.int32
        assert keys[0, n] == 32766 << 16


class TestFitTree:
    def test_two_point_line(self):
        tree = fit_individual(
            np.array([[0.0], [1.0]]), np.array([0.0, 1.0]),
            TreeParams(min_parent_size=2),
        )
        assert tree.predict(np.array([[0.2]]))[0] == 0.0
        assert tree.predict(np.array([[0.9]]))[0] == 1.0
        assert np.count_nonzero(tree.feature < 0) == 2

    def test_distinct_rows_fit_exactly_when_fully_grown(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = fit_individual(X, y, TreeParams(min_parent_size=2))
        assert np.allclose(tree.predict(X), y, atol=1e-12)

    def test_constant_targets_single_leaf(self):
        tree = fit_individual(np.arange(10.0)[:, None], np.full(10, 3.25), TreeParams(2))
        assert tree.n_nodes == 1
        assert tree.predict(np.array([[99.0]]))[0] == 3.25

    def test_min_parent_size_stops_splitting(self):
        X = np.arange(9.0)[:, None]
        y = np.arange(9.0)
        tree = fit_individual(X, y, TreeParams(min_parent_size=10))
        assert tree.n_nodes == 1
        assert tree.predict(np.array([[4.0]]))[0] == y.mean()

    def test_max_depth_zero_is_a_stump(self):
        X = np.arange(20.0)[:, None]
        tree = fit_individual(X, np.arange(20.0), TreeParams(2, max_depth=0))
        assert tree.n_nodes == 1

    def test_max_depth_one_splits_once(self):
        X = np.arange(20.0)[:, None]
        tree = fit_individual(X, np.arange(20.0), TreeParams(2, max_depth=1))
        assert tree.n_nodes == 3
        assert np.count_nonzero(tree.feature < 0) == 2

    def test_leaf_values_are_leaf_means(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        tree = fit_individual(X, y, TreeParams(min_parent_size=12))
        # every training row lands in a leaf whose value is the mean of
        # exactly the training rows routed there
        leaf_of = np.empty(60, dtype=int)
        for i, row in enumerate(X):
            node = 0
            while tree.feature[node] >= 0:
                if row[tree.feature[node]] <= tree.threshold[node]:
                    node = tree.left[node]
                else:
                    node = tree.right[node]
            leaf_of[i] = node
        for leaf in np.unique(leaf_of):
            members = y[leaf_of == leaf]
            assert tree.value[leaf] == pytest.approx(members.mean(), abs=1e-12)

    def test_boundary_value_routes_left(self):
        tree = fit_individual(
            np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), TreeParams(2)
        )
        thr = float(tree.threshold[0])
        assert tree.predict(np.array([[thr]]))[0] == 0.0

    def test_batch_prediction_matches_single(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        tree = fit_individual(X, y)
        probes = rng.normal(size=(20, 4))
        batch = tree.predict(probes)
        singles = [tree.predict(p[None])[0] for p in probes]
        assert np.array_equal(batch, singles)

    def test_wrong_width_rejected(self):
        tree = fit_individual(np.zeros((5, 3)), np.arange(5.0), TreeParams(2))
        with pytest.raises(ValueError, match="features"):
            tree.predict(np.zeros((1, 2)))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TreeParams(min_parent_size=4, min_leaf_size=3)
        with pytest.raises(ValueError):
            TreeParams(min_leaf_size=0)
        with pytest.raises(ValueError):
            TreeParams(max_depth=-1)

    def test_dump_does_not_depend_on_node_ids(self):
        level_order, permuted = LEVEL_ORDER_TREE, PERMUTED_TREE
        probes = np.array([[0.0, 0.0], [1.0, -1.0], [1.0, 0.0], [0.5, 9.0]])
        assert level_order.predict(probes).tolist() == [1.0, 2.0, 3.0, 1.0]
        assert permuted.predict(probes).tolist() == [1.0, 2.0, 3.0, 1.0]
        want = "node 0 0.5\nleaf 1.0\nnode 1 -0.25\nleaf 2.0\nleaf 3.0"
        assert level_order.to_text() == permuted.to_text() == want

    def test_a_midpoint_that_rounds_up_takes_the_smaller_value(self):
        # (1 + 2**-52 + 1 + 2**-51) / 2 rounds to 1 + 2**-51, the larger
        # value, which would send every row left.
        X = np.array([[1 + 2**-52], [1 + 2**-51], [1 + 2**-52], [1 + 2**-51]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        params = TreeParams(2, 1)
        tree = fit_individual(X, y, params)
        assert tree.to_text() == f"node 0 {1 + 2**-52!r}\nleaf 0.0\nleaf 1.0"
        assert tree.to_text() == reference_fit_tree(X, y, params).to_text()
        assert tree.predict(X).tolist() == y.tolist()

    def test_individual_equals_plain_fit(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        assert fit_individual(X, y).to_text() == reference_fit_tree(X, y).to_text()


@st.composite
def tree_problems(draw):
    """Small training sets with tied values, duplicate rows, constant
    columns and, sometimes, constant targets or targets of a tiny spread
    about an offset, down to a few ulps of it, whose nodes hold equal
    targets or targets that differ by a variance far below 1e-12, plus tree
    parameters."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 5, size=(max(1, n // 2), d)).astype(float)
    X = pool[rng.integers(0, pool.shape[0], size=n)]  # duplicate rows
    if draw(st.booleans()):
        X[:, rng.integers(0, d)] = 1.5  # a constant column
    kind = draw(st.sampled_from(["constant", "tied", "tiny spread"]))
    if kind == "constant":
        y = np.full(n, 0.25)
    else:
        y = np.round(rng.normal(size=n), 1)  # tied targets
    if kind == "tiny spread":
        offset = draw(st.sampled_from([0.25, 1e3, 1e6, 1e8]))
        y = offset + 10.0 ** draw(st.floats(-12.0, -4.0)) * y
    min_leaf = draw(st.integers(1, 5))
    params = TreeParams(
        min_parent_size=2 * min_leaf + draw(st.integers(0, 6)),
        min_leaf_size=min_leaf,
        max_depth=draw(st.sampled_from([None, 0, 3])),
    )
    return X, y, params, seed


class TestLevelWiseBuilder:
    @settings(max_examples=40, deadline=None)
    @given(tree_problems(), st.integers(1, 4))
    def test_trees_equal_the_reference_builder(self, problem, n_members):
        X, y, params, seed = problem
        ens = generate_ensemble(X, y, n_members, params, seed)
        for i, member in enumerate(ens.members):
            bag = bagging_sample(len(y), derive_seed(seed, i))
            assert member.to_text() == reference_fit_tree(X[bag], y[bag], params).to_text()
        individual = fit_individual(X, y, params)
        assert individual.to_text() == reference_fit_tree(X, y, params).to_text()
        for tree in (*ens.members, individual):
            inner = tree.feature >= 0
            assert np.isnan(tree.value[inner]).all()
            assert not np.isnan(tree.value[~inner]).any()

    @settings(max_examples=40, deadline=None)
    @given(tree_problems(), st.integers(1, 4))
    def test_the_individual_tree_grows_with_the_members(self, problem, n_members):
        X, y, params, seed = problem
        joint = generate_ensemble(X, y, n_members, params, seed, individual=True)
        plain = generate_ensemble(X, y, n_members, params, seed)
        assert plain.individual is None
        assert [t.to_text() for t in joint.members] == [t.to_text() for t in plain.members]
        want = reference_fit_tree(X, y, params).to_text()
        assert joint.individual.to_text() == fit_individual(X, y, params).to_text() == want

    def test_bags_narrower_than_the_training_set(self):
        # The padding row follows the training set's len(y) rows whatever
        # the bag width, so narrower bags still grow their reference trees.
        rng = np.random.default_rng(15)
        X = rng.integers(0, 6, size=(60, 2)).astype(float)
        y = np.round(rng.normal(size=60), 1)
        params = TreeParams(4, 2)
        for width in (1, 2, 25, 59, 60):
            bags = rng.integers(0, 60, size=(4, width))
            for bag, tree in zip(bags, learners._grow_trees(X, y, bags, params)):
                assert tree.to_text() == reference_fit_tree(X[bag], y[bag], params).to_text()

    def test_a_depth_of_2_to_the_15_splits_takes_a_32_bit_partition_key(self):
        # Every bag of two or more distinct rows splits at its root, so depth
        # 0 splits at least 2**15 nodes into 2**16 children, one more than a
        # 16-bit child key can number.
        rng = np.random.default_rng(16)
        X = np.column_stack([np.arange(16.0), rng.integers(0, 3, size=16)])
        y = np.round(rng.normal(size=16), 1) + np.arange(16) * 1e-3
        bags = rng.integers(0, 16, size=(2**15 + 256, 4))
        params = TreeParams(2, 1)
        trees = learners._grow_trees(X, y, bags, params)
        assert sum(tree.n_nodes > 1 for tree in trees) >= 2**15
        for i in rng.choice(len(trees), size=40, replace=False):
            want = reference_fit_tree(X[bags[i]], y[bags[i]], params)
            assert trees[i].to_text() == want.to_text()

    def test_a_node_is_pure_when_its_targets_are_all_equal(self):
        # Each tree's root is one drawn node. The feature is constant, so no
        # node splits, and the split search sees exactly the impure roots.
        # Half the roots hold n equal targets; the other half hold one of
        # them one ulp above the rest, a variance far below any tolerance.
        # Offsets run from 0, where the ulp is the least subnormal, to 1e8.
        rng = np.random.default_rng(14)
        for n in (2, 3, 5, 13, 40, 200):
            offset = rng.choice([0.0, 0.25, -3.0, 1e3, 1e6, 1e8], size=(60, 1))
            y = np.repeat(offset, n, axis=1)
            up = np.arange(30, 60), rng.integers(0, n, size=30)
            y[up] = np.nextafter(y[up], np.inf)
            bags = np.arange(y.size).reshape(y.shape)
            spy = mock.patch.object(learners, "_best_splits", wraps=learners._best_splits)
            with spy as search:
                trees = learners._grow_trees(
                    np.zeros((y.size, 1)), y.ravel(), bags, TreeParams(2, 1)
                )
            searched = {
                zb.real[i, : sizes[i]].tobytes()
                for (_, zb, sizes, *_), _ in search.call_args_list
                for i in range(len(sizes))
            }
            for i, (node, tree) in enumerate(zip(y, trees)):
                assert (node.tobytes() in searched) == (i >= 30)
                assert tree.n_nodes == 1 and tree.value[0] == node.mean()

    def test_equal_targets_of_a_large_magnitude_stay_one_leaf(self):
        # np.var reads rounding noise above 1e-12 here, but no split can
        # reduce the spread of equal targets.
        X = np.arange(82.0)[:, None]
        y = np.full(82, 67326551858.930885)
        assert np.var(y) > 1e-12
        tree = fit_individual(X, y, TreeParams(2, 1))
        assert tree.n_nodes == 1 and tree.value[0] == y.mean()

    @settings(max_examples=60, deadline=None)
    @given(tree_problems(), st.integers(-60, 60), st.integers(-60, 60))
    def test_scaling_by_a_power_of_two_scales_the_tree(self, problem, a, b):
        # Scaling by 2**a and 2**b is exact, so every sum, split and mean
        # scales with it and nothing else may move.
        X, y, params, _ = problem
        tree = fit_individual(X, y, params)
        scaled = fit_individual(np.ldexp(X, a), np.ldexp(y, b), params)
        for name in ("feature", "left", "right"):
            assert getattr(scaled, name).tolist() == getattr(tree, name).tolist()
        assert scaled.threshold.tobytes() == np.ldexp(tree.threshold, a).tobytes()
        assert scaled.value.tobytes() == np.ldexp(tree.value, b).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(tree_problems(), st.integers(1, 4))
    def test_nodes_are_numbered_breadth_first(self, problem, n_members):
        X, y, params, seed = problem
        trees = [*generate_ensemble(X, y, n_members, params, seed).members]
        trees.append(fit_individual(X, y, params))
        for tree in trees:
            visited, queue = [], [0]
            while queue:
                node = queue.pop(0)
                visited.append(node)
                if tree.feature[node] >= 0:
                    queue += [int(tree.left[node]), int(tree.right[node])]
            assert visited == list(range(tree.n_nodes))


def _tree_depth(tree):
    """The number of edges on the tree's longest root-to-leaf path."""
    depth, level = 0, [0]
    while True:
        level = [c for i in level if tree.feature[i] >= 0 for c in (tree.left[i], tree.right[i])]
        if not level:
            return depth
        depth += 1


@st.composite
def walk_problems(draw):
    """Trees and probe rows. The trees are an ensemble's, grown breadth
    first, sometimes with the node-at-a-time reference tree (numbered depth
    first) beside them, or the two hand-built trees. Probe cells are the
    trees' thresholds, training values, +-inf, NaN and other floats."""
    if draw(st.booleans()):
        X, y, params, seed = draw(tree_problems())
        trees = list(generate_ensemble(X, y, draw(st.integers(1, 4)), params, seed).members)
        if draw(st.booleans()):
            trees.append(reference_fit_tree(X, y, params))
        seen = X.ravel().tolist()
    else:
        trees, seen = [LEVEL_ORDER_TREE, PERMUTED_TREE], []
    d = trees[0].n_features
    thresholds = [float(t.threshold[i]) for t in trees for i in np.flatnonzero(t.feature >= 0)]
    cells = st.one_of(
        st.sampled_from(thresholds + seen + [np.inf, -np.inf, np.nan]),
        st.floats(-10.0, 10.0),
    )
    n = draw(st.integers(0, 30))
    probes = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d)), dtype=float)
    return trees, probes.reshape(n, d)


def test_fold_fit_peak_memory():
    # A 100-member fit of a housing training fold (455 rows) peaks near
    # 2.6 MB; the guard keeps the split kernel's temporaries from growing
    # toward the benchmark's resident-memory figure.
    data = normalize_minmax(load_csv(DATA_DIR / "housing.csv"))[0]
    train = data.subset(kfold_split(data.n_instances, 10, 0)[0].train_indices)
    tracemalloc.start()
    try:
        generate_ensemble(train.features, train.targets, 100, TreeParams(min_leaf_size=5), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


class TestWalk:
    @settings(max_examples=80, deadline=None)
    @given(walk_problems(), st.sampled_from([1, 3, learners._BATCH_CELLS, 2**22]))
    def test_walk_equals_the_reference_walk(self, problem, cells):
        trees, probes = problem
        want = [reference_predict(tree, probes) for tree in trees]
        with mock.patch.object(learners, "_BATCH_CELLS", cells):
            every = Ensemble(tuple(trees)).predict_all(probes)
            alone = [tree.predict(probes) for tree in trees]
        assert every.shape == (len(trees), len(probes))
        assert every.tobytes() == np.array(want).tobytes()
        for got, row in zip(alone, want):
            assert got.tobytes() == row.tobytes()

    @pytest.mark.parametrize("case", ["leaves among deep trees", "all leaves", "shallowest first"])
    @pytest.mark.parametrize("cells", [1, learners._BATCH_CELLS])
    def test_each_tree_stops_at_its_depth(self, case, cells):
        # The walk takes the trees deepest first and stops each at its own
        # depth; the rows must still come back in member order.
        rng = np.random.default_rng(17)
        X = rng.integers(0, 6, size=(50, 3)).astype(float)
        y = np.round(rng.normal(size=50), 1)
        deep = list(generate_ensemble(X, y, 4, TreeParams(2, 1), 3).members)
        leaves = [RegressionTree([-1], [np.nan], [-1], [-1], [v], 3) for v in (0.5, -2.0, 7.0)]
        trees = {
            "leaves among deep trees": [leaves[0], deep[0], leaves[1], deep[1], deep[2], leaves[2]],
            "all leaves": leaves,
            "shallowest first": [leaves[0], *sorted(deep, key=_tree_depth)],
        }[case]
        if case == "shallowest first":
            depths = [_tree_depth(tree) for tree in trees]
            assert depths == sorted(depths) and depths[0] < depths[-1]
        probes = np.vstack([X, rng.uniform(-1, 7, size=(20, 3)), [[np.nan, np.inf, -np.inf]]])
        want = np.array([reference_predict(tree, probes) for tree in trees])
        with mock.patch.object(learners, "_BATCH_CELLS", cells):
            got = Ensemble(tuple(trees)).predict_all(probes)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cells", [1, learners._BATCH_CELLS])
    def test_trees_stopping_at_odd_and_even_steps(self, cells):
        # The walk's two id buffers swap roles at every step, so a tree that
        # stops after an odd number of steps leaves its cells in the other
        # buffer from one that stops after an even number. Combs of depths 0
        # to 5 stop after every count of steps from 0 to 5: comb(D) sends
        # x <= j + 0.5 left to leaf j at split j, and the rest to leaf D.
        def comb(depth):
            ids = np.arange(depth)
            feature, left, right = (np.full(2 * depth + 1, -1) for _ in range(3))
            threshold, value = np.full((2, 2 * depth + 1), np.nan)
            feature[2 * ids], threshold[2 * ids] = 0, ids + 0.5
            left[2 * ids], right[2 * ids] = 2 * ids + 1, 2 * ids + 2
            value[2 * ids + 1], value[-1] = ids, depth
            return RegressionTree(feature, threshold, left, right, value, 1)

        trees = [comb(depth) for depth in (2, 0, 5, 1, 4, 3)]
        probes = np.append(np.arange(-1.0, 7.0, 0.25), [np.nan, np.inf, -np.inf])[:, None]
        want = np.array([reference_predict(tree, probes) for tree in trees])
        assert [_tree_depth(tree) for tree in trees] == [2, 0, 5, 1, 4, 3]
        with mock.patch.object(learners, "_BATCH_CELLS", cells):
            got = Ensemble(tuple(trees)).predict_all(probes)
        assert got.tobytes() == want.tobytes()
        assert got[2, :8].tolist() == [0.0] * 7 + [1.0]

    def test_nan_goes_right_and_a_threshold_left(self):
        probes = np.array([[np.nan, 0.0], [0.5, np.nan], [1.0, -0.25], [np.inf, np.nan]])
        for tree in (LEVEL_ORDER_TREE, PERMUTED_TREE):
            assert tree.predict(probes).tolist() == [3.0, 1.0, 2.0, 3.0]

    def test_predict_all_rejects_a_wrong_feature_count(self):
        ens = Ensemble((LEVEL_ORDER_TREE, PERMUTED_TREE))
        for bad in (np.zeros((2, 1)), np.zeros((2, 3)), np.zeros(2)):
            with pytest.raises(ValueError, match=r"expected \(n, 2\) features"):
                ens.predict_all(bad)

    @pytest.mark.parametrize("field, bad", [
        ("left", 5), ("right", 5), ("left", -1), ("right", -2), ("feature", 2),
    ])
    def test_out_of_range_ids_are_rejected(self, field, bad):
        # The walk gathers without bounds checks, so the node table refuses a
        # split node whose child lies outside its tree or whose feature
        # lies outside the rows; a leaf's fields are never read.
        arrays = {name: getattr(LEVEL_ORDER_TREE, name).copy()
                  for name in ("feature", "threshold", "left", "right", "value")}
        arrays[field][2] = bad
        tree = RegressionTree(**arrays, n_features=2)
        probes = np.zeros((3, 2))
        with pytest.raises(ValueError, match="outside its tree"):
            tree.predict(probes)
        # In an ensemble, a child id must lie within its own tree, not the table.
        with pytest.raises(ValueError, match="outside its tree"):
            Ensemble((tree, PERMUTED_TREE)).predict_all(probes)
        leaf = {name: arrays[name].copy() for name in arrays}
        leaf["feature"][2] = -1
        assert RegressionTree(**leaf, n_features=2).predict(probes).tolist() == [1.0] * 3

    def test_a_cycle_of_split_nodes_is_rejected(self):
        # Node 2's right child is the root: every id is in range, but no
        # walk would reach a leaf.
        tree = RegressionTree([0, -1, 1, -1, -1], [0.5, np.nan, -0.25, np.nan, np.nan],
                              [1, -1, 3, -1, -1], [2, -1, 0, -1, -1],
                              [np.nan, 1.0, np.nan, 2.0, 3.0], n_features=2)
        with pytest.raises(ValueError, match="form a cycle"):
            tree.predict(np.zeros((1, 2)))


class TestBagging:
    def test_sample_shape_and_range(self):
        idx = bagging_sample(50, 7)
        assert idx.shape == (50,)
        assert idx.min() >= 0 and idx.max() < 50

    def test_sample_deterministic(self):
        assert np.array_equal(bagging_sample(100, 3), bagging_sample(100, 3))
        assert not np.array_equal(bagging_sample(100, 3), bagging_sample(100, 4))

    def test_unique_fraction_near_two_thirds(self):
        fractions = [
            len(np.unique(bagging_sample(5000, derive_seed(77, i)))) / 5000
            for i in range(20)
        ]
        assert 0.60 < np.mean(fractions) < 0.66


class TestEnsemble:
    def _data(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(80, 3))
        y = X[:, 0] + np.sin(3 * X[:, 1]) + 0.1 * rng.normal(size=80)
        return X, y

    def test_generation_is_deterministic(self):
        X, y = self._data()
        a = generate_ensemble(X, y, 8, seed=21)
        b = generate_ensemble(X, y, 8, seed=21)
        probes = X[:10] + 0.01
        assert np.array_equal(a.predict_all(probes), b.predict_all(probes))

    def test_members_differ_across_seeds_and_indices(self):
        X, y = self._data()
        ens = generate_ensemble(X, y, 6, seed=21)
        other = generate_ensemble(X, y, 6, seed=22)
        probes = X[:20] + 0.01
        P = ens.predict_all(probes)
        assert P.shape == (6, 20)
        # bagged members are not clones of each other
        assert any(not np.array_equal(P[0], P[i]) for i in range(1, 6))
        assert not np.array_equal(P, other.predict_all(probes))

    def test_member_count_and_bag_indices(self):
        X, y = self._data()
        ens = generate_ensemble(X, y, 5, seed=1)
        assert ens.n_members == len(ens.members) == 5
        bags = [bagging_sample(len(y), derive_seed(1, i)) for i in range(5)]
        for bag in bags:
            assert len(bag) == len(y)
        assert any(not np.array_equal(bags[0], bag) for bag in bags[1:])

    def test_member_reproducible_from_its_bag(self):
        X, y = self._data()
        ens = generate_ensemble(X, y, 4, seed=9)
        bag = bagging_sample(len(y), derive_seed(9, 2))
        refit = fit_individual(X[bag], y[bag])
        probes = X[:15] - 0.02
        assert np.array_equal(refit.predict(probes), ens.members[2].predict(probes))

    def test_zero_members_rejected(self):
        X, y = self._data()
        with pytest.raises(ValueError):
            generate_ensemble(X, y, 0, seed=1)
