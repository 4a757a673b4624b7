"""Neighbor search, inverse-distance weights, and region assembly."""

import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import reference_find_neighbors
from drs.datasets import DatasetError
from drs.learners import generate_ensemble
from drs.region import build_region, find_neighbors, inverse_distance_weights


def oracle_neighbors(x, ref, k):
    """Sort by (distance, row index) with plain Python arithmetic."""
    scored = []
    for i, row in enumerate(ref):
        dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(row, x)))
        scored.append((dist, i))
    scored.sort()
    return [i for _, i in scored[:k]], [d for d, _ in scored[:k]]


class TestFindNeighbors:
    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 5))
            ref = rng.normal(size=(n, d))
            x = rng.normal(size=d)
            k = int(rng.integers(1, n + 1))
            idx, dist = find_neighbors(x[None], ref, k)
            oidx, odist = oracle_neighbors(x, ref, k)
            assert np.allclose(dist[0], odist, atol=1e-9)
            assert list(idx[0]) == oidx

    def test_duplicate_rows_tie_to_lower_index(self):
        ref = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        idx, dist = find_neighbors(np.array([[1.0, 1.0]]), ref, 3)
        assert list(idx[0]) == [0, 2, 3]
        assert np.allclose(dist[0], [0.0, 0.0, 0.0])

    def test_distances_ascending(self):
        rng = np.random.default_rng(5)
        ref = rng.normal(size=(30, 3))
        _, dist = find_neighbors(rng.normal(size=(1, 3)), ref, 30)
        assert np.all(np.diff(dist[0]) >= 0)

    def test_k_bounds(self):
        ref = np.zeros((3, 2))
        with pytest.raises(ValueError, match="k"):
            find_neighbors(np.zeros((1, 2)), ref, 0)
        with pytest.raises(ValueError, match="exceeds"):
            find_neighbors(np.zeros((1, 2)), ref, 4)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_block_rows_tie_like_a_stable_argsort(self, data):
        # Coarse integer grids make many rows tie at the k-th distance.
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 3))
        cells = st.lists(st.integers(0, 2), min_size=d, max_size=d)
        ref = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=float)
        block = np.array(data.draw(st.lists(cells, min_size=1, max_size=8)), dtype=float)
        k = data.draw(st.integers(1, n))
        idx, dist = find_neighbors(block, ref, k)
        assert idx.shape == dist.shape == (len(block), k)
        for x, row_idx, row_dist in zip(block, idx, dist):
            alone = np.sqrt(((ref - x) ** 2).sum(axis=1))
            want = np.argsort(alone, kind="stable")[:k]
            assert row_idx.tolist() == want.tolist()
            assert row_dist.tobytes() == alone[want].tobytes()
            one_idx, one_dist = find_neighbors(x[None], ref, k)
            assert one_idx[0].tolist() == want.tolist()
            assert one_dist[0].tobytes() == row_dist.tobytes()

    def test_tied_kth_distance_in_a_block(self):
        ref = np.array([[1.0], [3.0], [0.0], [3.0], [-1.0]])
        block = np.array([[2.0], [0.0], [1.0]])
        idx, dist = find_neighbors(block, ref, 2)
        # row 0: rows 0, 1 and 3 all sit at distance 1; row 2: rows 0 (0) then 2 (1).
        assert idx.tolist() == [[0, 1], [2, 0], [0, 2]]
        assert dist.tolist() == [[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]

    def test_peak_memory_stays_far_below_the_full_distance_temporary(self):
        rng = np.random.default_rng(0)
        ref = rng.random((20_000, 13))
        x = rng.random((64, 13))
        tracemalloc.start()
        try:
            find_neighbors(x, ref, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A (64, 20000, 13) float temporary would take 133 MB.
        assert peak < 64 * 20_000 * 13 * 8 / 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="features"):
            find_neighbors(np.zeros((1, 3)), np.zeros((5, 2)), 1)


@st.composite
def neighbor_problems(draw):
    """A reference set and a query block at scales from 1e-8 to 1e8 (and
    near 1e155, where the squares overflow), offset by up to 1e8, with up
    to 16 features (numpy sums 8 or more values in 8 partial sums): coarse
    grids with ties at the k-th distance, duplicated reference rows, queries
    equal to reference rows (zero distances), k up to n and n down to 1."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 16))
    if draw(st.booleans()):
        values = st.integers(-2, 2).map(float)
    else:
        values = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    row = st.lists(values, min_size=d, max_size=d)
    ref = np.array(draw(st.lists(row, min_size=n, max_size=n)))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        ref[dst] = ref[src]
    x = np.array(draw(st.lists(row, min_size=1, max_size=6)))
    copies = draw(st.lists(st.integers(0, n - 1), max_size=len(x)))
    x[: len(copies)] = ref[copies]
    scale = draw(st.one_of(st.integers(-8, 8).map(lambda e: 10.0**e), st.just(1e155)))
    offset = draw(st.sampled_from([0.0, 1.0, -3.5, 1e4, 1e8, -1e8]))
    return x * scale + offset, ref * scale + offset, draw(st.integers(1, n))


# Near 1e155 the squares overflow: the approximate distances are nan and the
# rounding bound infinite, so each query must keep every reference row.
_HUGE = np.random.default_rng(0).random((11, 2)) * 1e155


# The full search squares differences near 1e155 and overflows to inf.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=400, deadline=None)
# ``rows``: query rows per product, or None for the default cap; 0 asks
# for a cap below one row's product, which still takes one row.
@given(neighbor_problems(), st.one_of(st.none(), st.integers(0, 7)))
@example((_HUGE[:3], _HUGE[3:], 5), None)
# Every query is a reference row, its own nearest at distance 0: all rows
# are kept and the one returned distance is finite.
@example((_HUGE[3:6], _HUGE[3:], 1), 2)
def test_filtered_search_equals_the_full_search(problem, rows):
    x, ref, k = problem
    cap = contextlib.nullcontext()
    if rows is not None:
        cap = mock.patch("drs.region._PRODUCT_CELLS", rows * ref.size)
    want_idx, want_dist = reference_find_neighbors(x, ref, k)
    if not np.isfinite(want_dist).all():
        with cap, pytest.raises(DatasetError, match="the neighbour distances overflow float64"):
            find_neighbors(x, ref, k)
        return
    with cap:
        idx, dist = find_neighbors(x, ref, k)
    assert idx.tolist() == want_idx.tolist()
    assert dist.tobytes() == want_dist.tobytes()


class TestInverseDistanceWeights:
    def test_worked_example(self):
        assert np.allclose(inverse_distance_weights([[1.0, 3.0]]), [[0.75, 0.25]], atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_sum_to_one_and_order_by_closeness(self, distances):
        w = inverse_distance_weights([distances])[0]
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(w > 0)
        order = np.argsort(distances, kind="stable")
        assert np.all(np.diff(w[order]) <= 1e-15)  # nearer gets at least as much

    def test_zero_distance_takes_all_weight(self):
        assert np.array_equal(inverse_distance_weights([[0.0, 2.0]]), [[1.0, 0.0]])

    def test_multiple_zero_distances_share_uniformly(self):
        w = inverse_distance_weights([[0.0, 0.0, 5.0]])
        assert np.array_equal(w, [[0.5, 0.5, 0.0]])

    def test_invariant_to_scaling(self):
        d = np.array([[0.3, 1.7, 2.2, 9.0]])
        assert np.allclose(
            inverse_distance_weights(d), inverse_distance_weights(d * 1e3), atol=1e-12
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            inverse_distance_weights([[]])
        with pytest.raises(ValueError):
            inverse_distance_weights([[1.0, -0.5]])


class TestBuildRegion:
    def _fixture(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(size=(60, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.05 * rng.normal(size=60)
        ens = generate_ensemble(X, y, 7, seed=2)
        return X, y, ens, rng.uniform(size=3)

    def test_carries_neighbor_targets_and_predictions(self):
        X, y, ens, q = self._fixture()
        region = build_region(q[None], X, y, ens.predict_all(X), 6)
        assert region.k == 6
        assert region.n_members == 7
        assert np.array_equal(region.observed, y[region.neighbor_indices])
        direct = ens.predict_all(X[region.neighbor_indices[0]])
        assert np.array_equal(region.member_predictions[0], direct)
        assert region.d_weights[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_query_equal_to_training_row(self):
        X, y, ens, _ = self._fixture()
        region = build_region(X[4][None], X, y, ens.predict_all(X), 3)
        assert region.neighbor_indices[0, 0] == 4
        assert region.d_weights[0, 0] == 1.0  # zero-distance rule
