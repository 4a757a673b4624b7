"""Neighbor search, inverse-distance weights, and region assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
            idx, dist = find_neighbors(x, ref, k)
            oidx, odist = oracle_neighbors(x, ref, k)
            assert np.allclose(dist, odist, atol=1e-9)
            assert list(idx) == oidx

    def test_duplicate_rows_tie_to_lower_index(self):
        ref = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        idx, dist = find_neighbors(np.array([1.0, 1.0]), ref, 3)
        assert list(idx) == [0, 2, 3]
        assert np.allclose(dist, [0.0, 0.0, 0.0])

    def test_distances_ascending(self):
        rng = np.random.default_rng(5)
        ref = rng.normal(size=(30, 3))
        _, dist = find_neighbors(rng.normal(size=3), ref, 30)
        assert np.all(np.diff(dist) >= 0)

    def test_k_bounds(self):
        ref = np.zeros((3, 2))
        with pytest.raises(ValueError, match="k"):
            find_neighbors(np.zeros(2), ref, 0)
        with pytest.raises(ValueError, match="exceeds"):
            find_neighbors(np.zeros(2), ref, 4)

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
            one_idx, one_dist = find_neighbors(x, ref, k)
            assert one_idx.tolist() == want.tolist()
            assert one_dist.tobytes() == row_dist.tobytes()

    def test_tied_kth_distance_in_a_block(self):
        ref = np.array([[1.0], [3.0], [0.0], [3.0], [-1.0]])
        block = np.array([[2.0], [0.0], [1.0]])
        idx, dist = find_neighbors(block, ref, 2)
        # row 0: rows 0, 1 and 3 all sit at distance 1; row 2: rows 0 (0) then 2 (1).
        assert idx.tolist() == [[0, 1], [2, 0], [0, 2]]
        assert dist.tolist() == [[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="features"):
            find_neighbors(np.zeros(3), np.zeros((5, 2)), 1)


class TestInverseDistanceWeights:
    def test_worked_example(self):
        assert np.allclose(inverse_distance_weights([1.0, 3.0]), [0.75, 0.25], atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_sum_to_one_and_order_by_closeness(self, distances):
        w = inverse_distance_weights(distances)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(w > 0)
        order = np.argsort(distances, kind="stable")
        assert np.all(np.diff(w[order]) <= 1e-15)  # nearer gets at least as much

    def test_zero_distance_takes_all_weight(self):
        assert np.array_equal(inverse_distance_weights([0.0, 2.0]), [1.0, 0.0])

    def test_multiple_zero_distances_share_uniformly(self):
        w = inverse_distance_weights([0.0, 0.0, 5.0])
        assert np.array_equal(w, [0.5, 0.5, 0.0])

    def test_invariant_to_scaling(self):
        d = np.array([0.3, 1.7, 2.2, 9.0])
        assert np.allclose(
            inverse_distance_weights(d), inverse_distance_weights(d * 1e3), atol=1e-12
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            inverse_distance_weights([])
        with pytest.raises(ValueError):
            inverse_distance_weights([1.0, -0.5])


class TestBuildRegion:
    def _fixture(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(size=(60, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.05 * rng.normal(size=60)
        ens = generate_ensemble(X, y, 7, seed=2)
        return X, y, ens, rng.uniform(size=3)

    def test_carries_neighbor_targets_and_predictions(self):
        X, y, ens, q = self._fixture()
        region = build_region(q, X, y, ens, 6)
        assert region.k == 6
        assert region.n_members == 7
        assert np.array_equal(region.observed, y[region.neighbor_indices])
        direct = ens.predict_all(X[region.neighbor_indices])
        assert np.array_equal(region.member_predictions, direct)
        assert region.d_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_precomputed_predictions_give_identical_region(self):
        X, y, ens, q = self._fixture()
        all_preds = ens.predict_all(X)
        a = build_region(q, X, y, ens, 5)
        b = build_region(q, X, y, ens, 5, reference_predictions=all_preds)
        assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
        assert np.array_equal(a.member_predictions, b.member_predictions)
        assert np.array_equal(a.d_weights, b.d_weights)

    def test_query_equal_to_training_row(self):
        X, y, ens, _ = self._fixture()
        region = build_region(X[4], X, y, ens, 3)
        assert region.neighbor_indices[0] == 4
        assert region.d_weights[0] == 1.0  # zero-distance rule
