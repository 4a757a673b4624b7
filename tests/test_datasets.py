"""CSV loading, min-max normalization, and fold splitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR, write_csv
from drs.datasets import (
    Dataset,
    DatasetError,
    apply_normalization,
    denormalize_targets,
    kfold_split,
    load_csv,
    normalize_minmax,
    read_numeric_csv,
)


class TestLoadCsv:
    def test_headerless_numeric_file(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        d = load_csv(p)
        assert d.n_instances == 2
        assert d.n_features == 2
        assert np.array_equal(d.features, [[1.0, 2.0], [4.0, 5.0]])
        assert np.array_equal(d.targets, [3.0, 6.0])
        assert d.name == "plain"

    def test_header_is_sniffed_and_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b,y\n1,2,3\n")
        d = load_csv(p)
        assert d.n_instances == 1

    def test_target_by_name(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,y,b\n1,9,2\n")
        d = load_csv(p, target_column="y")
        assert d.targets[0] == 9.0
        assert np.array_equal(d.features[0], [1.0, 2.0])

    def test_target_by_negative_index(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("1,9,2\n")
        d = load_csv(p, target_column=-2)
        assert d.targets[0] == 9.0

    def test_target_name_without_header_rejected(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("1,2\n")
        with pytest.raises(DatasetError, match="no header"):
            load_csv(p, target_column="y")

    def test_unknown_target_name_lists_columns(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DatasetError, match="no column named"):
            load_csv(p, target_column="nope")

    def test_target_index_out_of_range(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("1,2\n")
        with pytest.raises(DatasetError, match="out of range"):
            load_csv(p, target_column=5)

    def test_ragged_row_reported_with_file_position(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(DatasetError, match="row 3"):
            load_csv(p)

    def test_non_numeric_cell_reported_with_position(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2,3\n1,oops,3\n")
        with pytest.raises(DatasetError, match="row 2, column 2"):
            load_csv(p)

    def test_non_finite_cell_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2,nan\n")
        with pytest.raises(DatasetError, match="non-finite"):
            load_csv(p)

    def test_first_bad_cell_in_row_order_is_named(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2,3\n1,inf,abc\n")
        with pytest.raises(DatasetError, match=r"non-finite cell 'inf' at row 2, column 2"):
            read_numeric_csv(p)

    def test_earlier_row_beats_later_row(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("x,y,z\n1,2,3\n4,-inf,6\n7,abc,9\n")
        with pytest.raises(DatasetError, match=r"non-finite cell '-inf' at row 3, column 2"):
            read_numeric_csv(p)

    def test_values_parse_exactly(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("a,b\n0.1, 2e-3\n-7,1e300\n")
        values, header = read_numeric_csv(p)
        assert header == ["a", "b"]
        assert values.dtype == float and values.shape == (2, 2)
        assert values.tolist() == [[0.1, 2e-3], [-7.0, 1e300]]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            load_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(DatasetError, match="empty"):
            load_csv(p)

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("1\n2\n")
        with pytest.raises(DatasetError, match="two columns"):
            load_csv(p)

    def test_byte_order_mark_before_a_data_row(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_text("\ufeff1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n", encoding="utf-8")
        values, header = read_numeric_csv(p)
        assert header is None
        assert values.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]

    def test_byte_order_mark_before_a_header(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_text("\ufeffy,a,b\n9,1,2\n", encoding="utf-8")
        d = load_csv(p, target_column="y")
        assert d.targets.tolist() == [9.0]
        assert d.features.tolist() == [[1.0, 2.0]]

    def test_housing_shape(self):
        d = load_csv(DATA_DIR / "housing.csv")
        assert (d.n_instances, d.n_features) == (506, 13)
        assert d.features[0, 0] == pytest.approx(0.00632)
        assert d.targets[0] == pytest.approx(24.0)


class TestDataset:
    def test_arrays_become_read_only_floats(self):
        d = Dataset(np.array([[1, 2]]), np.array([3]))
        assert d.features.dtype == float
        with pytest.raises(ValueError):
            d.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            d.targets[0] = 9.0

    def test_subset_picks_rows(self):
        d = Dataset(np.arange(8.0).reshape(4, 2), np.arange(4.0))
        s = d.subset([2, 0])
        assert np.array_equal(s.features, [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(s.targets, [2.0, 0.0])


class TestNormalization:
    def test_columns_land_in_unit_interval(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(0, 50, (30, 3)), rng.normal(5, 9, 30))
        norm, params = normalize_minmax(d)
        for col in norm.features.T:
            assert col.min() == 0.0 and col.max() == 1.0
        assert norm.targets.min() == 0.0 and norm.targets.max() == 1.0
        assert params.col_min.shape == (4,)

    def test_constant_column_maps_to_zero(self):
        d = Dataset(np.array([[7.0, 1.0], [7.0, 2.0]]), np.array([1.0, 2.0]))
        norm, _ = normalize_minmax(d)
        assert np.array_equal(norm.features[:, 0], [0.0, 0.0])

    def test_round_trip_restores_values(self):
        rng = np.random.default_rng(1)
        d = Dataset(rng.normal(0, 1e4, (25, 4)), rng.normal(-3e3, 10, 25))
        norm, params = normalize_minmax(d)
        back = denormalize_targets(norm.targets, params)
        assert np.allclose(back, d.targets, atol=1e-8)

    def test_apply_normalization_uses_stored_bounds(self):
        train = Dataset(np.array([[0.0], [10.0]]), np.array([0.0, 100.0]))
        _, params = normalize_minmax(train)
        other = Dataset(np.array([[5.0], [20.0]]), np.array([50.0, 0.0]))
        out = apply_normalization(other, params)
        assert np.allclose(out.features[:, 0], [0.5, 2.0])  # out-of-range allowed
        assert np.allclose(out.targets, [0.5, 0.0])

    def test_denormalize_targets_alone(self):
        train = Dataset(np.array([[0.0], [1.0]]), np.array([10.0, 30.0]))
        _, params = normalize_minmax(train)
        assert np.allclose(denormalize_targets([0.0, 0.5, 1.0], params), [10.0, 20.0, 30.0])


class TestKfold:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=150),
        folds=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_folds_partition_all_rows(self, n, folds, seed):
        if folds > n:
            return
        splits = kfold_split(n, folds, seed)
        assert len(splits) == folds
        all_test = np.concatenate([s.test_indices for s in splits])
        assert np.array_equal(np.sort(all_test), np.arange(n))
        sizes = [len(s.test_indices) for s in splits]
        assert max(sizes) - min(sizes) <= 1
        for s in splits:
            combined = np.sort(np.concatenate([s.train_indices, s.test_indices]))
            assert np.array_equal(combined, np.arange(n))

    def test_deterministic_per_seed(self):
        a = kfold_split(50, 5, 9)
        b = kfold_split(50, 5, 9)
        c = kfold_split(50, 5, 10)
        assert all(np.array_equal(x.test_indices, y.test_indices) for x, y in zip(a, b))
        assert any(not np.array_equal(x.test_indices, y.test_indices) for x, y in zip(a, c))

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(3, 4, 0)
        with pytest.raises(ValueError):
            kfold_split(10, 1, 0)
