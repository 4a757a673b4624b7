"""CSV loading, min-max normalization, and fold splitting."""

import csv
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import DATA_DIR, write_csv
from drs import datasets
from drs.datasets import (
    Dataset,
    DatasetError,
    NormalizationParams,
    apply_minmax,
    apply_normalization,
    denormalize_targets,
    kfold_split,
    load_csv,
    normalize_minmax,
    read_numeric_csv,
)
from drs.rng import make_rng
from test_cli import extreme_predict_runs


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

    def test_a_first_line_of_floats_is_data_even_with_nan(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("nan,1,2\n1,2,3\n")
        with pytest.raises(DatasetError, match=r"non-finite cell 'nan' at row 1, column 1"):
            read_numeric_csv(p)

    def test_one_non_number_among_numbers_makes_the_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,x,3\n4,5,6\n")
        values, header = read_numeric_csv(p)
        assert header == ["1", "x", "3"]
        assert values.tolist() == [[4.0, 5.0, 6.0]]

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

    def test_cell_over_the_csv_field_limit(self, tmp_path):
        p = tmp_path / "long.csv"
        p.write_text("1,2,3\n\n4," + "9" * (csv.field_size_limit() + 1) + ",6\n")
        with pytest.raises(
            DatasetError, match=rf"^{re.escape(str(p))}: unreadable row 2: field larger than"
        ):
            read_numeric_csv(p)

    def test_nul_byte_names_the_file_and_row(self, tmp_path):
        # Python 3.11's csv module reads NUL as an ordinary character, so the
        # cell fails to parse; earlier versions raise csv.Error on the row.
        p = tmp_path / "nul.csv"
        p.write_bytes(b"a,b,y\n1,2,3\n4,5\x00,6\n")
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(p))}: .*\brow 3\b"):
            read_numeric_csv(p)

    def test_housing_shape(self):
        d = load_csv(DATA_DIR / "housing.csv")
        assert (d.n_instances, d.n_features) == (506, 13)
        assert d.features[0, 0] == pytest.approx(0.00632)
        assert d.targets[0] == pytest.approx(24.0)

    def test_loaded_arrays_hold_no_view_of_the_parsed_file(self):
        # A view of the parsed matrix would keep all of the file's numbers alive.
        d = load_csv(DATA_DIR / "housing.csv", target_column=3)
        for values in (d.features, d.targets):
            assert values.base is None and values.flags.c_contiguous


FORMATS = ["{!r}", "{:.3g}", "{:e}", " {!r} ", "{:.0f}"]
# Fragments of numeric CSV text and of what breaks it: signs, exponents,
# words float() reads as non-finite, quotes, NUL, a byte-order mark and
# bytes that are not UTF-8. The last four split numpy's reader from float():
# an underscore, an Arabic-Indic one, a lone CR and character 0x1c.
CSV_PIECES = [
    b"0", b"1", b"7", b".", b"-", b"+", b"e", b"E", b"308", b"1e309", b"nan", b"inf",
    b"x", b",", b" ", b"\n", b"\r\n", b'"', b"\x00", b"\xef\xbb\xbf", b"\xff", b"\xc3\xa9",
    b"_", b"\xd9\xa1", b"\r", b"\x1c",
]
ANY_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from(CSV_PIECES), max_size=40).map(b"".join),
)


@st.composite
def csv_files(draw):
    """Numeric CSV text: cells of finite floats written in several formats,
    an optional header, blank lines anywhere, an optional byte-order mark
    and either line ending. Returns the text, the data rows' cells and the
    header's cells (None without one)."""
    n_cols = draw(st.integers(1, 5))
    value = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    cell = st.builds(lambda fmt, v: fmt.format(v), st.sampled_from(FORMATS), value)
    rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), min_size=1, max_size=20))
    header = None
    if draw(st.booleans()):
        header = [f" c{j} " if draw(st.booleans()) else f"c{j}" for j in range(n_cols)]
    lines = [",".join(r) for r in ([header] if header else []) + rows]
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=4)):
        lines.insert(at, "")
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, rows, header


class TestStreamedParse:
    @settings(max_examples=100, deadline=None)
    @given(csv_files())
    def test_values_are_float_of_every_cell(self, tmp_path_factory, file):
        text, rows, header = file
        p = tmp_path_factory.mktemp("csv") / "f.csv"
        p.write_bytes(text.encode("utf-8"))
        values, names = read_numeric_csv(p)
        want = np.array([[float(c) for c in row] for row in rows])
        assert values.shape == want.shape
        assert values.tobytes() == want.tobytes()
        assert names == (None if header is None else [c.strip() for c in header])

    @settings(max_examples=200, deadline=None)
    @given(ANY_BYTES)
    def test_any_bytes_give_a_finite_matrix_or_a_dataset_error(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("csv") / "f.csv"
        p.write_bytes(data)
        try:
            values, _ = read_numeric_csv(p)
        except DatasetError as exc:
            assert str(p) in str(exc)
            return
        assert values.dtype == float and values.ndim == 2 and values.size
        assert np.isfinite(values).all()

    def test_peak_memory_stays_near_the_result(self, tmp_path):
        rng = np.random.default_rng(0)
        p = tmp_path / "q.csv"
        p.write_text("".join(
            ",".join(f"{v:.6g}" for v in row) + "\n" for row in rng.random((20_000, 13)) * 100
        ))
        tracemalloc.start()
        try:
            values, _ = read_numeric_csv(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.shape == (20_000, 13)
        # A list of every row's cells, or of their floats, would take over
        # ten times the 2.08 MB result.
        assert peak < 3 * values.nbytes


LIMIT = csv.field_size_limit()


class TestTwoParsers:
    """numpy's reader and the row-by-row parser: same bits, one set of messages."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(ANY_BYTES, csv_files().map(lambda file: file[0].encode("utf-8"))))
    def test_the_row_parser_agrees_wherever_numpy_reads_the_file(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("csv") / "f.csv"
        p.write_bytes(data)
        fast = datasets._read_plain(p)
        if fast is None:
            return
        values, header = datasets._read_rows(p)
        assert fast[0].shape == values.shape and fast[0].tobytes() == values.tobytes()
        assert fast[1] == header

    @pytest.mark.parametrize("text", [
        "a,b,y\n1,2,3\n\n4.5,-6e-3,7\n",
        "\ufeff\r\n1,2\r\n3,4\r\n",
        "0.1\n2\n",
    ])
    def test_well_formed_files_never_reach_the_row_parser(self, tmp_path, monkeypatch, text):
        p = tmp_path / "f.csv"
        p.write_bytes(text.encode("utf-8"))
        want = datasets._read_rows(p)

        def refuse(path):
            raise AssertionError("the row-by-row parser was called")

        monkeypatch.setattr(datasets, "_read_rows", refuse)
        values, header = read_numeric_csv(p)
        assert values.tobytes() == want[0].tobytes() and header == want[1]
        assert values.flags.writeable and values.flags.c_contiguous

    def test_a_nan_cell_reaches_the_row_parser(self, tmp_path, monkeypatch):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1,2\n3,nan\n")
        calls = []
        rows = datasets._read_rows
        monkeypatch.setattr(datasets, "_read_rows", lambda path: calls.append(path) or rows(path))
        with pytest.raises(DatasetError) as exc:
            read_numeric_csv(p)
        assert calls == [p]
        assert str(exc.value) == f"{p}: non-finite cell 'nan' at row 3, column 2"

    # Files on which numpy's reader and float() disagree, or which numpy's
    # reader handles apart: each must give the row-by-row parser's matrix and
    # header, or its message after the path. TestLoadCsv pins the
    # byte-order marks.
    @pytest.mark.parametrize("data, want", [
        (b"a,b\n1_000,2\n", ([[1000.0, 2.0]], ["a", "b"])),
        ("\u0661,\u0662\n3,4\n".encode(), ([[1.0, 2.0], [3.0, 4.0]], None)),
        (b"a,b\n1,nan\n", "non-finite cell 'nan' at row 2, column 2"),
        (b"1,2\n-Infinity,3\n", "non-finite cell '-Infinity' at row 2, column 1"),
        (b"a,b,y\n", "no data rows after header"),
        (b"a,b,y\n\n\r\n", "no data rows after header"),
        (b"a,b,c,y\n1,2,3\n4,5,6\n", "ragged row 2: expected 4 cells, found 3"),
        (b"a,b\n1,2,3\n4,5,6\n", "ragged row 2: expected 2 cells, found 3"),
        (b"a,b\r\n1,2\r\n3,4\r\n", ([[1.0, 2.0], [3.0, 4.0]], ["a", "b"])),
        (b"1,2\r3,4\r", ([[1.0, 2.0], [3.0, 4.0]], None)),
        (b'"a","b"\n"1",2\n3," 4 "\n', ([[1.0, 2.0], [3.0, 4.0]], ["a", "b"])),
        (b'1,2\n"\n\n3",4\n', ([[1.0, 2.0], [3.0, 4.0]], None)),
        (b"1,2\n3\x1c,4\n", "non-numeric cell '3\\x1c' at row 2, column 1"),
        pytest.param(
            b"a,b,y\n1,2,3\n4,5\x00,6\n", "non-numeric cell '5\\x00' at row 3, column 2",
            marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="csv reads NUL from 3.11"),
        ),
        (b"1,2\n" + b"0" * LIMIT + b"3,4\n",
         f"unreadable row 2: field larger than field limit ({LIMIT})"),
        (b'1,2\n"' + b"\n" * LIMIT + b'3",4\n',
         f"unreadable row 2: field larger than field limit ({LIMIT})"),
    ])
    def test_where_the_parsers_differ_the_row_parser_answers(self, tmp_path, data, want):
        p = tmp_path / "f.csv"
        p.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(want, str):
                with pytest.raises(DatasetError) as exc:
                    read_numeric_csv(p)
                assert str(exc.value) == f"{p}: {want}"
            else:
                values, header = read_numeric_csv(p)
                assert values.tolist() == want[0] and header == want[1]


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

    @settings(max_examples=200, deadline=None)
    @given(extreme_predict_runs(), st.booleans(), st.data())
    def test_in_place_map_equals_the_whole_matrix_map(self, run, whole, data):
        # Training columns and query rows from 1e-300 to 1.7e308 in magnitude
        # (``whole`` maps the training rows, else the query rows), with up to
        # two cells replaced by NaN, an infinity, or a value about 2^e column
        # ranges from the column's minimum, which maps to about 2^e and so
        # overflows float64 from e = 1024 on.
        train, query, _ = run
        params = NormalizationParams(train.min(axis=0), train.max(axis=0))
        with np.errstate(over="ignore"):
            assume(np.isfinite(params.col_range).all())  # else normalize_minmax refuses
        m = train.copy() if whole else query.copy()
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, m.shape[0] - 1))
            j = data.draw(st.integers(0, m.shape[1] - 1))
            with np.errstate(over="ignore"):
                far = np.ldexp(params.col_range[j], data.draw(st.integers(1016, 1030)))
            lo = params.col_min[j]
            m[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, lo + far, lo - far]))
        before = m.copy()
        # Every cell mapped, then every cell checked, in row-major order.
        rng_ = params.col_range[: m.shape[1]]
        with np.errstate(over="ignore"):
            expected = (m - params.col_min[: m.shape[1]]) / np.where(rng_ > 0, rng_, 1.0)
        expected[:, rng_ == 0] = 0.0
        bad = np.argwhere(~np.isfinite(expected))
        try:
            mapped = apply_minmax(m, params)
        except DatasetError as exc:
            assert bad.size
            assert str(exc).startswith(f"row {bad[0][0] + 1}, column {bad[0][1] + 1}: ")
            assert m.tobytes() == before.tobytes()
        else:
            assert not bad.size
            assert mapped is m
            assert m.tobytes() == expected.tobytes()

    def test_an_overflow_names_the_first_cell_in_row_major_order(self):
        top = np.finfo(float).max / 2  # maps to float64's largest value
        over = np.nextafter(top, np.inf)  # maps past it
        params = NormalizationParams([0.0, 0.0], [0.5, 0.5])
        m = np.array([[top, 0.25], [0.0, over], [-over, -top]])
        before = m.copy()
        with pytest.raises(DatasetError, match=r"^row 2, column 2: 8\.98847e\+307 lies so far"):
            apply_minmax(m, params)
        assert m.tobytes() == before.tobytes()
        m[1, 1] = m[2, 0] = top
        assert apply_minmax(m, params) is m
        assert m[:, 1].tolist() == [0.5, np.finfo(float).max, -np.finfo(float).max]

    def test_nan_or_inf_in_a_constant_column_maps_to_zero(self):
        params = NormalizationParams([1.0, 0.0], [1.0, 2.0])
        m = np.array([[np.nan, 1.0], [np.inf, 2.0], [-np.inf, 0.0]])
        assert apply_minmax(m, params) is m
        assert m.tolist() == [[0.0, 0.5], [0.0, 1.0], [0.0, 0.0]]
        m[1, 1] = np.nan
        with pytest.raises(DatasetError, match=r"^row 2, column 2: nan lies so far outside"):
            apply_minmax(m, params)

    def test_a_matrix_of_ints_is_converted_not_overwritten(self):
        params = NormalizationParams([0.0, 1.0], [4.0, 1.0])
        m = np.array([[1, 1], [2, 1]])
        assert apply_minmax(m, params).tolist() == [[0.25, 0.0], [0.5, 0.0]]
        assert m.tolist() == [[1, 1], [2, 1]]

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

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=2, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_each_fold_tests_a_sorted_run_of_the_seeded_permutation(self, data, n, seed):
        """The deal behind every golden fold: the seeded permutation cut into
        runs whose first ``n % folds`` are one row longer."""
        folds = data.draw(st.integers(min_value=2, max_value=min(n, 12)), label="folds")
        perm = make_rng(seed).permutation(n).tolist()
        splits = kfold_split(n, folds, seed)
        assert [s.fold_id for s in splits] == list(range(folds))
        start = 0
        for f, split in enumerate(splits):
            size = n // folds + (f < n % folds)
            run = perm[start : start + size]
            start += size
            assert split.test_indices.tolist() == sorted(run)
            assert split.train_indices.tolist() == sorted(set(range(n)) - set(run))
        assert start == n

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
