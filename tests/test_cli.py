"""Command line interface: argument parsing, exit codes, and end-to-end runs."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR, synthetic_dataset, write_csv
from drs.bench import ALGORITHMS, RunConfig
from drs import cli
from drs.cli import CliArgumentError, main, parse_algorithms, parse_measures
from drs.datasets import load_csv
from drs.measures import MEASURE_IDS
from drs.selection import MemberWeights

BENCH_FAST = [
    "--folds", "3", "--reps", "2", "--members", "6", "--k", "3",
    "--algo", "mean,ds", "--measures", "m3,m7",
]


def src_env():
    """The environment for a fresh interpreter that imports drs from src/."""
    src = str(DATA_DIR.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


@pytest.fixture
def train_csv(tmp_path):
    rng = np.random.default_rng(7)
    X, y = synthetic_dataset(rng, 36, 3)
    return write_csv(tmp_path / "synth.csv", X, y)


@pytest.fixture
def query_csv(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.uniform(-1.0, 1.0, size=(4, 3))
    rows = [",".join(f"{float(v)!r}" for v in row) for row in X]
    path = tmp_path / "query.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def tiny_csv(tmp_path):
    """The header and first 5 rows of housing.csv: fewer rows than the default --k."""
    path = tmp_path / "tiny.csv"
    path.write_text("".join((DATA_DIR / "housing.csv").read_text().splitlines(True)[:6]))
    return path


class TestParseMeasures:
    def test_full_range(self):
        assert parse_measures("m1..m8") == tuple(f"m{i}" for i in range(1, 9))

    def test_mixed_list_and_range(self):
        assert parse_measures("m2,m5..m7") == ("m2", "m5", "m6", "m7")

    def test_all_keyword(self):
        assert parse_measures("all") == tuple(f"m{i}" for i in range(1, 9))

    def test_deduplicates_preserving_order(self):
        assert parse_measures("m3,M3,m1,m3") == ("m3", "m1")

    def test_unknown_measure_rejected(self):
        with pytest.raises(CliArgumentError, match="m9"):
            parse_measures("m9")

    def test_unknown_measure_message_lists_the_measures(self):
        with pytest.raises(CliArgumentError, match="expected one of m1, m2, .*, m8$"):
            parse_measures("m2,m0")

    def test_backwards_range_rejected(self):
        with pytest.raises(CliArgumentError, match="empty measure range"):
            parse_measures("m5..m2")

    def test_empty_spec_rejected(self):
        with pytest.raises(CliArgumentError, match="no measures"):
            parse_measures(" , ")


class TestParseAlgorithms:
    def test_list_is_case_insensitive(self):
        assert parse_algorithms("median,DW") == ("median", "dw")

    def test_all_keyword(self):
        assert parse_algorithms("all") == (
            "single", "mean", "median", "ds", "dw", "dws",
        )

    def test_unknown_rejected(self):
        with pytest.raises(CliArgumentError, match="voting"):
            parse_algorithms("voting")

    def test_range(self):
        assert parse_algorithms("mean..dw") == ("mean", "median", "ds", "dw")

    def test_backwards_range_rejected(self):
        with pytest.raises(CliArgumentError, match="empty algorithm range"):
            parse_algorithms("dw..mean")

    def test_empty_spec_rejected(self):
        with pytest.raises(CliArgumentError, match="no algorithms"):
            parse_algorithms(" , ")


class TestExitCodes:
    def test_bad_k_names_the_flag(self, train_csv, capsys):
        code = main(["bench", "--data", str(train_csv), "--k", "0"])
        assert code == 2
        assert "--k must be >= 1" in capsys.readouterr().err

    def test_missing_data_flag(self, capsys):
        assert main(["bench"]) == 2
        assert "--data is required" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        code = main(["bench", "--data", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_ragged_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        assert main(["bench", "--data", str(path)] + BENCH_FAST) == 1
        assert "ragged row 2" in capsys.readouterr().err

    def test_data_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,b,y\n1,2,3\ncaf\u00e9,1,2\n".encode("latin-1"))
        assert main(["bench", "--data", str(path)] + BENCH_FAST) == 1
        err = capsys.readouterr().err
        assert f"cannot read {path}: not UTF-8 text (byte 0xe9" in err

    @pytest.mark.parametrize("command", ["bench", "predict"])
    def test_cell_over_the_csv_field_limit(self, command, train_csv, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("0.1,0.2,0.3\n0.4," + "9" * 200_000 + ",0.6\n")
        if command == "bench":
            argv = ["bench", "--data", str(path), "--out", str(tmp_path / "out")] + BENCH_FAST
        else:
            argv = ["predict", "--train", str(train_csv), "--query", str(path),
                    "--members", "4", "--k", "3"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{path}: unreadable row 2: field larger than field limit" in err

    def test_bad_max_depth(self, train_csv, capsys):
        code = main(
            ["bench", "--data", str(train_csv), "--max-depth", "deep"] + BENCH_FAST
        )
        assert code == 2
        assert "max_depth" in capsys.readouterr().err

    def test_unknown_subcommand_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            main(["reticulate"])

    def test_a_closed_output_pipe_prints_nothing(self, tmp_path):
        # 5,000 rows of output fill the pipe, so the reader closes it while
        # drs is still writing.
        housing = DATA_DIR / "housing.csv"
        rows = np.resize(load_csv(housing).features, (5000, 13)).tolist()
        query = tmp_path / "query.csv"
        query.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
        proc = subprocess.Popen(
            [sys.executable, "-m", "drs", "predict", "--train", str(housing), "--query", str(query),
             "--members", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
        )
        assert proc.stdout.readline().startswith(b"query 0: ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err == b""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("jobs", [1, 2], ids=["jobs1", "jobs2"])
    def test_non_finite_mse_fails_the_run(self, jobs, tmp_path, capsys):
        # With --jobs 2 the DatasetError is raised in a worker process.
        rng = np.random.default_rng(11)
        X, y = synthetic_dataset(rng, 80, 3)
        data = write_csv(tmp_path / "huge.csv", X, (2.0 + y) * 1e160)
        out = tmp_path / "out"
        code = main(
            ["bench", "--data", str(data), "--normalize", "none", "--out", str(out),
             "--jobs", str(jobs)] + BENCH_FAST
        )
        assert code == 1
        err = capsys.readouterr().err
        assert re.search(r"targets reach \|y\| = \d\.\d+e\+160", err)
        assert "--normalize global" in err
        assert not (out / "results.csv").exists()

    def test_fold_targets_that_overflow_when_scaled_give_one_message(self, tmp_path, capsys):
        # Fold 2 trains on targets that span about 2e-155 and tests on -1.0,
        # which scales to about -1e155 and squares to inf in the fold MSE.
        data = tmp_path / "t.csv"
        data.write_text(
            "0.6666666666666666,3.333333333333333e-156\n0.0,-6.666666666666667e-156\n"
            "-0.3333333333333333,-1e-155\n-1.0,-1e-155\n"
            "-0.6666666666666666,6.666666666666667e-156\n0.3333333333333333,-1.0\n"
        )
        code = main(
            ["bench", "--data", str(data), "--folds", "2", "--reps", "1", "--k", "1",
             "--members", "1", "--algo", "single", "--normalize", "fold",
             "--min-parent-size", "2", "--min-leaf-size", "1", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert re.fullmatch(r"error: t: single has a non-finite MSE on fold \d of 2; .*\n",
                            capsys.readouterr().err)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, jobs", [
        pytest.param("bench", 1, id="bench"),
        pytest.param("bench", 2, id="bench-jobs2"),
        pytest.param("predict", None, id="predict"),
    ])
    def test_overflowing_targets_fail_before_fitting(self, command, jobs, tmp_path, capsys):
        rng = np.random.default_rng(11)
        X, y = synthetic_dataset(rng, 80, 3)
        data = write_csv(tmp_path / "huge.csv", X, (2.0 + y) * 1e160)
        out = tmp_path / "out"
        if command == "bench":
            argv = ["bench", "--data", str(data), "--out", str(out),
                    "--jobs", str(jobs)] + BENCH_FAST
        else:
            query = write_csv(tmp_path / "query.csv", X[:4, :2], X[:4, 2])
            argv = ["predict", "--train", str(data), "--query", str(query),
                    "--algo", "dw", "--members", "5", "--k", "3"]
        code = main(argv + ["--normalize", "none"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "try --normalize global" in captured.err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("command", ["bench", "predict"])
    def test_features_whose_thresholds_overflow_fail_before_fitting(
        self, command, tmp_path, capsys
    ):
        # Two values of column 2 near -1.6e308 have a midpoint whose sum,
        # a + b, overflows float64.
        rng = np.random.default_rng(11)
        X, y = synthetic_dataset(rng, 40, 3)
        X[:, 1] = -1.6e308 + np.abs(X[:, 1]) * 1e307
        data = write_csv(tmp_path / "far.csv", X, y)
        out = tmp_path / "out"
        if command == "bench":
            argv = ["bench", "--data", str(data), "--out", str(out)] + BENCH_FAST
        else:
            query = write_csv(tmp_path / "query.csv", X[:3, :2], X[:3, 2])
            argv = ["predict", "--train", str(data), "--query", str(query),
                    "--algo", "single"]
        assert main(argv + ["--normalize", "none"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(
            r"features reach \|x\| = 1\.5\d+e\+308; the split thresholds overflow "
            r"float64, try --normalize global", captured.err
        )
        assert not (out / "results.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["predict", "inspect"])
    def test_overflowing_feature_distances_fail(self, command, tmp_path, capsys):
        rng = np.random.default_rng(11)
        X, y = synthetic_dataset(rng, 40, 3)
        data = write_csv(tmp_path / "huge.csv", X * 1e155, y)
        if command == "predict":
            query = write_csv(tmp_path / "query.csv", X[:3, :2] * 1.01e155, X[:3, 2] * 1.01e155)
            argv = ["predict", "--train", str(data), "--query", str(query), "--algo", "dws"]
        else:
            argv = ["inspect", "--data", str(data), "--row", "0"]
        code = main(argv + ["--members", "5", "--k", "3", "--normalize", "none"])
        assert code == 1
        captured = capsys.readouterr()
        assert "query" not in captured.out
        assert re.search(
            r"features reach \|x\| = \d\.\d+e\+15\d; the neighbour distances overflow "
            r"float64 \(--normalize global scales", captured.err
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("normalize", ["global", "none"])
    def test_a_query_far_outside_the_training_range(self, normalize, tmp_path, capsys):
        # Column 0 spans 1e-200, so global scaling takes the query cell 1e-40
        # to 1e160, whose squared distance overflows; unscaled, it does not.
        data = write_csv(tmp_path / "train.csv", [[1e-200], [0.0]], [1.0, 2.0])
        query = tmp_path / "query.csv"
        query.write_text("1e-40\n")
        code = main(["predict", "--train", str(data), "--query", str(query), "--k", "1",
                     "--members", "2", "--algo", "ds", "--normalize", normalize])
        captured = capsys.readouterr()
        if normalize == "none":
            assert code == 0
            assert captured.out == "query 0: 1.500000  (m3: selected member 0)\n"
            return
        assert code == 1
        assert captured.out == ""
        assert "try --normalize global" not in captured.err
        assert re.search(
            r"features reach \|x\| = 1e\+160; the neighbour distances overflow float64 "
            r"\(--normalize global scales the training features, but a query far outside "
            r"their range overflows even after normalisation\)", captured.err
        )

    @pytest.mark.parametrize("command", ["bench", "predict", "inspect"])
    def test_help_shows_the_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "region-of-competence size (default 10)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["bench", "predict"])
    def test_m1_with_one_neighbor_fails_before_fitting(
        self, command, train_csv, query_csv, monkeypatch, capsys
    ):
        def too_late(*args, **kwargs):
            raise AssertionError("the check came after loading or fitting")

        monkeypatch.setattr("drs.bench.generate_ensemble", too_late)
        monkeypatch.setattr("drs.cli.generate_ensemble", too_late)
        if command == "bench":
            argv = ["bench", "--data", str(train_csv), "--algo", "ds", "--measures", "m1"]
        else:
            monkeypatch.setattr("drs.cli.load_csv", too_late)
            argv = ["predict", "--train", str(train_csv), "--query", str(query_csv),
                    "--measure", "m1"]
        assert main(argv + ["--k", "1", "--members", "4"]) == 2
        assert "m1 needs at least 2 neighbors" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["bench", "predict"])
    def test_overflowing_column_range_fails(self, command, tmp_path, capsys):
        rng = np.random.default_rng(11)
        X, y = synthetic_dataset(rng, 40, 3)
        X[:, 1] = np.where(np.arange(40) % 2, 1.5e308, -1.5e308) * np.abs(X[:, 1])
        data = write_csv(tmp_path / "wide.csv", X, y)
        out = tmp_path / "out"
        if command == "bench":
            argv = ["bench", "--data", str(data), "--out", str(out)] + BENCH_FAST
        else:
            query = write_csv(tmp_path / "query.csv", X[:3, :2], X[:3, 2])
            argv = ["predict", "--train", str(data), "--query", str(query),
                    "--members", "4", "--k", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(
            r"wide: column 2 runs from -1\.\d+e\+308 to 1\.\d+e\+308, a range that "
            r"overflows float64", captured.err
        )
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("command", ["predict", "inspect"])
    def test_a_row_that_overflows_when_scaled_fails(self, command, tmp_path, capsys):
        # Training column 2 spans 2e-109; row 2 of the query file (or the
        # held-out row) lies 1e200 from it, so its scaled value overflows.
        train = np.array([[-3.0, -2e-109, 2.0], [0.0, -1e-109, -3.0], [1.0, 0.0, -2.0]])
        if command == "predict":
            data = write_csv(tmp_path / "train.csv", train[:, :2], train[:, 2])
            query = write_csv(tmp_path / "query.csv", [[2.0], [-3.0]], [-2e-109, -1e200])
            argv = ["predict", "--train", str(data), "--query", str(query), "--k", "1"]
        else:
            rows = np.vstack([train, [[1.0, -1e200, 0.5]]])
            data = write_csv(tmp_path / "train.csv", rows[:, :2], rows[:, 2])
            argv = ["inspect", "--data", str(data), "--row", "3", "--k", "2"]
        assert main(argv + ["--members", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(
            r"row \d, column 2: -1e\+200 lies so far outside the column's range, "
            r"-2e-109 to 0, that min-max scaling overflows float64; try --normalize none",
            captured.err,
        )

    def test_k_exceeding_training_fold(self, train_csv, capsys):
        code = main(
            ["bench", "--data", str(train_csv), "--k", "30",
             "--folds", "3", "--reps", "1", "--members", "4"]
        )
        assert code == 2
        assert "smallest training fold" in capsys.readouterr().err

    def test_k_exceeding_training_fold_starts_no_worker(self, train_csv, capsys, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        code = main(
            ["bench", "--data", str(train_csv), "--k", "30",
             "--folds", "3", "--reps", "1", "--members", "4", "--jobs", "2"]
        )
        assert code == 2
        assert "smallest training fold" in capsys.readouterr().err

    def test_k_is_not_checked_when_no_algorithm_uses_neighbours(self, tiny_csv, tmp_path,
                                                                capsys):
        # The default k (10) exceeds every 4-row training fold, but mean and
        # single take no neighbours.
        out = tmp_path / "out"
        code = main(
            ["bench", "--data", str(tiny_csv), "--algo", "mean,single", "--folds", "5",
             "--reps", "1", "--members", "3", "--out", str(out)]
        )
        assert code == 0
        assert (out / "results.csv").read_text().count("tiny,") == 2

    def test_folds_beyond_a_dataset_name_it(self, tiny_csv, tmp_path, capsys):
        code = main(
            ["bench", "--data", str(DATA_DIR / "housing.csv"), "--data", str(tiny_csv),
             "--algo", "mean", "--folds", "9", "--reps", "1", "--members", "2",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "folds (9) exceeds instance count (5) of dataset 'tiny'" in err


@st.composite
def extreme_predict_runs(draw):
    """``drs predict`` arguments over a training file of 3 to 14 rows whose
    cells range from 1e-300 to 1.7e308 in magnitude: each column holds
    multiples of one magnitude, and up to four cells take one of their own.
    The three query rows are drawn the same way."""
    n = draw(st.integers(3, 14))
    d = draw(st.integers(1, 3))
    magnitude = st.builds(lambda e: 10.0 ** e, st.floats(-300.0, 308.23))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.integers(-3, 4, size=(n + 3, d + 1)) / 3 * np.array(draw(
        st.lists(magnitude, min_size=d + 1, max_size=d + 1)
    ))
    for _ in range(draw(st.integers(0, 4))):
        i, j = rng.integers(0, n + 3), rng.integers(0, d + 1)
        cells[i, j] = draw(st.sampled_from([-1.0, 1.0])) * draw(magnitude)
    argv = [
        "--algo", draw(st.sampled_from(ALGORITHMS)),
        "--measure", draw(st.sampled_from(MEASURE_IDS)),
        "--members", str(draw(st.integers(1, 4))),
        "--k", str(draw(st.integers(1, n))),
        "--min-parent-size", "2", "--min-leaf-size", "1",
    ]
    return cells[:n], cells[n:, :d], argv


@st.composite
def extreme_inspect_runs(draw):
    """``drs inspect`` arguments over ``extreme_predict_runs``' training file:
    a drawn held-out row and ``--k`` from 1 to n - 1."""
    train, _, flags = draw(extreme_predict_runs())
    n = len(train)
    argv = [
        "--normalize", draw(st.sampled_from(("global", "none"))),
        "--row", str(draw(st.integers(0, n - 1))),
        "--k", str(draw(st.integers(1, n - 1))),
        "--members", flags[flags.index("--members") + 1],
        "--min-parent-size", "2", "--min-leaf-size", "1",
    ]
    return train, argv


@st.composite
def extreme_bench_runs(draw):
    """``drs bench`` arguments over ``extreme_predict_runs``' training file:
    every normalisation, 2 to min(n, 4) folds, one replication and k 1 or 2."""
    train, _, flags = draw(extreme_predict_runs())
    argv = [
        "--normalize", draw(st.sampled_from(("global", "fold", "none"))),
        "--folds", str(draw(st.integers(2, min(len(train), 4)))),
        "--reps", "1", "--k", str(draw(st.integers(1, 2))), "--measures", "m2..m8",
        "--scale", "raw",
        "--members", flags[flags.index("--members") + 1],
        "--min-parent-size", "2", "--min-leaf-size", "1",
    ]
    return train, argv


NUMBER = re.compile(r"[-+]?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|\b(?:nan|inf)\b)", re.IGNORECASE)


def all_finite(text) -> bool:
    """Whether every number printed in ``text`` is finite."""
    return all(math.isfinite(float(token)) for token in NUMBER.findall(text))


def assert_one_error_line(code, err):
    assert code in (1, 2)
    assert re.fullmatch(r"error: \S.*\n", err)


class TestExtremeInputs:
    @settings(max_examples=100, deadline=None)
    @given(extreme_predict_runs(), st.sampled_from(("global", "none")))
    def test_predict_gives_finite_values_or_fails_with_a_message(
        self, tmp_path_factory, run, normalize
    ):
        train, query, flags = run
        workdir = tmp_path_factory.mktemp("extreme")
        data = write_csv(workdir / "train.csv", train[:, :-1], train[:, -1])
        query_csv = workdir / "query.csv"
        query_csv.write_text("".join(",".join(map(repr, row)) + "\n" for row in query.tolist()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["predict", "--train", str(data), "--query", str(query_csv),
                         "--normalize", normalize, *flags])
        if code == 0:
            values = [line.split()[2] for line in out.getvalue().splitlines()]
            assert len(values) == len(query)
            assert all(math.isfinite(float(v)) for v in values)
        else:
            assert_one_error_line(code, err.getvalue())

    @settings(max_examples=50, deadline=None)
    @given(extreme_inspect_runs())
    def test_inspect_gives_finite_values_or_fails_with_a_message(self, tmp_path_factory, run):
        train, flags = run
        workdir = tmp_path_factory.mktemp("extreme")
        data = write_csv(workdir / "train.csv", train[:, :-1], train[:, -1])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["inspect", "--data", str(data), *flags])
        if code != 0:
            assert_one_error_line(code, err.getvalue())
            return
        text = out.getvalue().replace(str(data), "")
        if flags[flags.index("--k") + 1] == "1":
            # m1 needs two neighbours; its column reads nan.
            text, n_nan = re.subn(r"(?m)^(  +\d+  +)nan ", r"\1", text)
            assert n_nan == int(flags[flags.index("--members") + 1])
        assert all_finite(text)

    @settings(max_examples=50, deadline=None)
    @given(extreme_bench_runs())
    def test_bench_gives_finite_values_or_fails_with_a_message(self, tmp_path_factory, run):
        train, flags = run
        workdir = tmp_path_factory.mktemp("extreme")
        data = write_csv(workdir / "train.csv", train[:, :-1], train[:, -1])
        out_dir = workdir / "out"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["bench", "--data", str(data), "--out", str(out_dir), *flags])
        if code != 0:
            assert_one_error_line(code, err.getvalue())
            return
        written = sorted(out_dir.iterdir())
        assert [p.name for p in written] == [
            "agreement_m3_m7.csv", "diff_m7.csv", "results.csv", "table.txt", "wtl.csv"
        ]
        assert all_finite(out.getvalue().replace(str(out_dir), ""))
        assert all(all_finite(p.read_text()) for p in written)


class TestBench:
    def test_end_to_end(self, train_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["bench", "--data", str(train_csv), "--out", str(out)] + BENCH_FAST
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Dataset" in stdout and "Win/Tie/Loss" in stdout
        assert "ds:m3" in stdout
        for name in ("results.csv", "wtl.csv", "diff_m7.csv", "table.txt"):
            assert (out / name).exists()

    def test_algorithm_range(self, train_csv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["bench", "--data", str(train_csv), "--out", str(out)] + BENCH_FAST
        assert main(argv + ["--algo", "mean..ds"]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1:3] for row in rows] == [
            ["mean", ""], ["median", ""], ["ds", "m3"], ["ds", "m7"],
        ]

    def test_reruns_are_byte_identical(self, train_csv, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(
                ["bench", "--data", str(train_csv), "--out", str(out)] + BENCH_FAST
            ) == 0
            outs.append((out / "results.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_repeated_dataset_names_are_disambiguated(self, train_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["bench", "--data", str(train_csv), "--data", str(train_csv),
             "--out", str(out)] + BENCH_FAST
        )
        assert code == 0
        text = (out / "results.csv").read_text()
        assert "synth," in text and "synth#2," in text

    def test_repeated_names_never_take_a_name_in_use(self, tmp_path, capsys):
        # housing.csv, housing#2.csv, housing.csv: the third is housing#3, not a
        # second housing#2 whose replications would pool with the file's
        lines = (DATA_DIR / "housing.csv").read_text().splitlines()
        first = tmp_path / "housing.csv"
        first.write_text("\n".join(lines[:120]) + "\n")
        second = tmp_path / "housing#2.csv"
        second.write_text("\n".join(lines[:1] + lines[199:320]) + "\n")
        out = tmp_path / "out"
        argv = ["bench", "--data", str(first), "--data", str(second), "--data", str(first),
                "--algo", "mean", "--reps", "2", "--folds", "3", "--members", "3",
                "--out", str(out)]
        assert main(argv) == 0
        rows = {row.split(",")[0]: row.split(",")[1:]
                for row in (out / "results.csv").read_text().splitlines()[1:]}
        assert list(rows) == ["housing", "housing#2", "housing#3"]
        assert rows["housing#3"] == rows["housing"]
        assert rows["housing#2"] != rows["housing"]

    def test_no_command_without_jobs_imports_the_process_pool(self, train_csv, query_csv,
                                                               tmp_path):
        # A fresh interpreter, since this one may have loaded the pool already.
        runs = [
            ["bench", "--data", str(train_csv), "--out", str(tmp_path / "out"), "--jobs", "1"]
            + BENCH_FAST,
            ["predict", "--train", str(train_csv), "--query", str(query_csv),
             "--members", "4", "--k", "3"],
            ["inspect", "--data", str(train_csv), "--row", "2", "--members", "4", "--k", "3"],
        ]
        code = (
            "import sys, drs.cli\n"
            f"assert all(drs.cli.main(argv) == 0 for argv in {runs!r})\n"
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=src_env(), timeout=120, check=False)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_argument_file_supplies_flags(self, train_csv, tmp_path, capsys):
        args = tmp_path / "run.args"
        out = tmp_path / "file-out"
        args.write_text(
            f"--data={train_csv}\n--algo=mean\n--measures=m3\n--folds=3\n"
            f"--reps=1\n--members=4\n--k=0\n--out\n{out}\n"
        )
        # the file's invalid k is reported when nothing overrides it
        assert main(["bench", f"@{args}"]) == 2
        assert "--k must be >= 1" in capsys.readouterr().err
        # a flag after the file wins, and the file's --data adds to the command line's
        assert main(["bench", "--data", str(train_csv), f"@{args}", "--k", "3"]) == 0
        assert "synth#2," in (out / "results.csv").read_text()
        # every line is one argument, so a key=value line is a stray argument
        args.write_text("learning_rate = 0.1\n")
        with pytest.raises(SystemExit) as exc:
            main(["bench", f"@{args}"])
        assert exc.value.code == 2
        assert "unrecognized arguments: learning_rate = 0.1" in capsys.readouterr().err

    def test_defaults_are_the_librarys(self, train_csv, monkeypatch, capsys):
        seen = {}

        def fake_run(config, datasets):
            seen["config"] = config
            return "result"

        monkeypatch.setattr("drs.cli.run_benchmark", fake_run)
        monkeypatch.setattr("drs.cli.write_outputs", lambda result, out: [])
        monkeypatch.setattr("drs.cli.render_table", lambda result: "")
        assert main(["bench", "--data", str(train_csv)]) == 0
        assert seen["config"] == RunConfig()

    def test_out_and_target_col_reach_writer_and_loader(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(7)
        X, y = synthetic_dataset(rng, 12, 2)
        data = write_csv(tmp_path / "named.csv", X, y, header=["a", "b", "y"])
        seen = {}

        def spy_load(path, target_column):
            seen.setdefault("targets", []).append(target_column)
            return load_csv(path, target_column)

        monkeypatch.setattr("drs.cli.load_csv", spy_load)
        monkeypatch.setattr("drs.cli.run_benchmark", lambda config, datasets: "result")
        monkeypatch.setattr("drs.cli.write_outputs", lambda result, out: seen.update(out=out) or [])
        monkeypatch.setattr("drs.cli.render_table", lambda result: "")
        for target in ("y", "0"):
            assert main(["bench", "--data", str(data), "--target-col", target,
                         "--out", str(tmp_path / "o")]) == 0
        assert seen == {"targets": ["y", 0], "out": str(tmp_path / "o")}


class TestPredict:
    def test_ds_reports_selected_member(self, train_csv, query_csv, capsys):
        code = main(
            ["predict", "--train", str(train_csv), "--query", str(query_csv),
             "--members", "6", "--k", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        for j, line in enumerate(lines):
            assert re.match(
                rf"^query {j}: -?\d+\.\d{{6}}  \(m3: selected member \d\)$", line
            )

    def test_dws_reports_survivors(self, train_csv, query_csv, capsys):
        code = main(
            ["predict", "--train", str(train_csv), "--query", str(query_csv),
             "--algo", "dws", "--measure", "m2", "--members", "6", "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(r"\(m2: kept \d/6 members: \d\*0\.\d{4}", out)

    def test_names_are_case_insensitive(self, train_csv, query_csv, capsys):
        outputs = []
        for algo, measure in [("dws", "m3"), ("DWS", "M3")]:
            assert main(["predict", "--train", str(train_csv), "--query", str(query_csv),
                         "--algo", algo, "--measure", measure, "--members", "6"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""

    @pytest.mark.parametrize("flag, value, what, names", [
        ("--algo", "xx", "algorithm", ALGORITHMS), ("--measure", "m9", "measure", MEASURE_IDS),
    ])
    def test_an_unknown_name_is_named_before_any_file_is_read(self, flag, value, what, names,
                                                             tmp_path, capsys):
        # drs bench's message, given before any file is opened.
        missing = str(tmp_path / "missing.csv")
        assert main(["predict", "--train", missing, "--query", missing, flag, value]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown {what} {value!r}; expected one of {', '.join(names)}\n"
        )

    @pytest.mark.parametrize("kept, members", [
        ([1], 14), ([9], 14), ([10], 14), ([11], 14), ([1, 9, 10, 11, 14], 14),
        ([12, 3], 12), ([11, 120, 3], 120),
    ], ids=[f"kept{i}" for i in range(7)])
    def test_dws_note_shows_the_first_ten_survivors(self, kept, members, train_csv, capsys,
                                                    monkeypatch, tmp_path):
        # Rows keep 1, 9, 10, 11 or all 14 members, at scattered positions;
        # the note lists the first ten (index, weight) pairs and counts the rest.
        # Two more ensembles: one row keeps all 12 of 12 members, and one of
        # 120 members shows indices of three digits. Their first row's first
        # weights are 1.0 and two whose products by 1e4 are about 0.5 and
        # 1.5: 0.00005 takes the formatter's '%.4f' fallback.
        rng = np.random.default_rng(len(kept))
        selected = np.zeros((len(kept), members), dtype=bool)
        for row, n in zip(selected, kept):
            row[rng.choice(members, n, replace=False)] = True
        if members == 120:
            selected[-1] = False
            selected[-1, [7, 100, 119]] = True
        alpha = np.where(selected, rng.uniform(0.01, 0.99, selected.shape), 0.0)
        if members != 14:
            alpha[0, np.flatnonzero(selected[0])[:3]] = [1.0, 0.00005, 0.00015]
        weights = MemberWeights(alpha, selected)
        monkeypatch.setattr(cli, "predict_queries", lambda keys, *args: iter(
            [(0, {keys[0]: (np.zeros(len(kept)), weights)})]
        ))
        query = write_csv(tmp_path / "q.csv", np.zeros((len(kept), 2)), np.zeros(len(kept)))
        code = main(["predict", "--train", str(train_csv), "--query", str(query), "--algo",
                     "dws", "--members", str(members), "--k", "3", "--normalize", "none"])
        assert code == 0
        want = []
        for j, (row, n) in enumerate(zip(selected, kept)):
            shown = np.flatnonzero(row)[:10]
            more = f", +{n - 10} more" if n > 10 else ""
            pairs = ", ".join(f"{i}*{alpha[j, i]:.4f}" for i in shown)
            want.append(f"query {j}: 0.000000  (m3: kept {n}/{members} members: {pairs}{more})\n")
        out = capsys.readouterr().out
        assert out == "".join(want)
        if members != 14:
            assert "*1.0000, " in out and out.count("*0.0001") == 2
        if members == 120:
            last = out.splitlines()[-1]
            assert ": 7*" in last and ", 100*" in last and ", 119*" in last

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda b: st.integers(1, 25).flatmap(
        lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n)
                           .filter(any), min_size=b, max_size=b))))
    def test_first_survivors_equal_a_stable_argsort(self, mask):
        selected = np.array(mask)
        first = cli._first_survivors(selected, 10)
        want = np.argsort(~selected, axis=1, kind="stable")[:, :10]
        for row, picked, expected in zip(selected, first, want):
            shown = min(int(row.sum()), 10)
            assert (picked[:shown] % selected.shape[1]).tolist() == expected[:shown].tolist()

    def test_a_header_wider_than_the_rows_fails_cleanly(self, tmp_path):
        train = tmp_path / "hdr.csv"
        train.write_text("a,b,c,y\n" + "".join(f"{i},{i % 3},{i * i}\n" for i in range(5)))
        query = tmp_path / "q.csv"
        query.write_text("1,2\n")
        done = subprocess.run(
            [sys.executable, "-m", "drs", "predict", "--train", str(train), "--query",
             str(query), "--target-col", "y", "--algo", "mean", "--members", "2"],
            capture_output=True, text=True, env=src_env(), timeout=120, check=False,
        )
        assert done.returncode == 1
        assert done.stderr == f"error: {train}: ragged row 2: expected 4 cells, found 3\n"
        assert done.stdout == ""

    def test_single_tree(self, train_csv, query_csv, capsys):
        code = main(
            ["predict", "--train", str(train_csv), "--query", str(query_csv),
             "--algo", "single", "--k", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(re.match(r"^query \d: -?\d+\.\d{6}$", ln) for ln in lines)

    def test_predictions_are_on_the_original_scale(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.0, 1.0, size=(12, 2))
        y = np.full(12, 7.5)  # constant target: every prediction must denormalize to it
        train = write_csv(tmp_path / "const.csv", X, y)
        query = tmp_path / "q.csv"
        query.write_text("0.5,0.5\n")
        code = main(
            ["predict", "--train", str(train), "--query", str(query),
             "--algo", "mean", "--members", "4", "--k", "3"]
        )
        assert code == 0
        assert "query 0: 7.500000" in capsys.readouterr().out

    def test_query_header_is_sniffed(self, train_csv, tmp_path, capsys):
        query = tmp_path / "q.csv"
        query.write_text("a,b,c\n0.1,0.2,0.3\n")
        code = main(
            ["predict", "--train", str(train_csv), "--query", str(query),
             "--members", "4", "--k", "3"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1

    def test_dimension_mismatch(self, train_csv, tmp_path, capsys):
        query = tmp_path / "q.csv"
        query.write_text("0.1,0.2\n")
        code = main(
            ["predict", "--train", str(train_csv), "--query", str(query), "--k", "3"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "2 features" in err and "3" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.1,0.2,0.3\n0.4,0.5\n", "ragged row 2: expected 3 cells, found 2"),
            ("a,b,c\n0.1,oops,0.3\n", "non-numeric cell 'oops' at row 2, column 2"),
            ("0.1,0.2,0.3\n0.4,0.5,inf\n", "non-finite cell 'inf' at row 2, column 3"),
            ("", "empty file"),
        ],
        ids=["ragged", "non-numeric", "inf", "empty"],
    )
    def test_malformed_query_file(self, train_csv, tmp_path, capsys, text, message):
        query = tmp_path / "q.csv"
        query.write_text(text)
        code = main(
            ["predict", "--train", str(train_csv), "--query", str(query),
             "--members", "4", "--k", "3"]
        )
        assert code == 1
        assert f"{query}: {message}" in capsys.readouterr().err

    def test_query_file_that_is_not_utf8(self, train_csv, tmp_path, capsys):
        # The bad byte lies past the first chunk the reader decodes, so it is
        # met while rows are being parsed.
        query = tmp_path / "q.csv"
        query.write_bytes(("0.1,0.2,0.3\n" * 2000 + "0.1,0.2,\u00e9\n").encode("latin-1"))
        code = main(
            ["predict", "--train", str(train_csv), "--query", str(query),
             "--members", "4", "--k", "3"]
        )
        assert code == 1
        assert f"cannot read {query}: not UTF-8 text (byte 0xe9" in capsys.readouterr().err

    def test_argument_file_matches_flags(self, train_csv, query_csv, tmp_path, capsys):
        flags = ["--train", str(train_csv), "--query", str(query_csv), "--algo", "dws"]
        args = tmp_path / "predict.args"
        args.write_text("\n".join(flags) + "\n")
        assert main(["predict"] + flags + ["--members", "6", "--k", "3"]) == 0
        expected = capsys.readouterr().out
        assert main(["predict", f"@{args}", "--members", "6", "--k", "3"]) == 0
        assert capsys.readouterr().out == expected
        assert "kept" in expected

    def test_query_rows_are_held_once(self, tmp_path):
        # 50,000 jittered housing rows: the query side holds their one parsed
        # matrix, normalised in place, and no second copy of it.
        housing = DATA_DIR / "housing.csv"
        features = load_csv(housing).features
        rng = np.random.default_rng(5)
        rows = features[rng.integers(0, len(features), 50_000)]
        rows += rng.uniform(-0.05, 0.05, rows.shape) * np.ptp(features, axis=0)
        query = tmp_path / "query.csv"
        query.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        argv = ["predict", "--train", str(housing), "--query", str(query),
                "--algo", "mean", "--members", "20"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(argv) == 0  # warm-up: imports and first-use caches
            tracemalloc.start()
            try:
                assert main(argv) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2 * rows.nbytes

    def test_k_beyond_training_rows(self, train_csv, query_csv, capsys):
        code = main(
            ["predict", "--train", str(train_csv), "--query", str(query_csv),
             "--k", "99"]
        )
        assert code == 2
        assert "exceeds the number of training rows" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["single", "mean", "median"])
    def test_k_is_not_checked_when_no_algorithm_uses_neighbours(self, algo, tiny_csv,
                                                                tmp_path, capsys):
        # The default k (10) exceeds tiny's 5 rows, but algo takes no neighbours.
        query = tmp_path / "q.csv"
        query.write_text("0.1,18,2.31,0,0.538,6.575,65.2,4.09,1,296,15.3,396.9,4.98\n")
        code = main(["predict", "--train", str(tiny_csv), "--query", str(query),
                     "--algo", algo, "--members", "3"])
        assert code == 0
        assert capsys.readouterr().out.startswith("query 0: ")


def spelled(values):
    """``cli._four_places`` of ``values``, each pair of halves joined."""
    head, tail = cli._four_places(np.array(values, dtype=float))
    assert head.shape == tail.shape == np.shape(values)
    return [h + t for h, t in zip(head.ravel().tolist(), tail.ravel().tolist())]


@st.composite
def four_place_ties(draw):
    """The float nearest an exact '%.4f' tie, (k + 0.5) / 1e4, or a neighbour of it."""
    x = (draw(st.integers(0, 9_999)) + 0.5) / 1e4
    return draw(st.sampled_from([x, math.nextafter(x, 0.0), math.nextafter(x, 2.0)]))


class TestFourPlaces:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.floats(0.0, 1.0), st.floats(-2.0, 2.0),
                              st.floats(0.0, 1e-300), four_place_ties()),
                    min_size=1, max_size=40))
    def test_equals_percent_format(self, values):
        # Arbitrary floats (NaN, +-inf, -0.0, subnormals, negatives, values
        # above 1) and exact ties with their neighbours.
        assert spelled(values) == ["%.4f" % x for x in values]

    def test_pinned_values(self):
        values = [0.0, 1.0, 0.00005, 0.00015, 0.12345, 0.99995, -0.0]
        assert spelled(values) == [
            "0.0000", "1.0000", "0.0001", "0.0001", "0.1235", "1.0000", "-0.0000",
        ]

    def test_a_block_keeps_its_shape(self):
        values = [[0.25, math.nan, 1.5], [0.00005, -0.0, 0.123456]]
        assert spelled(values) == [
            "0.2500", "nan", "1.5000", "0.0001", "-0.0000", "0.1235",
        ]


class TestInspect:
    def test_shows_region_and_scores(self, train_csv, capsys):
        code = main(
            ["inspect", "--data", str(train_csv), "--row", "5",
             "--members", "4", "--k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "region of competence (k=3, nearest first)" in out
        assert "competence scores per member" in out
        assert "most competent member per measure:" in out
        assert out.count("\n  ") >= 3 + 4  # region rows plus member rows

    def test_m1_blank_when_region_too_small(self, train_csv, capsys):
        code = main(
            ["inspect", "--data", str(train_csv), "--row", "0",
             "--members", "3", "--k", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nan" in out
        assert "m1->-" in out

    def test_row_out_of_range(self, train_csv, capsys):
        code = main(["inspect", "--data", str(train_csv), "--row", "36"])
        assert code == 2
        assert "rows 0..35" in capsys.readouterr().err


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_console_script_names_main():
    # Tests run `python -m drs` or main(); this pins the `drs` entry point
    # that an installed package puts on PATH.
    import importlib
    import tomllib

    pyproject = tomllib.loads((DATA_DIR.parent / "pyproject.toml").read_text())
    scripts = pyproject["project"]["scripts"]
    assert scripts == {"drs": "drs.cli:main"}
    module, _, name = scripts["drs"].partition(":")
    assert getattr(importlib.import_module(module), name) is main
