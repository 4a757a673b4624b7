"""Benchmark harness: per-replication protocol, aggregation, and reports."""

import csv
import os

import numpy as np
import pytest

from conftest import synthetic_dataset
from drs.bench import (
    RunConfig,
    RunResult,
    aggregate,
    diff_vs_m7,
    displayed_value,
    method_label,
    mse,
    render_cell,
    render_table,
    run_benchmark,
    run_replication,
    summarize,
    win_tie_loss,
    write_outputs,
)
from drs import bench
from drs.datasets import Dataset, apply_normalization, normalize_minmax
from drs.learners import TreeParams
from drs.rng import derive_seed


def small_dataset(seed=0, n=60) -> Dataset:
    rng = np.random.default_rng(seed)
    X, y = synthetic_dataset(rng, n, 3)
    return Dataset(X, y, name=f"synth{seed}")


def small_config(**overrides) -> RunConfig:
    base = dict(
        algorithms=("single", "mean", "median", "ds", "dw", "dws"),
        measures=("m2", "m3", "m7"),
        k=4,
        n_members=8,
        folds=4,
        replications=2,
        seed=99,
        tree_params=TreeParams(min_parent_size=4, min_leaf_size=2),
    )
    base.update(overrides)
    return RunConfig(**base)


def manual_result(columns: dict, datasets: tuple, config: RunConfig) -> RunResult:
    """Build a RunResult from {(algo, measure): [per-dataset mse means]}."""
    mse_lists = {}
    for (algo, m), per_dataset in columns.items():
        for name, value in zip(datasets, per_dataset):
            mse_lists[(name, algo, m)] = [value]
    return RunResult(config, datasets, mse_lists, {})


class TestScalars:
    def test_mse(self):
        assert mse([1.0, 2.0], [1.0, 4.0]) == 2.0

    def test_mse_rejects_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mse([], [])

    def test_summarize_pair(self):
        mean, std = summarize([2e-4, 4e-4])
        assert mean == pytest.approx(3e-4)
        assert std == pytest.approx(np.sqrt(2) * 1e-4)  # sample std, divisor n-1

    def test_summarize_single_value_has_zero_std(self):
        assert summarize([5e-4]) == (pytest.approx(5e-4), 0.0)

    def test_render_cell_scale(self):
        mean, std = summarize([2e-4, 4e-4])
        assert render_cell(mean, std) == "3.00(1.41)"
        assert render_cell(0.25, 0.0125, scale="raw") == "0.25(0.0125)"

    def test_displayed_value_rounds_at_table_precision(self):
        assert displayed_value(1.0004e-4) == 1.0
        assert displayed_value(9.996e-5) == 1.0
        assert displayed_value(1.006e-4) == 1.01

    def test_method_label(self):
        assert method_label("mean") == "mean"
        assert method_label("ds", "m3") == "ds:m3"


class TestRunConfig:
    def test_method_keys_order(self):
        config = small_config(algorithms=("ds", "mean"), measures=("m3", "m1"))
        assert config.method_keys() == [("ds", "m3"), ("ds", "m1"), ("mean", "")]

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            small_config(algorithms=("voting",))

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError, match="measure"):
            small_config(measures=("m9",))

    def test_rejects_empty_algorithms(self):
        with pytest.raises(ValueError, match="algorithm"):
            small_config(algorithms=())

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="k"):
            small_config(k=0)
        with pytest.raises(ValueError, match="folds"):
            small_config(folds=1)
        with pytest.raises(ValueError, match="replications"):
            small_config(replications=0)
        with pytest.raises(ValueError, match="m1 needs at least 2 neighbors"):
            small_config(k=1, measures=("m3", "m1"))
        assert small_config(k=1, measures=("m1",), algorithms=("mean",)).k == 1

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError, match="normalization"):
            small_config(normalization="zscore")
        with pytest.raises(ValueError, match="scale"):
            small_config(scale="1e-6")

    def test_case_folding(self):
        config = small_config(algorithms=("DS", "Mean"), measures=("M3",))
        assert config.algorithms == ("ds", "mean")
        assert config.measures == ("m3",)

    def test_agreement_tracking_requires_ds_m3_m7(self):
        assert small_config().tracks_agreement
        assert not small_config(algorithms=("dw",)).tracks_agreement
        assert not small_config(measures=("m3",)).tracks_agreement


class TestRunReplication:
    def test_deterministic(self):
        config = small_config()
        data = small_dataset()
        a, agree_a = run_replication(config, data, 1234)
        b, agree_b = run_replication(config, data, 1234)
        assert a == b
        assert agree_a == agree_b

    def test_different_seeds_differ(self):
        config = small_config()
        data = small_dataset()
        a, _ = run_replication(config, data, 1)
        b, _ = run_replication(config, data, 2)
        assert a != b

    def test_covers_every_method_key(self):
        config = small_config()
        rep, agree = run_replication(config, small_dataset(), 7)
        assert set(rep) == set(config.method_keys())
        assert all(v >= 0 for v in rep.values())
        assert 0.0 <= agree <= 1.0

    def test_k_larger_than_training_fold_rejected(self):
        config = small_config(k=50, folds=4)
        with pytest.raises(ValueError, match="smallest training fold"):
            run_replication(config, small_dataset(n=52), 0)

    def test_single_algorithm_without_ensemble(self):
        config = small_config(algorithms=("single",))
        rep, agree = run_replication(config, small_dataset(), 3)
        assert set(rep) == {("single", "")}
        assert agree is None

    def test_normalization_modes_all_run(self):
        data = small_dataset()
        results = {}
        for mode in ("global", "fold", "none"):
            config = small_config(normalization=mode, algorithms=("mean",))
            rep, _ = run_replication(config, data, 5)
            results[mode] = rep[("mean", "")]
        # raw targets produce errors on a different scale than unit-interval ones
        assert results["none"] > results["global"]
        assert results["fold"] != results["global"]


class TestRunBenchmark:
    def test_collects_per_replication_values(self):
        config = small_config()
        result = run_benchmark(config, [small_dataset()])
        assert result.dataset_names == ("synth0",)
        for key in config.method_keys():
            values = result.mse[("synth0",) + key]
            assert len(values) == config.replications
        assert len(result.agreement["synth0"]) == config.replications

    @pytest.mark.parametrize("replications", [1, 2], ids=["reps1", "reps2"])
    def test_results_independent_of_jobs(self, replications):
        config = small_config(replications=replications)
        serial = run_benchmark(config, [small_dataset()])
        parallel = run_benchmark(
            small_config(replications=replications, jobs=4), [small_dataset()]
        )
        assert parallel.mse == serial.mse
        assert parallel.agreement == serial.agreement

    def test_agreement_absent_when_not_tracked(self):
        config = small_config(algorithms=("mean", "dw"))
        result = run_benchmark(config, [small_dataset()])
        assert result.agreement == {}

    def test_requires_datasets(self):
        with pytest.raises(ValueError, match="dataset"):
            run_benchmark(small_config(), [])

    def test_rejects_two_datasets_with_one_name(self):
        # results are keyed by dataset name, so two would pool into one cell
        d = small_dataset()
        with pytest.raises(ValueError, match="'synth0'"):
            run_benchmark(small_config(algorithms=("mean",)), [d, d])

    def test_global_normalization_runs_once_per_dataset(self, monkeypatch):
        calls = []

        def counting(dataset):
            calls.append(dataset.name)
            return normalize_minmax(dataset)

        monkeypatch.setattr(bench, "normalize_minmax", counting)
        config = small_config(algorithms=("mean",), replications=3)
        run_benchmark(config, [small_dataset(0), small_dataset(1)])
        assert calls == ["synth0", "synth1"]
        calls.clear()
        run_replication(config, small_dataset(0), 5)
        assert calls == ["synth0"]

    def test_fold_normalization_maps_each_fold_once(self, monkeypatch):
        fitted, applied = [], []

        def counting_fit(dataset):
            fitted.append(dataset.n_instances)
            return normalize_minmax(dataset)

        def counting_apply(dataset, params):
            applied.append(dataset.n_instances)
            return apply_normalization(dataset, params)

        monkeypatch.setattr(bench, "normalize_minmax", counting_fit)
        monkeypatch.setattr(bench, "apply_normalization", counting_apply)
        config = small_config(algorithms=("mean",), normalization="fold", folds=4)
        run_benchmark(config, [small_dataset(n=60)])
        # Each fold fits on its 45 training rows and maps its 15 test rows.
        assert fitted == [45] * 4 * config.replications
        assert applied == [15] * 4 * config.replications


@pytest.fixture
def fake_pools(monkeypatch):
    """Replace the process pool with one that records its size and tasks and
    runs them in this process; returns the pools built."""
    built = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.tasks = []
            built.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            self.tasks = list(tasks)
            return map(fn, self.tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    return built


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestFoldPool:
    def test_one_replication_runs_its_folds_in_a_pool(self, fake_pools, monkeypatch):
        usable_cpus(monkeypatch, 2)
        config = small_config(replications=1, jobs=2)
        pooled = run_benchmark(config, [small_dataset()])
        [pool] = fake_pools
        assert pool.max_workers == 2
        assert len(pool.tasks) == config.folds
        serial = run_benchmark(small_config(replications=1), [small_dataset()])
        assert pooled.mse == serial.mse
        assert pooled.agreement == serial.agreement

    def test_one_job_builds_no_pool(self, fake_pools):
        run_benchmark(small_config(jobs=1), [small_dataset()])
        assert fake_pools == []

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (64, 2, 2),    # capped at the usable CPUs
        (64, 128, 30),  # capped at the 3 x 10 fold tasks
        (3, 128, 3),   # capped at --jobs
    ])
    def test_workers_capped_at_jobs_tasks_and_cpus(self, jobs, cpus, workers,
                                                   fake_pools, monkeypatch):
        usable_cpus(monkeypatch, cpus)
        config = small_config(
            jobs=jobs, replications=3, folds=10,
            algorithms=("mean",), measures=(), n_members=2,
        )
        run_benchmark(config, [small_dataset()])
        [pool] = fake_pools
        assert pool.max_workers == workers
        assert len(pool.tasks) == 30

    @pytest.mark.parametrize("cpu_count, workers", [(3, 3), (None, 1)])
    def test_cpu_count_when_affinity_is_unavailable(self, cpu_count, workers,
                                                    fake_pools, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        config = small_config(jobs=8, algorithms=("mean",), measures=(), n_members=2)
        run_benchmark(config, [small_dataset()])
        assert fake_pools[0].max_workers == workers


class TestReports:
    def test_win_tie_loss_strict_and_tied(self):
        config = small_config(algorithms=("mean", "median"))
        result = manual_result(
            {("mean", ""): [2.0e-4, 1.0e-4], ("median", ""): [2.0e-4, 3.0e-4]},
            ("d1", "d2"),
            config,
        )
        wtl = win_tie_loss(result)
        assert wtl["mean"] == (1, 1, 0)
        assert wtl["median"] == (0, 1, 1)

    def test_ties_judged_at_displayed_precision(self):
        config = small_config(algorithms=("mean", "median"))
        result = manual_result(
            {("mean", ""): [1.0004e-4], ("median", ""): [9.996e-5]},
            ("d1",),
            config,
        )
        wtl = win_tie_loss(result)
        assert wtl["mean"] == (0, 1, 0)
        assert wtl["median"] == (0, 1, 0)

    def test_diff_vs_m7_uses_displayed_values(self):
        config = small_config(algorithms=("ds",), measures=("m2", "m3", "m7"))
        result = manual_result(
            {
                ("ds", "m2"): [3.0e-4],
                ("ds", "m3"): [1.0e-4],
                ("ds", "m7"): [2.0e-4],
            },
            ("d1",),
            config,
        )
        rows = diff_vs_m7(result)
        assert rows == [("d1", "ds", "m3", 1.0)]

    def test_diff_vs_m7_zero_when_m7_is_best(self):
        config = small_config(algorithms=("dw",), measures=("m3", "m7"))
        result = manual_result(
            {("dw", "m3"): [2.0e-4], ("dw", "m7"): [1.0e-4]},
            ("d1",),
            config,
        )
        assert diff_vs_m7(result) == [("d1", "dw", "m7", 0.0)]

    def test_diff_vs_m7_empty_without_m7(self):
        config = small_config(algorithms=("dw",), measures=("m3",))
        result = manual_result({("dw", "m3"): [1e-4]}, ("d1",), config)
        assert diff_vs_m7(result) == []

    def test_aggregate_means_and_stds(self):
        config = small_config(algorithms=("mean",))
        result = RunResult(
            config, ("d1",), {("d1", "mean", ""): [2e-4, 4e-4]}, {}
        )
        stats = aggregate(result)
        assert stats[("d1", "mean", "")][0] == pytest.approx(3e-4)

    def test_render_table_shape(self):
        config = small_config(algorithms=("mean", "median"))
        result = manual_result(
            {("mean", ""): [2.0e-4, 1.0e-4], ("median", ""): [2.0e-4, 3.0e-4]},
            ("d1", "d2"),
            config,
        )
        table = render_table(result)
        lines = table.strip().splitlines()
        assert lines[1].split() == ["Dataset", "mean", "median"]
        assert "2.00(0.00)" in lines[2]
        assert lines[-1].startswith("Win/Tie/Loss")

    def test_write_outputs_round_trip(self, tmp_path):
        config = small_config()
        result = run_benchmark(config, [small_dataset()])
        written = write_outputs(result, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {
            "results.csv", "wtl.csv", "diff_m7.csv", "agreement_m3_m7.csv", "table.txt",
        }
        with open(tmp_path / "out" / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(config.method_keys())
        stats = aggregate(result)
        for row in rows:
            key = (row["dataset"], row["algorithm"], row["measure"])
            assert float(row["mse_mean"]) == stats[key][0]  # repr round-trips exactly
            assert row["scale"] == "1e-4"

    def test_rerun_removes_optional_files_it_does_not_write(self, tmp_path):
        out = tmp_path / "out"
        first = run_benchmark(small_config(measures=("m3", "m7")), [small_dataset()])
        assert {"diff_m7.csv", "agreement_m3_m7.csv"} <= {p.name for p in write_outputs(first, out)}
        second = run_benchmark(small_config(measures=("m2",)), [small_dataset()])
        written = write_outputs(second, out)
        assert sorted(out.iterdir()) == sorted(written)
        assert {p.name for p in written} == {"results.csv", "wtl.csv", "table.txt"}

    def test_no_diff_file_without_m7(self, tmp_path):
        config = small_config(measures=("m2", "m3"))
        result = run_benchmark(config, [small_dataset()])
        written = write_outputs(result, tmp_path / "out")
        names = {p.name for p in written}
        assert "diff_m7.csv" not in names
        assert "agreement_m3_m7.csv" not in names
