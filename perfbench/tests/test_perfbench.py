"""Tests of the benchmark itself: span arithmetic, output checks and a tiny smoke run.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

run.import_program()
SPEC = run.SPEC


def _span(name, start, end, parent, op=0):
    return (name, int(start * 1e9), int(end * 1e9), parent, op)


def test_covered_merges_overlapping_intervals():
    assert spans.covered([(0, 10), (5, 15), (20, 25), (21, 22)]) == 20
    assert spans.covered([]) == 0


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        _span("cli.main", 0, 100, -1),                     # 0
        _span("learners.generate_ensemble", 10, 50, 0),    # 1
        _span("rng.bagging_sample", 12, 14, 1),            # 2
        _span("rng.bagging_sample", 20, 23, 1),            # 3
        _span("region.build_region", 60, 70, 0),           # 4
        _span("region.build_region", 72, 80, 0),           # 5
        _span("cli.main", 200, 210, -1, op=1),             # 6
    ]
    assert spans.self_times(tree) == [
        pytest.approx(x * 1e9) for x in (42, 35, 2, 3, 10, 8, 10)
    ]
    profile = spans.op_profiles(tree)
    assert set(profile) == {0, 1}
    busy, own = profile[0]["busy"], profile[0]["self"]
    assert busy["cli"] == pytest.approx(100)
    assert busy["learners"] == pytest.approx(40)
    assert busy["rng"] == pytest.approx(5)
    assert busy["region.build_region"] == pytest.approx(18)
    assert own["cli"] == pytest.approx(42)
    assert own["learners"] == pytest.approx(35)
    assert sum(own.values()) / 2 == pytest.approx(100)  # each span counted by name and layer
    assert profile[1]["self"] == {"cli.main": pytest.approx(10), "cli": pytest.approx(10)}


def test_tracer_records_counts_and_restores_every_function():
    import drs.bench
    import drs.cli

    before = drs.cli.build_region, drs.bench.score_all, drs.learners.Ensemble.predict_all
    tracer = spans.Tracer()
    with tracer.installed():
        assert drs.cli.build_region is not before[0]
        with tracer.op(0):
            code, _, _ = workloads.run_op(["inspect", "--data", str(run.ROOT / "data/housing.csv"),
                                           "--row", "3", "--members", "4"])
    assert code == 0
    assert (drs.cli.build_region, drs.bench.score_all, drs.learners.Ensemble.predict_all) == before
    counts = tracer.counts[0]
    assert counts["trees"] == 4 and counts["region.build_region"] == 1
    assert counts["measures.score_all"] == 8 and counts["predict_rows"] == 11
    assert all(end >= start for _, start, end, _, _ in tracer.spans)


def test_checks_reject_wrong_outputs(tmp_path):
    cv = workloads.WORKLOADS["cv-housing"]
    assert workloads.check_bench(tmp_path, 1, cv)[0] == ["results.csv missing"]
    reference = (workloads.REFERENCE_DIR / "cv-housing.seed1729.results.csv").read_text()
    (tmp_path / "results.csv").write_text(reference)
    assert workloads.check_bench(tmp_path, workloads.DEFAULT_SEED, cv)[0] == []
    lines = reference.splitlines(keepends=True)
    (tmp_path / "results.csv").write_text("".join(lines[:-1]))
    assert workloads.check_bench(tmp_path, 1, cv)[0]
    (tmp_path / "results.csv").write_text(reference.replace("0.005961711314129351", "nan"))
    assert "results.csv has a non-finite MSE" in workloads.check_bench(tmp_path, 1, cv)[0]
    assert "results.csv differs from the stored reference" in workloads.check_bench(
        tmp_path, workloads.DEFAULT_SEED, cv)[0]

    stream = dataclasses.replace(workloads.WORKLOADS["predict-stream"], reference=None)
    inputs = workloads.Inputs(Path("train.csv"), 10, 5.0, 50.0, Path("q.csv"), 3)
    good = "query 0: 10.000000\nquery 1: 20.0  (m3: kept 1/2 members: 0*1.0000)\nquery 2: 30.0\n"
    assert workloads.check_predict(good, 1, stream, inputs)[0] == []
    assert workloads.check_predict(good.replace("30.0", "nan"), 1, stream, inputs)[0]
    assert workloads.check_predict(good.replace("30.0", "60.0"), 1, stream, inputs)[0]
    assert workloads.check_predict("query 0: 10.0\n", 1, stream, inputs)[0]


TINY = {
    "cv-housing": {"members": 3, "folds": 2},
    "predict-stream": {"members": 3, "queries": 40},
    "cv-housing-2jobs": {"members": 3, "folds": 2},
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_named_metric_with_its_unit(name, trace, capsys):
    workload = dataclasses.replace(workloads.WORKLOADS[name], reference=None, **TINY[name])
    report = run.run_workload(workload, seed=7, seconds=0.0, trace=trace, probes=1)
    units = run.PER_LAYER if trace else run.END_TO_END
    run.print_report(report, units)
    print(run.result_line(report, units))
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])

    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert result["attempted"] >= (3 if trace else 1)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in spec] == list(report["metrics"])
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in spec:
        assert any(line.split()[1:2] == [metric["name"]] and line.endswith(" " + metric["unit"])
                   for line in lines), metric["name"]
    assert report["stamp"]["seed"] == 7 and report["stamp"]["nproc"] >= 1
    if trace:
        assert Path(run.ROOT / report["spans_file"]).is_file()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cv-housing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
