"""Acceptance gate: one test per shipping criterion, each printing a
single [PASS]/[FAIL] line with the numbers it checked.

The criteria cover oracle equivalence for the eight measures, the frozen
worked example, combiner and weight invariants, protocol determinism,
the expected quality trend on the housing benchmark, bagging statistics,
the m3/m7 agreement report, and reporting fidelity.
"""

import csv
import re
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import DATA_DIR, oracle_score, random_region, synthetic_dataset, write_csv
from drs.bench import (
    DEFAULT_SEED,
    RunConfig,
    aggregate,
    diff_vs_m7,
    render_table,
    run_benchmark,
    win_tie_loss,
    write_outputs,
)
from drs.cli import main
from drs.datasets import Dataset, load_csv
from drs.learners import TreeParams, bagging_sample
from drs.measures import MEASURE_IDS, score_all
from drs.region import inverse_distance_weights
from drs.rng import derive_seed
from drs.selection import ds_predict, dw_predict, dw_weights, dws_predict

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def report(capsys):
    """One [PASS]/[FAIL] line per criterion, written to the real terminal."""

    def _report(number: int, description: str, ok: bool, detail: str = ""):
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        line = f"[{tag}] criterion {number}: {description}{suffix}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _report


def test_criterion_1_measure_oracle_suite(report):
    rng = np.random.default_rng(101)
    ks = (1, 2, 5, 10)
    ns = (1, 3, 10)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for i in range(1000):
        k = ks[i % len(ks)]
        n = ns[i % len(ns)]
        region = random_region(rng, k, n)
        qp = rng.normal(size=n)
        for measure in MEASURE_IDS:
            if measure == "m1" and k < 2:
                continue  # variance needs two neighbors; the library refuses K=1
            got = score_all(measure, region, qp[None])[0]
            for member in range(n):
                want = oracle_score(
                    measure,
                    region.observed[0].tolist(),
                    region.d_weights[0].tolist(),
                    region.member_predictions[0, member].tolist(),
                    float(qp[member]),
                )
                worst = max(worst, abs(float(got[member]) - want))
                checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "all eight measures match a brute-force oracle on 1000 random regions",
        worst <= 1e-9 and elapsed < 10.0,
        f"{checked} scores, max |diff| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_worked_fixture(two_neighbor_region, report):
    expected = {
        "m1": 0.18,
        "m2": 0.125,
        "m3": 0.0175,
        "m4": 0.0075,
        "m5": 0.01,
        "m6": 0.0175,
        "m7": 0.18660254037844388,
        "m8": 0.01,
    }
    qp = np.array([[0.6]])
    worst = max(
        abs(float(score_all(m, two_neighbor_region, qp)[0, 0]) - want)
        for m, want in expected.items()
    )
    report(
        2,
        "hand-computed two-neighbor fixture reproduced to 1e-12",
        worst <= 1e-12,
        f"max |diff| {worst:.2e}",
    )


def test_criterion_3_combiner_invariants(report):
    rng = np.random.default_rng(303)
    cases = 1000
    ok = True
    for _ in range(cases):
        m = int(rng.integers(1, 40))
        scores = rng.uniform(1e-3, 10.0, size=(1, m))
        preds = rng.normal(size=(1, m)) * 10
        lo, hi = preds.min(), preds.max()

        w = dw_weights(scores)
        ok &= abs(w.alpha.sum() - 1.0) <= 1e-9
        ok &= lo - 1e-9 <= dw_predict(w, preds)[0] <= hi + 1e-9

        value, winner = ds_predict(scores, preds)
        ok &= value[0] == preds[0, winner[0]] and scores[0, winner[0]] == scores.min()

        value, kept = dws_predict(scores, preds)
        ok &= kept.selected.any() and bool(kept.selected[0, int(np.argmin(scores))])
        survivors = preds[kept.selected]
        ok &= survivors.min() - 1e-9 <= value[0] <= survivors.max() + 1e-9
        ok &= abs(kept.alpha.sum() - 1.0) <= 1e-9

        c = 10.0 ** rng.uniform(-3, 3)
        drift = np.max(np.abs(dw_weights(scores * c).alpha - w.alpha))
        ok &= drift < 1e-9
        if not ok:
            break
    report(
        3,
        "selection/weighting invariants hold on 1000 random cases each",
        bool(ok),
        "weights sum to 1, outputs bounded, survivors include the best, "
        "weights scale-invariant",
    )


def test_criterion_4_distance_weight_suite(report):
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(1000):
        d = np.sort(rng.uniform(0.01, 50.0, size=(1, int(rng.integers(1, 30)))))
        w = inverse_distance_weights(d)
        ok &= abs(w.sum() - 1.0) <= 1e-9 and np.all(w >= 0)
        ok &= np.max(np.abs(inverse_distance_weights(d * 1e3) - w)) < 1e-9
        if not ok:
            break
    pair = inverse_distance_weights([[1.0, 3.0]])
    ok &= np.max(np.abs(pair - [[0.75, 0.25]])) <= 1e-12
    ok &= np.array_equal(inverse_distance_weights([[0.0, 2.0]]), [[1.0, 0.0]])
    ok &= np.array_equal(inverse_distance_weights([[0.0, 0.0, 5.0]]), [[0.5, 0.5, 0.0]])
    report(
        4,
        "inverse-distance weights: normalized, worked pair, zero-distance "
        "limit, scale-invariant",
        bool(ok),
        "1000 random vectors plus the edge rules",
    )


def test_criterion_5_protocol_determinism(tmp_path, report):
    rng = np.random.default_rng(55)
    X, y = synthetic_dataset(rng, 200, 4)
    data = write_csv(tmp_path / "synth200.csv", X, y)
    start = time.perf_counter()
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(
            ["bench", "--data", str(data), "--out", str(out),
             "--algo", "all", "--measures", "all",
             "--folds", "5", "--reps", "2", "--members", "25",
             "--k", "5", "--seed", "4242"]
        )
        assert code == 0
        blobs.append((out / "results.csv").read_bytes())
    elapsed = time.perf_counter() - start
    report(
        5,
        "two identical bench runs produce byte-identical results.csv",
        blobs[0] == blobs[1] and elapsed < 60.0,
        f"200-instance dataset, both runs in {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def housing_run(tmp_path_factory):
    config = RunConfig(
        algorithms=("single", "mean", "median", "ds", "dw"),
        measures=("m2", "m3", "m7"),
        k=10,
        n_members=100,
        folds=10,
        replications=3,
        seed=DEFAULT_SEED,
        # bagged members use 5-sample leaves, the common bagging default;
        # fully grown leaves memorize their own bootstrap draw, so error
        # scores over training neighbors collapse and stop separating members
        tree_params=TreeParams(min_parent_size=10, min_leaf_size=5),
        jobs=3,
    )
    dataset = load_csv(DATA_DIR / "housing.csv")
    start = time.perf_counter()
    result = run_benchmark(config, [dataset])
    elapsed = time.perf_counter() - start
    out = tmp_path_factory.mktemp("housing-out")
    write_outputs(result, out)
    return result, elapsed, out


def test_criterion_6_housing_trend(housing_run, report):
    result, elapsed, _ = housing_run
    stats = aggregate(result)
    dw_m3 = stats[("housing", "dw", "m3")][0]
    median = stats[("housing", "median", "")][0]
    single = result.mse[("housing", "single", "")]
    tallies = {}
    plurality = True
    for m in ("m2", "m3", "m7"):
        ds = result.mse[("housing", "ds", m)]
        wins = sum(d < s for d, s in zip(ds, single))
        losses = sum(d > s for d, s in zip(ds, single))
        tallies[m] = f"{wins}-{losses}"
        plurality &= wins > losses
    ok = dw_m3 < median and plurality and elapsed < 600.0
    report(
        6,
        "housing trend: weighting with m3 beats the static median and "
        "selection beats the individual tree",
        ok,
        f"dw:m3 {dw_m3 * 1e4:.2f} vs median {median * 1e4:.2f} (x1e-4); "
        f"ds wins-losses vs single over 3 replications: "
        f"m2 {tallies['m2']}, m3 {tallies['m3']}, m7 {tallies['m7']}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_bagging_uniqueness(report):
    size = 10_000
    fractions = [
        np.unique(bagging_sample(size, derive_seed(777, i))).size / size
        for i in range(100)
    ]
    mean_fraction = float(np.mean(fractions))
    report(
        7,
        "mean unique fraction of 100 bootstrap bags of 10,000 lies in [0.60, 0.66]",
        0.60 <= mean_fraction <= 0.66,
        f"mean {mean_fraction:.4f}",
    )


def test_criterion_8_agreement_report(housing_run, report):
    result, _, out = housing_run
    path = out / "agreement_m3_m7.csv"
    rates = []
    if path.exists():
        with open(path) as fh:
            rates = [float(row["ds_winner_agreement"]) for row in csv.DictReader(fh)]
    documented = README.exists() and "agreement_m3_m7" in README.read_text()
    ok = (
        bool(rates)
        and all(0.0 <= r <= 1.0 for r in rates)
        and rates == [r for v in result.agreement.values() for r in v]
        and documented
    )
    report(
        8,
        "the m3/m7 selection-agreement report is emitted and documented",
        ok,
        f"rates {', '.join(f'{r:.3f}' for r in rates)}; README documents it: "
        f"{documented}",
    )


def test_criterion_9_reporting_fidelity(report):
    rng = np.random.default_rng(99)
    datasets = []
    for name in ("wave", "ridge"):
        X, y = synthetic_dataset(rng, 60, 3)
        datasets.append(Dataset(X, y, name=name))
    config = RunConfig(
        algorithms=("single", "mean", "median", "ds", "dw", "dws"),
        measures=("m2", "m3", "m7"),
        k=3,
        n_members=6,
        folds=3,
        replications=2,
        seed=11,
        tree_params=TreeParams(min_parent_size=4, min_leaf_size=2),
    )
    result = run_benchmark(config, datasets)

    wtl = win_tie_loss(result)
    sums_ok = all(sum(counts) == len(datasets) for counts in wtl.values())
    diffs = diff_vs_m7(result)
    diffs_ok = bool(diffs) and all(row[3] >= 0 for row in diffs)
    cells = re.findall(r"\d+\.\d{2}\(\d+\.\d{2}\)", render_table(result))
    cells_ok = len(cells) == len(wtl) * len(datasets)
    report(
        9,
        "win/tie/loss sums to the dataset count, m7 gaps are nonnegative, "
        "cells render as mean(std) at the 1e-4 scale",
        sums_ok and diffs_ok and cells_ok,
        f"{len(wtl)} method columns, {len(diffs)} gap rows, {len(cells)} cells",
    )
