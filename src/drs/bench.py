"""Replicated cross-validation benchmark over datasets, algorithms, and measures.

One run: for each replication, the dataset is re-split into k folds; per
fold a bagged ensemble and an individual tree are fitted on the training
part and every configured (algorithm, measure) pipeline predicts every test
pattern. The per-method replication MSE is the arithmetic mean of the fold
MSEs; results aggregate to mean(std) cells over replications, rendered by
default on the 1e-4 scale. All numbers are a deterministic function of
(config, seed).

Each (dataset, replication, fold) is one unit of work. Replication r
splits with its own seed derived from (seed, r) and fold f fits with one
derived from that and f, whatever the order the folds run in; the fold
results merge in fold order, so ``--jobs`` spreads folds across processes
without changing a bit.

Method columns are labeled ``single``, ``mean``, ``median`` for the
baselines and ``ds:m3``-style pairs for the dynamic algorithms.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datasets import Dataset, DatasetError, apply_normalization, kfold_split, normalize_minmax
from .learners import TreeParams, fit_individual, generate_ensemble
from .measures import MEASURE_IDS, score_all
from .region import build_region
from .rng import derive_seed
from .selection import ds_predict, dw_predict, dw_weights, dws_predict

DEFAULT_SEED = 1729
ALGORITHMS = ("single", "mean", "median", "ds", "dw", "dws")
DYNAMIC_ALGORITHMS = ("ds", "dw", "dws")
NORMALIZATION_MODES = ("global", "fold", "none")
SCALES = ("1e-4", "raw")
# Largest cell count of one query block's per-query temporaries: the
# (B, n_reference) approximate squared distances of the neighbour search and
# the (N, B, k) member predictions on the neighbours, with the measures'
# (B, N, k) temporaries of the same size.
_QUERY_CELLS = 1 << 18


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a benchmark run over given datasets (immutable)."""

    algorithms: tuple[str, ...] = ALGORITHMS
    measures: tuple[str, ...] = MEASURE_IDS
    k: int = 10
    n_members: int = 100
    folds: int = 10
    replications: int = 3
    seed: int = DEFAULT_SEED
    tree_params: TreeParams = field(default_factory=TreeParams)
    normalization: str = "global"
    scale: str = "1e-4"
    jobs: int = 1

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(a.lower() for a in self.algorithms))
        object.__setattr__(self, "measures", tuple(m.lower() for m in self.measures))
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}; expected one of {ALGORITHMS}")
        for m in self.measures:
            if m not in MEASURE_IDS:
                raise ValueError(f"unknown measure {m!r}; expected one of {MEASURE_IDS}")
        if any(a in DYNAMIC_ALGORITHMS for a in self.algorithms) and not self.measures:
            raise ValueError("dynamic algorithms require at least one measure")
        for name, value in [
            ("k", self.k),
            ("n_members", self.n_members),
            ("replications", self.replications),
            ("jobs", self.jobs),
        ]:
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.k < 2 and any(m == "m1" for _, m in self.method_keys()):
            raise ValueError(f"m1 needs at least 2 neighbors, got k={self.k}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if self.normalization not in NORMALIZATION_MODES:
            raise ValueError(
                f"normalization must be one of {NORMALIZATION_MODES}, got {self.normalization!r}"
            )
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}, got {self.scale!r}")

    def method_keys(self) -> list[tuple[str, str]]:
        """(algorithm, measure) pairs in run order; measure is '' for baselines."""
        keys = []
        for algo in self.algorithms:
            if algo in DYNAMIC_ALGORITHMS:
                keys.extend((algo, m) for m in self.measures)
            else:
                keys.append((algo, ""))
        return keys

    @property
    def tracks_agreement(self) -> bool:
        return "ds" in self.algorithms and {"m3", "m7"} <= set(self.measures)


def method_label(algorithm: str, measure: str = "") -> str:
    return f"{algorithm}:{measure}" if measure else algorithm


@dataclass
class RunResult:
    """Per-replication MSEs for every (dataset, method) cell, plus agreement rates."""

    config: RunConfig
    dataset_names: tuple[str, ...]
    mse: dict  # (dataset, algorithm, measure) -> list of per-replication MSE
    agreement: dict  # dataset -> list of per-replication m3/m7 DS winner agreement

    def mean_std(self, dataset: str, algorithm: str, measure: str = ""):
        return summarize(self.mse[(dataset, algorithm, measure)])


def mse(predictions, targets) -> float:
    """Mean squared error; lengths must match and be nonzero. An error too
    large for float64 gives inf without a warning: the caller reports it."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("mse of empty vectors")
    with np.errstate(over="ignore"):
        return float(np.mean((p - t) ** 2))


def summarize(values) -> tuple[float, float]:
    """Mean and sample standard deviation (0.0 for a single value)."""
    v = np.asarray(values, dtype=float)
    std = float(np.std(v, ddof=1)) if v.size > 1 else 0.0
    return float(np.mean(v)), std


def render_cell(mean: float, std: float, scale: str = "1e-4") -> str:
    if scale == "1e-4":
        return f"{mean * 1e4:.2f}({std * 1e4:.2f})"
    return f"{mean:.6g}({std:.6g})"


def displayed_value(mean: float, scale: str = "1e-4") -> float:
    """The cell mean at the precision the table displays (used for ties)."""
    if scale == "1e-4":
        return round(mean * 1e4, 2)
    return float(f"{mean:.6g}")


def _block_rows(reference_X, k, n_members) -> int:
    """Query rows per block: as many as keep the largest per-query temporary,
    n_reference approximate distances or n_members * k gathered predictions,
    under ``_QUERY_CELLS`` cells. Pass k 1 when nothing is gathered, so the
    block's n_members query predictions count, and n_members 0 when no
    ensemble predicts."""
    return max(1, _QUERY_CELLS // max(1, len(reference_X), n_members * k))


def fit_models(algorithms, features, targets, n_members, params, seed):
    """``(ensemble, individual)`` for ``algorithms``. The single tree alone grows
    without an ensemble, else in the ensemble's pass when ``"single"`` is asked for."""
    if set(algorithms) == {"single"}:
        return None, fit_individual(features, targets, params)
    ensemble = generate_ensemble(features, targets, n_members, params, seed,
                                 individual="single" in algorithms)
    return ensemble, ensemble.individual


def predict_queries(keys, reference_X, reference_y, query_X, k, ensemble, individual=None):
    """Answer every query row with every (algorithm, measure) in ``keys``.

    Answers blocks of consecutive query rows, in order, and yields
    ``(start, {(algorithm, measure): (predictions, provenance)})`` per
    block, where ``start`` is the block's first row and ``predictions`` is
    a (B,) array for its B rows. Provenance is None for the baselines, the
    (B,) selected members for ds and the ``MemberWeights`` with (B, N) rows
    for dw and dws. Each block's query rows are predicted when the block is
    answered, so only one block's (N, B) member predictions are held, and
    the mean and median baselines are taken per block. The dynamic
    algorithms score the members over the k nearest reference rows, once
    per measure and block. Every per-query sum, here and in the measures
    and combiners, runs in numpy's own loop over that query's row of a
    C-contiguous (B, ...) block, never through BLAS, so every row comes out
    bit for bit as it would in a block of its own, whatever the BLAS kernel.
    ``ensemble`` may be None when ``keys`` holds only ``("single", "")``,
    and ``individual`` is needed only for that key. A generator, so only
    one block's provenance is kept.
    """
    measures = list(dict.fromkeys(m for a, m in keys if a in DYNAMIC_ALGORITHMS))
    if measures:
        reference_predictions = ensemble.predict_all(reference_X)
    n_members = 0 if ensemble is None else ensemble.n_members
    block = _block_rows(reference_X, k if measures else 1, n_members)
    for start in range(0, len(query_X), block):
        rows = query_X[start : start + block]
        if ensemble is not None:
            qp = np.ascontiguousarray(ensemble.predict_all(rows).T)
        if measures:
            region = build_region(rows, reference_X, reference_y, reference_predictions, k)
            scores = {m: score_all(m, region, qp) for m in measures}
        answers = {}
        for algo, m in keys:
            if algo == "ds":
                answers[(algo, m)] = ds_predict(scores[m], qp)
            elif algo == "dw":
                weights = dw_weights(scores[m])
                answers[(algo, m)] = (dw_predict(weights, qp), weights)
            elif algo == "dws":
                answers[(algo, m)] = dws_predict(scores[m], qp)
            elif algo == "single":
                answers[(algo, m)] = (individual.predict(rows), None)
            elif algo == "mean":
                answers[(algo, m)] = (qp.mean(axis=1), None)
            else:
                answers[(algo, m)] = (np.median(qp, axis=1), None)
        yield start, answers


def _globally_normalized(config: RunConfig, dataset: Dataset) -> Dataset:
    """The dataset every replication splits: min-max normalised as a whole
    under ``normalization="global"``, else as given."""
    if config.normalization == "global":
        return normalize_minmax(dataset)[0]
    return dataset


def _replication_folds(config: RunConfig, data: Dataset, replication_seed: int) -> list:
    """One replication's fold tasks over ``data`` (already normalised by
    :func:`_globally_normalized`): the split made once, and ``k`` checked
    against every training fold before any fold is fitted."""
    folds = kfold_split(data.n_instances, config.folds, replication_seed)
    min_train = min(len(f.train_indices) for f in folds)
    if config.k > min_train:
        raise ValueError(
            f"k ({config.k}) exceeds the smallest training fold ({min_train}) "
            f"of dataset {data.name!r}"
        )
    return [(config, data, fold, replication_seed) for fold in folds]


def _run_fold(task):
    """Fit one fold and answer its test rows.

    Returns ({(algorithm, measure): fold MSE}, agreement hits, agreement
    total), the hits counting test rows on which DS under m3 and m7 picks
    the same member (0 and 0 when the config does not track agreement).
    Raises DatasetError when a fold MSE is not finite.
    """
    config, data, fold, replication_seed = task
    train = data.subset(fold.train_indices)
    test = data.subset(fold.test_indices)
    if config.normalization == "fold":
        train, params = normalize_minmax(train)
        test = apply_normalization(test, params)

    ensemble, individual = fit_models(
        config.algorithms, train.features, train.targets, config.n_members,
        config.tree_params, derive_seed(replication_seed, fold.fold_id),
    )

    keys = config.method_keys()
    predictions = {key: np.empty(test.n_instances) for key in keys}
    agree_hits = agree_total = 0
    answers = predict_queries(
        keys, train.features, train.targets, test.features,
        config.k, ensemble, individual,
    )
    for start, answer in answers:
        for key in keys:
            values = answer[key][0]
            predictions[key][start : start + len(values)] = values
        if config.tracks_agreement:
            same = answer[("ds", "m3")][1] == answer[("ds", "m7")][1]
            agree_hits += int(same.sum())
            agree_total += same.size

    fold_mse = {}
    for key in keys:
        fold_mse[key] = mse(predictions[key], test.targets)
        if not np.isfinite(fold_mse[key]):
            raise DatasetError(
                f"{data.name}: {method_label(*key)} has a non-finite MSE on "
                f"fold {fold.fold_id + 1} of {config.folds}; the values overflow "
                "float64, try --normalize global"
            )
    return fold_mse, agree_hits, agree_total


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_folds(config: RunConfig, tasks: list) -> list:
    """``_run_fold`` over ``tasks``, results in task order: in a pool of at
    most ``config.jobs`` processes, capped at the tasks and the usable CPUs,
    when ``config.jobs`` > 1, else in this process."""
    if config.jobs > 1:
        workers = min(config.jobs, len(tasks), _usable_cpus())
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_fold, tasks))
    return list(map(_run_fold, tasks))


def _merge_folds(keys, fold_results):
    """A replication's ({(algorithm, measure): mse}, agreement rate or None)
    from its fold results in fold order: each MSE is the mean of the fold
    MSEs, and the agreement rate pools the folds' hits over their totals."""
    replication_mse = {
        key: float(np.mean([fold_mse[key] for fold_mse, _, _ in fold_results]))
        for key in keys
    }
    agree_hits = sum(hits for _, hits, _ in fold_results)
    agree_total = sum(total for _, _, total in fold_results)
    return replication_mse, agree_hits / agree_total if agree_total else None


def run_replication(config: RunConfig, dataset: Dataset, replication_seed: int):
    """One replication: a fresh k-fold split, everything refitted per fold.

    Returns ({(algorithm, measure): mse}, agreement_rate_or_None) where the
    MSE is the arithmetic mean over the fold MSEs and the agreement rate is
    the fraction of test patterns on which DS under m3 and m7 picks the
    same member (tracked when the config includes ds with both measures).
    The folds run as ``run_benchmark`` runs them, in a pool when
    ``config.jobs`` > 1. Raises DatasetError when any fold MSE is not
    finite.
    """
    tasks = _replication_folds(config, _globally_normalized(config, dataset), replication_seed)
    return _merge_folds(config.method_keys(), _map_folds(config, tasks))


def run_benchmark(config: RunConfig, datasets: list[Dataset]) -> RunResult:
    """The full protocol: every dataset x replication, merged deterministically.

    Every (dataset, replication, fold) is one task. Replication r splits
    with seed ``derive_seed(config.seed, r)`` and its fold f fits with
    ``derive_seed(derive_seed(config.seed, r), f)``, whatever the order the
    folds run in, and the fold results merge in fold order. So jobs > 1
    changes wall time only, never a number.
    """
    if not datasets:
        raise ValueError("at least one dataset is required")
    names = [d.name for d in datasets]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"two datasets are named {name!r}; results are keyed by name")
    tasks = []
    for dataset in datasets:
        data = _globally_normalized(config, dataset)
        for rep in range(config.replications):
            tasks += _replication_folds(config, data, derive_seed(config.seed, rep))
    fold_results = _map_folds(config, tasks)

    keys = config.method_keys()
    mse_lists = {(name, algo, m): [] for name in names for algo, m in keys}
    agreement = {name: [] for name in names}
    for i, name in enumerate(names):
        for rep in range(config.replications):
            first = (i * config.replications + rep) * config.folds
            rep_mse, agree = _merge_folds(keys, fold_results[first : first + config.folds])
            for (algo, m), value in rep_mse.items():
                mse_lists[(name, algo, m)].append(value)
            agreement[name].append(agree)
    if not config.tracks_agreement:
        agreement = {}
    return RunResult(config, tuple(names), mse_lists, agreement)


def aggregate(result: RunResult) -> dict:
    """(dataset, algorithm, measure) -> (mse_mean, mse_std) over replications."""
    keys = result.config.method_keys()
    return {
        (name, algo, m): result.mean_std(name, algo, m)
        for name in result.dataset_names
        for algo, m in keys
    }


def win_tie_loss(result: RunResult) -> dict:
    """Per method column: datasets where it is strictly best / tied for best / worse.

    Comparison happens at the precision the table displays (two decimals on
    the 1e-4 scale), so equal-looking cells count as ties.
    """
    scale = result.config.scale
    columns = result.config.method_keys()
    counts = {method_label(*key): [0, 0, 0] for key in columns}
    for name in result.dataset_names:
        values = [displayed_value(result.mean_std(name, *key)[0], scale) for key in columns]
        best = min(values)
        n_best = values.count(best)
        for key, v in zip(columns, values):
            label = method_label(*key)
            if v == best and n_best == 1:
                counts[label][0] += 1
            elif v == best:
                counts[label][1] += 1
            else:
                counts[label][2] += 1
    return {label: tuple(c) for label, c in counts.items()}


def diff_vs_m7(result: RunResult) -> list[tuple]:
    """Per (dataset, dynamic algorithm): m7's error minus the best measure's error.

    The best measure is the minimum over all configured measures (m7
    included), so differences are never negative. Values are at displayed
    precision on the configured scale. Requires m7 among the measures.
    """
    config = result.config
    if "m7" not in config.measures:
        return []
    rows = []
    for algo in config.algorithms:
        if algo not in DYNAMIC_ALGORITHMS:
            continue
        for name in result.dataset_names:
            values = {
                m: displayed_value(result.mean_std(name, algo, m)[0], config.scale)
                for m in config.measures
            }
            best = min(values.values())
            best_measure = next(m for m in config.measures if values[m] == best)
            rows.append((name, algo, best_measure, round(values["m7"] - best, 10)))
    return rows


def render_table(result: RunResult) -> str:
    """Plain-text results table: datasets as rows, methods as columns,
    mean(std) cells at the configured scale, and a final Win/Tie/Loss row."""
    config = result.config
    columns = config.method_keys()
    labels = [method_label(*key) for key in columns]
    wtl = win_tie_loss(result)
    header = ["Dataset"] + labels
    rows = []
    for name in result.dataset_names:
        cells = [render_cell(*result.mean_std(name, *key), config.scale) for key in columns]
        rows.append([name] + cells)
    rows.append(["Win/Tie/Loss"] + ["/".join(map(str, wtl[label])) for label in labels])
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    out = io.StringIO()
    scale_note = "errors on the 1e-4 scale" if config.scale == "1e-4" else "raw errors"
    out.write(
        f"MSE mean(std) over {config.replications} replications, {scale_note}\n"
    )
    for r in [header] + rows:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n")
    return out.getvalue()


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_outputs(result: RunResult, out_dir) -> list[Path]:
    """Write results.csv, wtl.csv, diff_m7.csv (when the run has m7),
    table.txt, and agreement_m3_m7.csv (when the run tracked it). An optional
    file this run does not write is removed, so none is left from an earlier
    run into the same directory. Returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = result.config
    stats = aggregate(result)
    _write_csv(
        out / "results.csv",
        ["dataset", "algorithm", "measure", "mse_mean", "mse_std", "scale"],
        ([name, algo, m, *map(repr, stats[(name, algo, m)]), config.scale]
         for name in result.dataset_names for algo, m in config.method_keys()),
    )
    _write_csv(
        out / "wtl.csv",
        ["method", "win", "tie", "loss"],
        ([label, *counts] for label, counts in win_tie_loss(result).items()),
    )
    written = [out / "results.csv", out / "wtl.csv"]

    optional = [
        ("diff_m7.csv", ["dataset", "algorithm", "best_measure", "m7_minus_best"],
         diff_vs_m7(result)),
        ("agreement_m3_m7.csv", ["dataset", "replication", "ds_winner_agreement"],
         [[name, rep, repr(rate)]
          for name in result.dataset_names
          for rep, rate in enumerate(result.agreement.get(name, ()))]),
    ]
    for name, header, rows in optional:
        path = out / name
        if rows:
            _write_csv(path, header, rows)
            written.append(path)
        else:
            path.unlink(missing_ok=True)

    path = out / "table.txt"
    path.write_text(render_table(result))
    written.append(path)
    return written
