"""Golden pins: the housing benchmark's results.csv and the trees behind it.

``golden/housing.results.csv`` was written by ``drs bench`` with the config in
``GOLDEN_ARGS`` (default seed and tree parameters). A change that cannot keep
it byte-identical regenerates the file in its own commit and reports the
largest absolute change of any MSE.

``golden/housing.trees.sha256`` pins the trees of that run's first fold: the
sha256 of the ``to_text()`` dumps of every ensemble member, in member order,
followed by the fold's individual tree, each dump ending in a newline. A
tree-builder change must keep every node, threshold and leaf value bit for
bit, not only the rounded MSEs.

``golden/housing.predict.sha256`` pins ``drs predict``: one line per
algorithm with the sha256 of its stdout when it trains on housing and
queries housing's own feature columns (``PREDICT_ARGS``).
"""

import contextlib
import hashlib
import io
from pathlib import Path

from conftest import DATA_DIR
from drs.bench import RunConfig
from drs.cli import main
from drs.datasets import kfold_split, load_csv, normalize_minmax
from drs.learners import fit_individual, generate_ensemble
from drs.rng import derive_seed

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "housing.results.csv"
GOLDEN_TREES = GOLDEN_DIR / "housing.trees.sha256"
GOLDEN_PREDICT = GOLDEN_DIR / "housing.predict.sha256"
GOLDEN_ARGS = [
    "--algo", "all", "--measures", "all",
    "--members", "25", "--folds", "5", "--reps", "1",
]
PREDICT_ARGS = ["--members", "25", "--measure", "m7"]
PREDICT_ALGORITHMS = ("single", "mean", "median", "ds", "dw", "dws")


def test_housing_results_match_golden_bytes(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["bench", "--data", str(DATA_DIR / "housing.csv"), "--out", str(out)]
        + GOLDEN_ARGS
    )
    assert code == 0
    got = (out / "results.csv").read_bytes()
    want = GOLDEN.read_bytes()
    changed = [
        (g, w)
        for g, w in zip(got.decode().splitlines(), want.decode().splitlines())
        if g != w
    ]
    assert got == want, f"results.csv differs from {GOLDEN.name}: {changed[:3]}"


def first_fold_trees_sha256() -> str:
    """Refit fold 0 of replication 0 the way ``drs bench`` fits each fold
    task for ``GOLDEN_ARGS`` and hash the tree dumps."""
    config = RunConfig(n_members=25, folds=5)
    data, _ = normalize_minmax(load_csv(DATA_DIR / "housing.csv"))
    rep_seed = derive_seed(config.seed, 0)
    fold = kfold_split(data.n_instances, config.folds, rep_seed)[0]
    train = data.subset(fold.train_indices)
    ensemble = generate_ensemble(
        train.features, train.targets, config.n_members,
        config.tree_params, derive_seed(rep_seed, fold.fold_id),
    )
    single = fit_individual(train.features, train.targets, config.tree_params)
    digest = hashlib.sha256()
    for tree in (*ensemble.members, single):
        digest.update((tree.to_text() + "\n").encode())
    return digest.hexdigest()


def test_housing_first_fold_trees_match_golden_hash():
    assert first_fold_trees_sha256() == GOLDEN_TREES.read_text().strip()


def predict_stdout_sha256(workdir: Path) -> list[str]:
    """``<sha256>  <algorithm>`` of ``drs predict``'s stdout for each algorithm,
    querying the feature columns of housing.csv (header included)."""
    housing = DATA_DIR / "housing.csv"
    query = Path(workdir) / "housing-features.csv"
    query.write_text(
        "".join(line.rsplit(",", 1)[0] + "\n" for line in housing.read_text().splitlines())
    )
    lines = []
    for algo in PREDICT_ALGORITHMS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(
                ["predict", "--train", str(housing), "--query", str(query), "--algo", algo]
                + PREDICT_ARGS
            )
        assert code == 0, algo
        lines.append(f"{hashlib.sha256(out.getvalue().encode()).hexdigest()}  {algo}")
    return lines


def test_housing_predictions_match_golden_hashes(tmp_path):
    assert predict_stdout_sha256(tmp_path) == GOLDEN_PREDICT.read_text().splitlines()
