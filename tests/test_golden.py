"""Golden pins: the housing benchmark's results.csv and the trees behind it.

``golden/housing.results.csv`` was written by ``drs bench`` with the config in
``GOLDEN_ARGS`` (default seed and tree parameters). A change that cannot keep
it byte-identical regenerates the file in its own commit and reports the
largest absolute change of any MSE.

``golden/housing.trees.sha256`` pins the trees of that run's first fold: the
sha256 of the ``to_text()`` dumps of every ensemble member, in member order,
followed by the fold's individual tree, each dump ending in a newline. A
dump lists the nodes in preorder, without node ids, so the pin fixes every
tree's shape, split features, thresholds and leaf values bit for bit but
not how its nodes are numbered. A tree-builder change must keep all of
those, not only the rounded MSEs.

``golden/housing.protocol-trees.sha256`` pins, the same way, every tree
that perfbench's ``cv-housing`` workload fits (``PROTOCOL_CONFIG``): each
fold's 100 members and then its individual tree, in fold order.

``golden/housing.predict.sha256`` pins ``drs predict``: one line per
algorithm with the sha256 of its stdout when it trains on housing and
queries housing's own feature columns (``PREDICT_ARGS``).

``golden/housing.inspect.sha256`` pins ``drs inspect``: one line per run in
``INSPECT_RUNS`` with the sha256 of its stdout on housing. Its first line
echoes ``--data`` as given, so the runs start in the repository root with
the relative path ``data/housing.csv``, and the pin holds in any checkout.

``golden/housing.raw.sha256`` pins the same commands on housing's raw units
(``--normalize none``, with ``TAX`` up to 711): ``drs predict`` with ds and
dws, and ``drs inspect`` on row 42. Large, unnormalised features are where
the neighbour search's rounding bounds are loosest.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from conftest import DATA_DIR
from drs import learners
from drs.bench import RunConfig
from drs.cli import main
from drs.datasets import kfold_split, load_csv, normalize_minmax
from drs.learners import TreeParams, generate_ensemble
from drs.rng import derive_seed

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "housing.results.csv"
GOLDEN_TREES = GOLDEN_DIR / "housing.trees.sha256"
GOLDEN_PROTOCOL_TREES = GOLDEN_DIR / "housing.protocol-trees.sha256"
# The cross-validation protocol the benchmark times: global normalisation,
# seed 1729, 10 folds, 100 members, min_leaf_size 5.
PROTOCOL_CONFIG = RunConfig(
    n_members=100, replications=1, seed=1729, tree_params=TreeParams(min_leaf_size=5)
)
GOLDEN_PREDICT = GOLDEN_DIR / "housing.predict.sha256"
GOLDEN_ARGS = [
    "--algo", "all", "--measures", "all",
    "--members", "25", "--folds", "5", "--reps", "1",
]
PREDICT_ARGS = ["--members", "25", "--measure", "m7"]
PREDICT_ALGORITHMS = ("single", "mean", "median", "ds", "dw", "dws")
GOLDEN_INSPECT = GOLDEN_DIR / "housing.inspect.sha256"
INSPECT_DATA = "data/housing.csv"  # relative to the repository root
# Row 3 with k = 1 takes the m1 column's no-score path.
INSPECT_RUNS = (
    ("--row", "0", "--members", "25"),
    ("--row", "42", "--members", "25"),
    ("--row", "3", "--members", "5", "--k", "1"),
)
GOLDEN_RAW = GOLDEN_DIR / "housing.raw.sha256"
RAW_PREDICT_ALGORITHMS = ("ds", "dws")
RAW_INSPECT_RUNS = (("--row", "42", "--members", "25", "--normalize", "none"),)


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


def housing_folds(config):
    """Each fold of replication 0 of housing, as ``drs bench`` makes its fold
    tasks under ``config`` (global normalisation): (training set, ensemble
    seed), in fold order."""
    data, _ = normalize_minmax(load_csv(DATA_DIR / "housing.csv"))
    rep_seed = derive_seed(config.seed, 0)
    for fold in kfold_split(data.n_instances, config.folds, rep_seed):
        yield data.subset(fold.train_indices), derive_seed(rep_seed, fold.fold_id)


def first_fold_ensemble(n_members=25):
    """Refit fold 0 of replication 0's ensemble the way ``drs bench`` fits
    each fold task for ``GOLDEN_ARGS``, with ``n_members`` members."""
    config = RunConfig(n_members=n_members, folds=5)
    train, seed = next(housing_folds(config))
    return generate_ensemble(
        train.features, train.targets, config.n_members, config.tree_params, seed
    )


def trees_sha256(config, n_folds) -> str:
    """Hash the tree dumps of the first ``n_folds`` folds under ``config``:
    each fold's ensemble members, in member order, then its individual tree.
    Each fold grows both in one call, as ``drs bench`` does."""
    digest = hashlib.sha256()
    for train, seed in list(housing_folds(config))[:n_folds]:
        ensemble = generate_ensemble(
            train.features, train.targets, config.n_members, config.tree_params, seed,
            individual=True,
        )
        for tree in (*ensemble.members, ensemble.individual):
            digest.update((tree.to_text() + "\n").encode())
    return digest.hexdigest()


def test_housing_first_fold_trees_match_golden_hash():
    config = RunConfig(n_members=25, folds=5)
    assert trees_sha256(config, 1) == GOLDEN_TREES.read_text().strip()


def test_housing_protocol_trees_match_golden_hash():
    got = trees_sha256(PROTOCOL_CONFIG, PROTOCOL_CONFIG.folds)
    assert got == GOLDEN_PROTOCOL_TREES.read_text().strip()


def test_batch_composition_does_not_change_the_trees(monkeypatch):
    # A cap of 1 cell searches every node in a call of its own; 2**22 cells
    # search each depth of this fold's 100 trees in one call. The node
    # arrays, ids included, must keep every bit too.
    def trees():
        fields = ("feature", "threshold", "left", "right", "value")
        return [
            (tree.to_text(), *(getattr(tree, f).tobytes() for f in fields))
            for tree in first_fold_ensemble(100).members
        ]

    want = trees()
    for cells in (1, 2**22):
        monkeypatch.setattr(learners, "_BATCH_CELLS", cells)
        assert trees() == want


def predict_stdout_sha256(workdir: Path, algorithms=PREDICT_ALGORITHMS, flags=()) -> list[str]:
    """``<sha256>  <algorithm>`` of ``drs predict``'s stdout for each algorithm,
    querying the feature columns of housing.csv (header included), with
    ``flags`` added to ``PREDICT_ARGS``."""
    housing = DATA_DIR / "housing.csv"
    query = Path(workdir) / "housing-features.csv"
    query.write_text(
        "".join(line.rsplit(",", 1)[0] + "\n" for line in housing.read_text().splitlines())
    )
    lines = []
    for algo in algorithms:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(
                ["predict", "--train", str(housing), "--query", str(query), "--algo", algo]
                + PREDICT_ARGS
                + list(flags)
            )
        assert code == 0, algo
        lines.append(f"{hashlib.sha256(out.getvalue().encode()).hexdigest()}  {algo}")
    return lines


def test_housing_predictions_match_golden_hashes(tmp_path):
    assert predict_stdout_sha256(tmp_path) == GOLDEN_PREDICT.read_text().splitlines()


def inspect_stdout_sha256(monkeypatch, runs=INSPECT_RUNS) -> list[str]:
    """``<sha256>  <flags>`` of ``drs inspect``'s stdout on housing for each
    run in ``runs``, run from the repository root."""
    monkeypatch.chdir(DATA_DIR.parent)
    lines = []
    for flags in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["inspect", "--data", INSPECT_DATA, *flags])
        assert code == 0, flags
        lines.append(f"{hashlib.sha256(out.getvalue().encode()).hexdigest()}  {' '.join(flags)}")
    return lines


def test_housing_inspect_matches_golden_hashes(monkeypatch):
    assert inspect_stdout_sha256(monkeypatch) == GOLDEN_INSPECT.read_text().splitlines()


def test_housing_raw_units_match_golden_hashes(tmp_path, monkeypatch):
    got = predict_stdout_sha256(tmp_path, RAW_PREDICT_ALGORITHMS, ("--normalize", "none"))
    got += inspect_stdout_sha256(monkeypatch, RAW_INSPECT_RUNS)
    assert got == GOLDEN_RAW.read_text().splitlines()
