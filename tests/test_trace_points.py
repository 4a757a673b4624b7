"""The benchmark's tracer (perfbench/spans.py) wraps drs functions where their
callers look them up, by (module, attribute). A binding that no longer
resolves makes every traced benchmark run fail with an AttributeError, so
each one is checked here. The tracer's counters read the return values of
the functions it wraps, so its call and DWS survivor counts are checked
against the one-query reference path."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

from conftest import DATA_DIR
from drs import bench
from drs.bench import RunConfig
from drs.cli import main
from drs.datasets import apply_minmax, kfold_split, load_csv, normalize_minmax, read_numeric_csv
from drs.learners import TreeParams, generate_ensemble
from drs.rng import derive_seed
from test_predict_queries import reference_predict_queries

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    unresolved = []
    for module_name, attr, _, _ in load_spans().TRACE_POINTS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module_name}.{attr}")
    assert not unresolved, f"trace points that do not resolve: {unresolved}"


def traced(argv):
    """Run ``drs`` once under the tracer; return its exit code and op counts."""
    tracer = load_spans().Tracer()
    with tracer.installed(), tracer.op(0), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, tracer.counts[0]


def kept_and_offered(answers, key):
    """DWS survivors and members offered, summed over one-query answers."""
    kept = offered = 0
    for answer in answers:
        selected = answer[key][1][1]
        kept += int(selected.sum())
        offered += selected.size
    return kept, offered


def test_traced_predict_counts_the_survivors_of_every_query(tmp_path):
    housing = DATA_DIR / "housing.csv"
    lines = housing.read_text().splitlines()[:61]
    query = tmp_path / "q.csv"
    query.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    code, counts = traced(["predict", "--train", housing, "--query", query, "--algo", "dws",
                           "--measure", "m3", "--members", 8, "--seed", 5])
    assert code == 0

    train, params = normalize_minmax(load_csv(housing))
    Q = apply_minmax(read_numeric_csv(query)[0], params)
    ensemble = generate_ensemble(train.features, train.targets, 8, TreeParams(), 5)
    key = ("dws", "m3")
    answers = reference_predict_queries([key], train.features, train.targets, Q, 10, ensemble)
    assert (counts["dws_kept"], counts["dws_offered"]) == kept_and_offered(answers, key)
    assert counts["selection.dws_predict"] == counts["region.build_region"] >= 1


def test_traced_bench_counts_one_call_per_block(tmp_path):
    housing = DATA_DIR / "housing.csv"
    config = RunConfig(algorithms=("ds", "dw", "dws"), measures=("m3",), n_members=5,
                       folds=3, replications=1)
    code, counts = traced(["bench", "--data", housing, "--algo", "ds,dw,dws", "--measures",
                           "m3", "--members", 5, "--folds", 3, "--reps", 1,
                           "--out", tmp_path / "out"])
    assert code == 0

    data, _ = normalize_minmax(load_csv(housing))
    rep_seed = derive_seed(config.seed, 0)
    key = ("dws", "m3")
    kept = offered = blocks = 0
    for fold in kfold_split(data.n_instances, config.folds, rep_seed):
        train = data.subset(fold.train_indices)
        test = data.subset(fold.test_indices)
        ensemble = generate_ensemble(train.features, train.targets, config.n_members,
                                     config.tree_params, derive_seed(rep_seed, fold.fold_id))
        answers = reference_predict_queries([key], train.features, train.targets,
                                            test.features, config.k, ensemble)
        fold_kept, fold_offered = kept_and_offered(answers, key)
        kept += fold_kept
        offered += fold_offered
        block = bench._block_rows(train.features, config.k, config.n_members)
        blocks += -(-test.n_instances // block)
    assert (counts["dws_kept"], counts["dws_offered"]) == (kept, offered)
    for name in ("region.build_region", "measures.score_all", "selection.ds_predict",
                 "selection.dw_weights", "selection.dw_predict", "selection.dws_predict"):
        assert counts[name] == blocks, name
