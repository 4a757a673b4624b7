"""Command line interface.

Three subcommands:

``drs bench``
    Replicated k-fold cross-validation over one or more CSV datasets,
    writing results.csv, wtl.csv, diff_m7.csv, table.txt (and an m3/m7
    selection-agreement report when both measures run with ds) to --out.

``drs predict``
    Fit on a training CSV, predict a query CSV of feature rows, and show
    per-row provenance: the selected member for ds, the surviving members
    and their weights for dws.

``drs inspect``
    Leave one row out of a dataset, fit on the rest, and print that row's
    region of competence and every member's eight competence scores.

Exit codes: 0 on success, 1 for unreadable or malformed files, 2 for
invalid arguments. Defaults follow the benchmark protocol (k=10, 100
members, 10 folds, min-max normalization); omitting --seed uses the fixed
documented constant so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .bench import (
    ALGORITHMS,
    DEFAULT_SEED,
    DYNAMIC_ALGORITHMS,
    RunConfig,
    predict_queries,
    render_table,
    run_benchmark,
    write_outputs,
)
from .datasets import (
    DatasetError,
    apply_minmax,
    denormalize_targets,
    load_csv,
    normalize_minmax,
    read_numeric_csv,
)
from .learners import TreeParams, fit_individual, generate_ensemble
from .measures import MEASURE_IDS, score_all
from .region import build_region
# Unused here since predict answers through bench.predict_queries, but
# perfbench/spans.py TRACE_POINTS still wraps these names in drs.cli.
from .selection import ds_predict, dw_predict, dw_weights, dws_predict


class CliArgumentError(Exception):
    """Invalid flag or config value; reported on stderr with exit code 2."""


def _require(condition: bool, message: str):
    if not condition:
        raise CliArgumentError(message)


def _measure_index(token: str) -> int:
    token = token.strip().lower()
    if token not in MEASURE_IDS:
        raise CliArgumentError(f"unknown measure {token!r}; expected m1..m8")
    return MEASURE_IDS.index(token)


def parse_measures(listing) -> tuple[str, ...]:
    """'m2,m5..m7' -> ('m2', 'm5', 'm6', 'm7'); 'all' means every measure."""
    out = []
    for part in str(listing).split(","):
        token = part.strip().lower()
        if not token:
            continue
        if token == "all":
            out.extend(MEASURE_IDS)
        elif ".." in token:
            lo, _, hi = token.partition("..")
            lo_i, hi_i = _measure_index(lo), _measure_index(hi)
            _require(lo_i <= hi_i, f"empty measure range {token!r}")
            out.extend(MEASURE_IDS[lo_i : hi_i + 1])
        else:
            out.append(MEASURE_IDS[_measure_index(token)])
    _require(bool(out), f"no measures in {listing!r}")
    return tuple(dict.fromkeys(out))


def parse_algorithms(listing) -> tuple[str, ...]:
    out = []
    for part in str(listing).split(","):
        token = part.strip().lower()
        if not token:
            continue
        if token == "all":
            out.extend(ALGORITHMS)
        else:
            _require(
                token in ALGORITHMS,
                f"unknown algorithm {token!r}; expected one of {', '.join(ALGORITHMS)}",
            )
            out.append(token)
    _require(bool(out), f"no algorithms in {listing!r}")
    return tuple(dict.fromkeys(out))


def _int_or_name(raw: str):
    try:
        return int(raw)
    except ValueError:
        return raw


def _depth(raw: str):
    if str(raw).strip().lower() in {"none", "unlimited"}:
        return None
    return int(raw)


_CONFIG_KEYS = {
    "data", "target_col", "algo", "measures", "k", "members", "folds",
    "reps", "seed", "jobs", "normalize", "scale", "out",
    "min_parent_size", "min_leaf_size", "max_depth",
}


def _read_config_file(path) -> dict:
    """key=value per line; '#' starts a comment; repeated data keys accumulate."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DatasetError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliArgumentError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        raw = raw.strip()
        if key not in _CONFIG_KEYS:
            raise CliArgumentError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "data":
            values.setdefault("data", []).extend(
                p.strip() for p in raw.split(",") if p.strip()
            )
        else:
            values[key] = raw
    return values


def _resolve(flag_value, file_values: dict, key: str, default, convert=None):
    """Flag beats config file beats built-in default; convert applies to both."""
    if flag_value is not None:
        raw = flag_value
    elif key in file_values:
        raw = file_values[key]
    else:
        return default
    if convert is None:
        return raw
    try:
        return convert(raw)
    except (TypeError, ValueError) as exc:
        raise CliArgumentError(f"{key}={raw!r}: {exc}") from None


def _tree_params(ns, file_values) -> TreeParams:
    kwargs = {}
    mp = _resolve(ns.min_parent_size, file_values, "min_parent_size", None, int)
    ml = _resolve(ns.min_leaf_size, file_values, "min_leaf_size", None, int)
    md = _resolve(ns.max_depth, file_values, "max_depth", "unset", _depth)
    if mp is not None:
        kwargs["min_parent_size"] = mp
    if ml is not None:
        kwargs["min_leaf_size"] = ml
    if md != "unset":
        kwargs["max_depth"] = md
    try:
        return TreeParams(**kwargs)
    except ValueError as exc:
        raise CliArgumentError(str(exc)) from None


def _common_ints(ns, file_values) -> dict:
    values = {
        "k": _resolve(ns.k, file_values, "k", 10, int),
        "members": _resolve(ns.members, file_values, "members", 100, int),
        "seed": _resolve(ns.seed, file_values, "seed", DEFAULT_SEED, int),
    }
    _require(values["k"] >= 1, f"--k must be >= 1 (got {values['k']})")
    _require(values["members"] >= 1, f"--members must be >= 1 (got {values['members']})")
    return values


def cmd_bench(ns) -> int:
    file_values = _read_config_file(ns.config) if ns.config else {}
    paths = list(ns.data or []) or list(file_values.get("data", []))
    _require(bool(paths), "--data is required (give it on the command line or in --config)")
    common = _common_ints(ns, file_values)
    folds = _resolve(ns.folds, file_values, "folds", 10, int)
    reps = _resolve(ns.reps, file_values, "reps", 3, int)
    jobs = _resolve(ns.jobs, file_values, "jobs", 1, int)
    target_col = _resolve(ns.target_col, file_values, "target_col", -1, _int_or_name)
    config = RunConfig(
        data=tuple(paths),
        target_column=target_col,
        algorithms=_resolve(ns.algo, file_values, "algo", ALGORITHMS, parse_algorithms),
        measures=_resolve(ns.measures, file_values, "measures", MEASURE_IDS, parse_measures),
        k=common["k"],
        n_members=common["members"],
        folds=folds,
        replications=reps,
        seed=common["seed"],
        tree_params=_tree_params(ns, file_values),
        normalization=_resolve(ns.normalize, file_values, "normalize", "global"),
        scale=_resolve(ns.scale, file_values, "scale", "1e-4"),
        jobs=jobs,
        out_dir=str(_resolve(ns.out, file_values, "out", "drs-out")),
    )

    datasets = []
    seen = {}
    for p in paths:
        d = load_csv(p, config.target_column)
        if d.name in seen:
            seen[d.name] += 1
            d = dataclasses.replace(d, name=f"{d.name}#{seen[d.name]}")
        else:
            seen[d.name] = 1
        datasets.append(d)

    result = run_benchmark(config, datasets)
    written = write_outputs(result, config.out_dir)
    sys.stdout.write(render_table(result))
    print(f"wrote {', '.join(p.name for p in written)} to {config.out_dir}/")
    return 0


def cmd_predict(ns) -> int:
    common = _common_ints(ns, {})
    algo = ns.algo
    measure = ns.measure
    train = load_csv(ns.train, _int_or_name(ns.target_col) if ns.target_col is not None else -1)
    query, _ = read_numeric_csv(ns.query)
    if query.shape[1] != train.n_features:
        raise DatasetError(
            f"{ns.query}: query rows have {query.shape[1]} features "
            f"but {ns.train} has {train.n_features}"
        )
    _require(
        common["k"] <= train.n_instances,
        f"--k ({common['k']}) exceeds the number of training rows ({train.n_instances})",
    )
    params = None
    fitted = train
    query_x = query
    if (ns.normalize or "global") == "global":
        fitted, params = normalize_minmax(train)
        query_x = apply_minmax(query, params)
    tree_params = _tree_params(ns, {})

    ensemble = individual = None
    if algo == "single":
        individual = fit_individual(fitted.features, fitted.targets, tree_params)
    else:
        ensemble = generate_ensemble(
            fitted.features, fitted.targets, common["members"], tree_params, common["seed"],
        )
    key = (algo, measure if algo in DYNAMIC_ALGORITHMS else "")
    answers = predict_queries(
        [key], fitted.features, fitted.targets, query_x, common["k"], ensemble, individual,
    )
    if algo == "dws":
        # The DWS note shows the first 10 survivors; one template per count shown.
        dws_notes = [
            f"  ({measure}: kept %d/{len(ensemble.members)} members: "
            + ", ".join(["%d*%.4f"] * shown) + "%s)"
            for shown in range(11)
        ]
    for start, answer in answers:
        values, provenance = answer[key]
        if params:
            values = denormalize_targets(values, params)
        notes = [""] * len(values)
        if algo == "ds":
            notes = [f"  ({measure}: selected member {i})" for i in provenance.tolist()]
        elif algo == "dws":
            # The first 10 survivors of each row, then (index, weight) pairs of
            # Python ints and floats, so % formats them as the note shows them.
            first = np.argsort(~provenance.selected, axis=1, kind="stable")[:, :10]
            pairs = np.empty((len(first), 2 * first.shape[1]), dtype=object)
            pairs[:, 0::2] = first
            pairs[:, 1::2] = np.take_along_axis(provenance.alpha, first, axis=1)
            kept = provenance.selected.sum(axis=1).tolist()
            for j, (n, row) in enumerate(zip(kept, pairs.tolist())):
                shown = min(n, 10)
                more = f", +{n - 10} more" if n > 10 else ""
                notes[j] = dws_notes[shown] % (n, *row[: 2 * shown], more)
        sys.stdout.write("".join(
            f"query {j}: {v:.6f}{note}\n"
            for j, (v, note) in enumerate(zip(values.tolist(), notes), start=start)
        ))
    return 0


def cmd_inspect(ns) -> int:
    common = _common_ints(ns, {})
    data = load_csv(ns.data, _int_or_name(ns.target_col) if ns.target_col is not None else -1)
    row = ns.row
    _require(
        0 <= row < data.n_instances,
        f"--row {row} out of range: {ns.data} has rows 0..{data.n_instances - 1}",
    )
    keep = np.r_[0:row, row + 1 : data.n_instances]
    reference = data.subset(keep)
    _require(
        common["k"] <= reference.n_instances,
        f"--k ({common['k']}) exceeds the reference size ({reference.n_instances})",
    )
    query_x = data.features[row][None]
    params = None
    fitted = reference
    if (ns.normalize or "global") == "global":
        fitted, params = normalize_minmax(reference)
        query_x = apply_minmax(query_x, params)
    ensemble = generate_ensemble(
        fitted.features, fitted.targets, common["members"],
        _tree_params(ns, {}), common["seed"],
    )
    # The query is a block of one row; its region and scores are row 0.
    region = build_region(
        query_x, fitted.features, fitted.targets,
        ensemble.predict_all(fitted.features), common["k"],
    )
    qp = ensemble.predict_all(query_x)[:, 0]

    print(f"query: row {row} of {ns.data} (target {data.targets[row]:.6f}), "
          f"reference: the other {reference.n_instances} rows")
    print(f"ensemble: {common['members']} members, seed {common['seed']}; "
          f"ensemble mean prediction "
          f"{float(denormalize_targets([qp.mean()], params)[0]) if params else qp.mean():.6f}")
    print(f"\nregion of competence (k={common['k']}, nearest first):")
    print("  rank  row  distance      weight    observed")
    for r in range(region.k):
        print(
            f"  {r + 1:4d}  {keep[region.neighbor_indices[0, r]]:4d}"
            f"  {region.distances[0, r]:<12.6g}  {region.d_weights[0, r]:<8.6f}"
            f"  {region.observed[0, r]:.6f}"
        )

    columns = {}
    for m in MEASURE_IDS:
        if m == "m1" and region.k < 2:
            columns[m] = np.full(len(ensemble.members), np.nan)
        else:
            columns[m] = score_all(m, region, qp[None])[0]
    print(f"\ncompetence scores per member (lower is better):")
    print("  member  " + "  ".join(f"{m:>10}" for m in MEASURE_IDS))
    for i in range(len(ensemble.members)):
        cells = "  ".join(f"{columns[m][i]:10.4e}" for m in MEASURE_IDS)
        print(f"  {i:6d}  {cells}")
    best = "  ".join(
        f"{m}->{'-' if np.isnan(columns[m]).all() else int(np.argmin(columns[m]))}"
        for m in MEASURE_IDS
    )
    print(f"\nmost competent member per measure: {best}")
    return 0


def _add_common(parser: argparse.ArgumentParser, normalize_choices):
    parser.add_argument("--k", type=int, default=None,
                        help="region-of-competence size (default 10)")
    parser.add_argument("--members", type=int, default=None,
                        help="ensemble size (default 100)")
    parser.add_argument("--seed", type=int, default=None,
                        help=f"base seed; every random draw derives from it "
                             f"(default {DEFAULT_SEED})")
    parser.add_argument("--target-col", default=None,
                        help="target column: index (default -1, the last) or header name")
    parser.add_argument("--normalize", choices=normalize_choices, default=None,
                        help="min-max scaling of features and target (default global)")
    parser.add_argument("--min-parent-size", type=int, default=None,
                        help="smallest node a tree may split (default 10)")
    parser.add_argument("--min-leaf-size", type=int, default=None,
                        help="smallest child a split may create (default 1)")
    parser.add_argument("--max-depth", default=None, metavar="N",
                        help="tree depth cap: an integer or 'none' (default none)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drs",
        description="Dynamic selection, weighting, and fusion of bagged "
                    "regression-tree ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="replicated cross-validation benchmark")
    bench.add_argument("--data", action="append", default=None, metavar="CSV",
                       help="dataset file; repeat for several datasets")
    bench.add_argument("--algo", default=None,
                       help="comma list of single,mean,median,ds,dw,dws or 'all' (default all)")
    bench.add_argument("--measures", default=None,
                       help="comma list with ranges, e.g. 'm2,m5..m7' or 'all' (default m1..m8)")
    bench.add_argument("--folds", type=int, default=None,
                       help="cross-validation folds (default 10)")
    bench.add_argument("--reps", type=int, default=None,
                       help="replications, each with a fresh fold split (default 3)")
    bench.add_argument("--jobs", type=int, default=None,
                       help="worker processes; results never depend on it (default 1)")
    bench.add_argument("--scale", choices=("1e-4", "raw"), default=None,
                       help="table cell scale (default 1e-4)")
    bench.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default drs-out)")
    bench.add_argument("--config", default=None, metavar="FILE",
                       help="key=value file supplying any flag; flags win")
    _add_common(bench, ("global", "fold", "none"))
    bench.set_defaults(func=cmd_bench)

    predict = sub.add_parser("predict", help="fit on one CSV, predict another")
    predict.add_argument("--train", required=True, metavar="CSV",
                         help="training data with a target column")
    predict.add_argument("--query", required=True, metavar="CSV",
                         help="feature-only rows to predict")
    predict.add_argument("--algo", default="ds",
                         choices=ALGORITHMS,
                         help="prediction algorithm (default ds)")
    predict.add_argument("--measure", default="m3", type=str.lower,
                         choices=MEASURE_IDS,
                         help="competence measure for ds/dw/dws (default m3)")
    _add_common(predict, ("global", "none"))
    predict.set_defaults(func=cmd_predict)

    inspect = sub.add_parser(
        "inspect", help="leave one row out and show its region and member scores"
    )
    inspect.add_argument("--data", required=True, metavar="CSV", help="dataset file")
    inspect.add_argument("--row", required=True, type=int,
                         help="row to hold out and explain (0-based, data rows only)")
    _add_common(inspect, ("global", "none"))
    inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except CliArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
