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

Every option defaults to the library's value (``RunConfig()``, its
``TreeParams()`` and the fixed seed), so repeated runs are byte-identical.
``drs <command> @FILE`` reads arguments from FILE, one per line, as if they
stood in its place: a later flag wins, and its ``--data`` lines add to the
others. Exit codes: 0 on success, 1 for unreadable or malformed files (or
an output pipe its reader closed, which prints nothing), 2 for invalid
arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .bench import (
    ALGORITHMS,
    DYNAMIC_ALGORITHMS,
    NORMALIZATION_MODES,
    SCALES,
    RunConfig,
    fit_models,
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
# Unused here since predict and inspect fit through bench.fit_models and predict
# answers through bench.predict_queries, but perfbench/spans.py TRACE_POINTS
# still wraps these names and fit_individual and generate_ensemble in drs.cli.
from .selection import ds_predict, dw_predict, dw_weights, dws_predict


class CliArgumentError(ValueError):
    """Invalid flag value; reported on stderr with exit code 2."""


def _require(condition: bool, message: str):
    if not condition:
        raise CliArgumentError(message)


def _parse_names(listing, names, what) -> tuple[str, ...]:
    """Parse a comma list of ``names``, ``all`` and ``a..b`` ranges.

    Case is ignored, and a name given twice keeps its first place.
    """
    def index(token):
        token = token.strip()
        _require(token in names,
                 f"unknown {what} {token!r}; expected one of {', '.join(names)}")
        return names.index(token)

    out = []
    for part in str(listing).lower().split(","):
        token = part.strip()
        if token == "all":
            out.extend(names)
        elif token:
            lo, dots, hi = token.partition("..")
            first = index(lo)
            last = index(hi) if dots else first
            _require(first <= last, f"empty {what} range {token!r}")
            out.extend(names[first : last + 1])
    _require(bool(out), f"no {what}s in {listing!r}")
    return tuple(dict.fromkeys(out))


def parse_measures(listing) -> tuple[str, ...]:
    """'m2,m5..m7' -> ('m2', 'm5', 'm6', 'm7'); 'all' means every measure."""
    return _parse_names(listing, MEASURE_IDS, "measure")


def parse_algorithms(listing) -> tuple[str, ...]:
    """'mean..ds,dws' -> ('mean', 'median', 'ds', 'dws'); 'all' means every algorithm."""
    return _parse_names(listing, ALGORITHMS, "algorithm")


def _int_or_name(raw: str):
    try:
        return int(raw)
    except ValueError:
        return raw


def _tree_params(ns) -> TreeParams:
    max_depth = None
    if str(ns.max_depth).strip().lower() not in {"none", "unlimited"}:
        try:
            max_depth = int(ns.max_depth)
        except ValueError as exc:
            raise CliArgumentError(f"max_depth={ns.max_depth!r}: {exc}") from None
    return TreeParams(ns.min_parent_size, ns.min_leaf_size, max_depth)


def _require_sizes(ns):
    _require(ns.k >= 1, f"--k must be >= 1 (got {ns.k})")
    _require(ns.members >= 1, f"--members must be >= 1 (got {ns.members})")


def _normalized(ns, algorithms, train, query_x):
    """The training set and query rows as ``--normalize`` maps them, the
    min-max parameters that map predictions back (None for ``none``), and
    the ``(ensemble, individual)`` that ``algorithms`` need, fitted on that
    training set. ``--k`` is checked against the training rows first."""
    _require(ns.k <= train.n_instances,
             f"--k ({ns.k}) exceeds the number of training rows ({train.n_instances})")
    params = None
    if ns.normalize == "global":
        train, params = normalize_minmax(train)
        query_x = apply_minmax(query_x, params)
    ensemble, individual = fit_models(
        algorithms, train.features, train.targets, ns.members, _tree_params(ns), ns.seed,
    )
    return train, query_x, params, ensemble, individual


def cmd_bench(ns) -> int:
    _require(bool(ns.data), "--data is required")
    _require_sizes(ns)
    config = RunConfig(
        algorithms=parse_algorithms(ns.algo),
        measures=parse_measures(ns.measures),
        k=ns.k,
        n_members=ns.members,
        folds=ns.folds,
        replications=ns.reps,
        seed=ns.seed,
        tree_params=_tree_params(ns),
        normalization=ns.normalize,
        scale=ns.scale,
        jobs=ns.jobs,
    )

    datasets = []
    for p in ns.data:
        d = load_csv(p, ns.target_col)
        name, n = d.name, 1
        while any(other.name == name for other in datasets):  # the first free #n
            n += 1
            name = f"{d.name}#{n}"
        datasets.append(dataclasses.replace(d, name=name))

    result = run_benchmark(config, datasets)
    written = write_outputs(result, ns.out)
    sys.stdout.write(render_table(result))
    print(f"wrote {', '.join(p.name for p in written)} to {ns.out}/")
    return 0


def cmd_predict(ns) -> int:
    _require_sizes(ns)
    algo = ns.algo
    measure = ns.measure
    _require(
        not (algo in DYNAMIC_ALGORITHMS and measure == "m1" and ns.k < 2),
        f"m1 needs at least 2 neighbors (got --k {ns.k})",
    )
    train = load_csv(ns.train, ns.target_col)
    query, _ = read_numeric_csv(ns.query)
    if query.shape[1] != train.n_features:
        raise DatasetError(
            f"{ns.query}: query rows have {query.shape[1]} features "
            f"but {ns.train} has {train.n_features}"
        )
    fitted, query_x, params, ensemble, individual = _normalized(ns, (algo,), train, query)
    key = (algo, measure if algo in DYNAMIC_ALGORITHMS else "")
    answers = predict_queries(
        [key], fitted.features, fitted.targets, query_x, ns.k, ensemble, individual,
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
    _require_sizes(ns)
    data = load_csv(ns.data, ns.target_col)
    row = ns.row
    _require(
        0 <= row < data.n_instances,
        f"--row {row} out of range: {ns.data} has rows 0..{data.n_instances - 1}",
    )
    keep = np.r_[0:row, row + 1 : data.n_instances]
    reference = data.subset(keep)
    fitted, query_x, params, ensemble, _ = _normalized(ns, DYNAMIC_ALGORITHMS, reference,
                                                       data.features[row][None])
    # The query is a block of one row; its region and scores are row 0.
    region = build_region(
        query_x, fitted.features, fitted.targets,
        ensemble.predict_all(fitted.features), ns.k,
    )
    qp = ensemble.predict_all(query_x)[:, 0]

    print(f"query: row {row} of {ns.data} (target {data.targets[row]:.6f}), "
          f"reference: the other {reference.n_instances} rows")
    print(f"ensemble: {ns.members} members, seed {ns.seed}; "
          f"ensemble mean prediction "
          f"{float(denormalize_targets([qp.mean()], params)[0]) if params else qp.mean():.6f}")
    print(f"\nregion of competence (k={ns.k}, nearest first):")
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


def _add_common(parser: argparse.ArgumentParser, normalize_choices, config: RunConfig):
    tree = config.tree_params
    parser.add_argument("--k", type=int, default=config.k,
                        help="region-of-competence size (default %(default)s)")
    parser.add_argument("--members", type=int, default=config.n_members,
                        help="ensemble size (default %(default)s)")
    parser.add_argument("--seed", type=int, default=config.seed,
                        help="base seed; every random draw derives from it (default %(default)s)")
    parser.add_argument("--target-col", type=_int_or_name, default=-1,
                        help="target column index (default %(default)s, the last) or header name")
    parser.add_argument("--normalize", choices=normalize_choices, default=config.normalization,
                        help="min-max scaling of features and target (default %(default)s)")
    parser.add_argument("--min-parent-size", type=int, default=tree.min_parent_size,
                        help="smallest node a tree may split (default %(default)s)")
    parser.add_argument("--min-leaf-size", type=int, default=tree.min_leaf_size,
                        help="smallest child a split may create (default %(default)s)")
    parser.add_argument("--max-depth", default=tree.max_depth, metavar="N",
                        help="tree depth cap: an integer or 'none' (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drs",
        description="Dynamic selection, weighting, and fusion of bagged "
                    "regression-tree ensembles.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = RunConfig()

    bench = sub.add_parser("bench", help="replicated cross-validation benchmark")
    bench.add_argument("--data", action="append", metavar="CSV",
                       help="dataset file; repeat for several datasets")
    bench.add_argument("--algo", default="all",
                       help="comma list with ranges over single,mean,median,ds,dw,dws, "
                            "e.g. 'mean..ds,dws', or 'all' (default %(default)s)")
    bench.add_argument("--measures", default="all",
                       help="comma list with ranges, e.g. 'm2,m5..m7' or 'all' "
                            "(default %(default)s)")
    bench.add_argument("--folds", type=int, default=config.folds,
                       help="cross-validation folds (default %(default)s)")
    bench.add_argument("--reps", type=int, default=config.replications,
                       help="replications, each with a fresh fold split (default %(default)s)")
    bench.add_argument("--jobs", type=int, default=config.jobs,
                       help="worker processes; results never depend on it (default %(default)s)")
    bench.add_argument("--scale", choices=SCALES, default=config.scale,
                       help="table cell scale (default %(default)s)")
    bench.add_argument("--out", default="drs-out", metavar="DIR",
                       help="output directory (default %(default)s)")
    _add_common(bench, NORMALIZATION_MODES, config)
    bench.set_defaults(func=cmd_bench)

    predict = sub.add_parser("predict", help="fit on one CSV, predict another")
    predict.add_argument("--train", required=True, metavar="CSV",
                         help="training data with a target column")
    predict.add_argument("--query", required=True, metavar="CSV",
                         help="feature-only rows to predict")
    predict.add_argument("--algo", default="ds",
                         choices=ALGORITHMS,
                         help="prediction algorithm (default %(default)s)")
    predict.add_argument("--measure", default="m3", type=str.lower,
                         choices=MEASURE_IDS,
                         help="competence measure for ds/dw/dws (default %(default)s)")
    _add_common(predict, ("global", "none"), config)
    predict.set_defaults(func=cmd_predict)

    inspect = sub.add_parser(
        "inspect", help="leave one row out and show its region and member scores"
    )
    inspect.add_argument("--data", required=True, metavar="CSV", help="dataset file")
    inspect.add_argument("--row", required=True, type=int,
                         help="row to hold out and explain (0-based, data rows only)")
    _add_common(inspect, ("global", "none"), config)
    inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so that the
        # interpreter's last flush stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
