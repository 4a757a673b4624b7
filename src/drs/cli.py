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

Every command describes its run as one ``RunConfig``, so in all three the
algorithm and measure names are case-insensitive, and an unknown name, a
size below its minimum or ``m1`` with ``--k 1`` exits with code 2 before
any file is read. Every option defaults to the library's value
(``RunConfig()``, its ``TreeParams()`` and the fixed seed), so repeated
runs are byte-identical.
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


def _config(ns, algorithms, measures, **bench_fields) -> RunConfig:
    """The run of ``algorithms`` and ``measures`` that ``ns``'s common flags
    and ``bench_fields`` describe. RunConfig checks it; ``--k`` and
    ``--members`` are checked first so that the message names the flag."""
    _require(ns.k >= 1, f"--k must be >= 1 (got {ns.k})")
    _require(ns.members >= 1, f"--members must be >= 1 (got {ns.members})")
    return RunConfig(
        algorithms=algorithms, measures=measures, k=ns.k, n_members=ns.members,
        seed=ns.seed, tree_params=_tree_params(ns), normalization=ns.normalize,
        **bench_fields,
    )


def _normalized(config, train, query_x):
    """The training set as ``config.normalization`` maps it, the min-max
    parameters that map predictions back (None for ``none``), and the
    ``(ensemble, individual)`` that ``config.algorithms`` need, fitted on
    that training set. The query rows ``query_x`` are mapped the same way
    in place, so they must be a writable array of their own, and the query
    side holds one copy of its rows. ``config.k`` is checked against the
    training rows first, when a dynamic algorithm needs neighbours."""
    if set(config.algorithms) & set(DYNAMIC_ALGORITHMS):
        _require(config.k <= train.n_instances,
                 f"--k ({config.k}) exceeds the number of training rows ({train.n_instances})")
    params = None
    if config.normalization == "global":
        train, params = normalize_minmax(train)
        apply_minmax(query_x, params)
    ensemble, individual = fit_models(
        config.algorithms, train.features, train.targets,
        config.n_members, config.tree_params, config.seed,
    )
    return train, params, ensemble, individual


def cmd_bench(ns) -> int:
    _require(bool(ns.data), "--data is required")
    config = _config(
        ns, parse_algorithms(ns.algo), parse_measures(ns.measures),
        folds=ns.folds, replications=ns.reps, scale=ns.scale, jobs=ns.jobs,
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


def _first_survivors(selected, count):
    """Flat indices into the (B, N) mask ``selected`` of each row's first
    ``count`` True entries, (B, count). Every row holds at least one; a row
    with fewer than ``count`` ends in entries that are not its own."""
    survivors = np.flatnonzero(selected)
    kept = selected.sum(axis=1)
    positions = (np.cumsum(kept) - kept)[:, None] + np.arange(count)
    return survivors[np.minimum(positions, survivors.size - 1)]


# The text of every n // 100 and n % 100 for n in 0..10000: "0.37" and "05".
_HUNDREDTHS = np.array([f"{q // 100}.{q % 100:02d}" for q in range(101)], dtype=object)
_DIGIT_PAIRS = np.array([f"{r:02d}" for r in range(100)], dtype=object)


def _four_places(w):
    """``'%.4f' % x`` for every x of the float array ``w``, as two object
    arrays of strings whose concatenation is that text.

    An x in [0, 1] is spelled from n = rint(x * 1e4) by two table lookups.
    x * 1e4 rounds once, and every half-integer below 2^52 is a float, so
    unless the rounded product is itself a half-integer, the exact product
    lies on the same side of every half-integer, and rint gives the
    correctly rounded n that '%.4f' prints. Any other x (negative, -0.0,
    above 1, NaN or inf), and any x whose product is a half-integer, is
    formatted by '%.4f' itself, whole in the first array.
    """
    w = np.asarray(w, dtype=float)
    exact = (w <= 1) & ~np.signbit(w)
    scaled = np.where(exact, w, 0.0) * 1e4
    n = np.rint(scaled)
    exact &= np.abs(scaled - n) != 0.5
    hundredths, pairs = np.divmod(n.astype(np.intp), 100)
    head, tail = _HUNDREDTHS[hundredths], _DIGIT_PAIRS[pairs]
    for i in zip(*np.nonzero(~exact)):
        head[i], tail[i] = "%.4f" % w[i], ""
    return head, tail


def _labels(values, spell):
    """``spell(v)`` for every nonnegative int v of the array ``values``, as an
    object array of its shape, calling ``spell`` once per distinct value.
    (Marking the values present, rather than np.unique, keeps numpy's integer
    sort kernels, half a megabyte of code pages, out of resident memory.)"""
    present = np.zeros(values.max(initial=-1) + 1, dtype=bool)
    present[values] = True
    distinct = np.flatnonzero(present)
    texts = np.empty(present.size, dtype=object)
    texts[distinct] = [spell(v) for v in distinct.tolist()]
    return texts[values]


def _dws_pieces(heads, weights, measure):
    """One block's DWS lines as string pieces, in order. Each row is laid
    out in 33 columns: its head, ``kept n/N members:``, then for each of
    the first ten survivors its index and the two halves of its weight, and
    the ``, +k more)`` tail, which ends the row right after its last shown
    pair."""
    selected = weights.selected
    n_members = selected.shape[1]
    first = _first_survivors(selected, 10)
    index = first % n_members
    kept = selected.sum(axis=1)
    ends = 2 + 3 * np.minimum(kept, 10)
    pieces = np.empty((len(kept), 33), dtype=object)
    pieces[:, 0] = heads
    pieces[:, 1] = _labels(kept, f"  ({measure}: kept {{}}/{n_members} members: ".format)
    pairs = pieces[:, 2:32].reshape(len(kept), 10, 3)  # a view: index, weight head, tail
    pairs[:, 0, 0] = _labels(index[:, 0], "{}*".format)
    pairs[:, 1:, 0] = _labels(index[:, 1:], ", {}*".format)
    pairs[:, :, 1], pairs[:, :, 2] = _four_places(weights.alpha.ravel()[first])
    pieces[np.arange(len(kept)), ends] = _labels(
        kept, lambda n: f", +{n - 10} more)\n" if n > 10 else ")\n"
    )
    return pieces[np.arange(33) <= ends[:, None]]


def cmd_predict(ns) -> int:
    config = _config(ns, (ns.algo,), (ns.measure,))
    [key] = config.method_keys()
    algo, measure = key
    train = load_csv(ns.train, ns.target_col)
    query, _ = read_numeric_csv(ns.query)
    if query.shape[1] != train.n_features:
        raise DatasetError(
            f"{ns.query}: query rows have {query.shape[1]} features "
            f"but {ns.train} has {train.n_features}"
        )
    fitted, params, ensemble, individual = _normalized(config, train, query)
    answers = predict_queries(
        [key], fitted.features, fitted.targets, query, config.k, ensemble, individual,
    )
    # Each block's lines are a (B, columns) array of string pieces, written
    # with one join.
    for start, answer in answers:
        values, provenance = answer[key]
        if params:
            values = denormalize_targets(values, params)
        heads = [f"query {j}: {v:.6f}" for j, v in enumerate(values.tolist(), start=start)]
        if algo == "dws":
            pieces = _dws_pieces(heads, provenance, measure)
        else:
            pieces = np.full((len(heads), 2), "\n", dtype=object)
            pieces[:, 0] = heads
            if algo == "ds":
                pieces[:, 1] = _labels(provenance, f"  ({measure}: selected member {{}})\n".format)
        sys.stdout.write("".join(pieces.ravel().tolist()))
    return 0


def cmd_inspect(ns) -> int:
    # m1 needs two neighbours: with --k 1 it is left out, and its column reads NaN.
    config = _config(ns, DYNAMIC_ALGORITHMS, [m for m in MEASURE_IDS if m != "m1" or ns.k > 1])
    data = load_csv(ns.data, ns.target_col)
    row = ns.row
    _require(
        0 <= row < data.n_instances,
        f"--row {row} out of range: {ns.data} has rows 0..{data.n_instances - 1}",
    )
    keep = np.r_[0:row, row + 1 : data.n_instances]
    reference = data.subset(keep)
    query_x = data.features[[row]]  # a copy, which _normalized maps in place
    fitted, params, ensemble, _ = _normalized(config, reference, query_x)
    # The query is a block of one row; its region and scores are row 0.
    region = build_region(
        query_x, fitted.features, fitted.targets,
        ensemble.predict_all(fitted.features), config.k,
    )
    qp = ensemble.predict_all(query_x)[:, 0]

    print(f"query: row {row} of {ns.data} (target {data.targets[row]:.6f}), "
          f"reference: the other {reference.n_instances} rows")
    print(f"ensemble: {config.n_members} members, seed {config.seed}; "
          f"ensemble mean prediction "
          f"{float(denormalize_targets([qp.mean()], params)[0]) if params else qp.mean():.6f}")
    print(f"\nregion of competence (k={config.k}, nearest first):")
    print("  rank  row  distance      weight    observed")
    for r in range(region.k):
        print(
            f"  {r + 1:4d}  {keep[region.neighbor_indices[0, r]]:4d}"
            f"  {region.distances[0, r]:<12.6g}  {region.d_weights[0, r]:<8.6f}"
            f"  {region.observed[0, r]:.6f}"
        )

    columns = {
        m: score_all(m, region, qp[None])[0] if m in config.measures
        else np.full(len(ensemble.members), np.nan)
        for m in MEASURE_IDS
    }
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
                         help="single, mean, median, ds, dw or dws (default %(default)s)")
    predict.add_argument("--measure", default="m3",
                         help="ds/dw/dws competence measure, m1..m8 (default %(default)s)")
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
