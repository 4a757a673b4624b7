"""The benchmark's workloads: their inputs, one operation each, and output checks.

Every operation is one ``drs.cli.main(argv)`` call, exactly what a user
runs on the command line. The workload seed is the ``--seed`` given to drs
and also seeds the generated query rows, so a claim can be rechecked on a
seed that was not used while the change was written.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1729
TRAIN_CSV = Path("data") / "housing.csv"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The acceptance protocol of the cross-validation benchmark.
CV_ALGORITHMS = ("single", "mean", "median", "ds", "dw")
CV_MEASURES = ("m2", "m3", "m7")
RESULTS_HEADER = ["dataset", "algorithm", "measure", "mse_mean", "mse_std", "scale"]
# Stored results are compared at this relative tolerance, so a change that
# only reorders floating-point sums still passes and any real change fails.
RESULTS_RTOL = 1e-9
QUERY_JITTER = 0.05  # share of each column's range


@dataclass(frozen=True)
class Workload:
    """One benchmark workload. ``reference`` names the stored outputs that
    the default seed must reproduce (None for reduced test sizes)."""

    name: str
    command: str  # "bench" or "predict"
    jobs: int = 1
    members: int = 100
    folds: int = 10
    queries: int = 20_000
    reference: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cv-housing", "bench", reference="cv-housing"),
        Workload("predict-stream", "predict", reference="predict-stream"),
        Workload("cv-housing-2jobs", "bench", jobs=2, reference="cv-housing"),
    )
}


@dataclass(frozen=True)
class Inputs:
    train_csv: Path
    n_train: int
    target_min: float
    target_max: float
    query_csv: Path | None = None
    n_queries: int = 0


def prepare(workload: Workload, seed: int, root: Path, workdir: Path) -> Inputs:
    """Load the training data and, for predict workloads, write the query rows.

    Query rows are housing rows drawn with replacement and jittered by up to
    QUERY_JITTER of each column's range, clipped to that range.
    """
    from drs.datasets import load_csv

    train_csv = Path(root) / TRAIN_CSV
    train = load_csv(train_csv)
    inputs = Inputs(
        train_csv, train.n_instances, float(train.targets.min()), float(train.targets.max())
    )
    if workload.command != "predict":
        return inputs
    rng = np.random.default_rng(seed)
    X = train.features
    lo, hi = X.min(axis=0), X.max(axis=0)
    rows = X[rng.integers(0, X.shape[0], size=workload.queries)]
    jitter = rng.uniform(-QUERY_JITTER, QUERY_JITTER, size=rows.shape) * (hi - lo)
    queries = np.clip(rows + jitter, lo, hi)
    query_csv = Path(workdir) / "queries.csv"
    feature_header = train_csv.read_text().splitlines()[0].rsplit(",", 1)[0]
    np.savetxt(query_csv, queries, fmt="%.6f", delimiter=",",
               header=feature_header, comments="")
    return replace(inputs, query_csv=query_csv, n_queries=workload.queries)


def argv(workload: Workload, inputs: Inputs, seed: int, out_dir: Path, jobs: int) -> list[str]:
    common = ["--seed", str(seed), "--members", str(workload.members), "--k", "10",
              "--min-leaf-size", "5"]
    if workload.command == "predict":
        return ["predict", "--train", str(inputs.train_csv), "--query", str(inputs.query_csv),
                "--algo", "dws", "--measure", "m3", *common]
    return ["bench", "--data", str(inputs.train_csv), "--algo", ",".join(CV_ALGORITHMS),
            "--measures", ",".join(CV_MEASURES), "--folds", str(workload.folds),
            "--reps", "1", "--jobs", str(jobs), "--out", str(out_dir), *common]


def rows_per_op(workload: Workload, inputs: Inputs) -> dict:
    """Input size of one op: rows trained on (summed over folds) and rows predicted."""
    if workload.command == "predict":
        return {"rows_trained": inputs.n_train, "rows_predicted": inputs.n_queries}
    n, k = inputs.n_train, workload.folds
    return {"rows_trained": n * (k - 1), "rows_predicted": n}


def run_op(args: list[str]) -> tuple[int, str, str]:
    """One ``drs`` invocation in this process; returns (exit code, stdout, stderr)."""
    from drs.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except Exception:  # a crash is a failed op; the run goes on and reports it
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def _expected_methods() -> list[tuple[str, str]]:
    keys = []
    for algo in CV_ALGORITHMS:
        if algo in ("ds", "dw", "dws"):
            keys.extend((algo, m) for m in CV_MEASURES)
        else:
            keys.append((algo, ""))
    return keys


def _parse_results(text: str) -> tuple[list[tuple[str, str]], list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != RESULTS_HEADER:
        raise ValueError(f"results.csv header is {rows[:1]}")
    keys = [(r[1], r[2]) for r in rows[1:]]
    values = [float(r[3]) for r in rows[1:]] + [float(r[4]) for r in rows[1:]]
    return keys, values


def check_bench(out_dir: Path, seed: int, workload: Workload) -> tuple[list[str], bytes]:
    """Problems with one ``drs bench`` op's results.csv, and its bytes."""
    path = Path(out_dir) / "results.csv"
    if not path.is_file():
        return [f"{path.name} missing"], b""
    data = path.read_bytes()
    try:
        keys, values = _parse_results(data.decode())
    except (ValueError, IndexError) as exc:
        return [f"results.csv unreadable: {exc}"], data
    problems = []
    if keys != _expected_methods():
        problems.append(f"results.csv rows {keys} != expected {_expected_methods()}")
    if not all(math.isfinite(v) for v in values):
        problems.append("results.csv has a non-finite MSE")
    if workload.reference and seed == DEFAULT_SEED:
        ref_keys, ref_values = _parse_results(
            (REFERENCE_DIR / f"{workload.reference}.seed{DEFAULT_SEED}.results.csv").read_text()
        )
        if keys != ref_keys or not np.allclose(values, ref_values, rtol=RESULTS_RTOL, atol=0.0):
            problems.append("results.csv differs from the stored reference")
    return problems, data


_QUERY_LINE = re.compile(r"query (\d+): (\S+)")


def printed_predictions(stdout: str) -> list[str]:
    """The prediction of each ``query j:`` line, in order, as printed."""
    values = []
    for line in stdout.splitlines():
        match = _QUERY_LINE.match(line)
        if match and int(match.group(1)) == len(values):
            values.append(match.group(2))
    return values


def predictions_digest(values: list[str]) -> str:
    return hashlib.sha256("\n".join(values).encode()).hexdigest()


def check_predict(stdout: str, seed: int, workload: Workload, inputs: Inputs):
    """Problems with one ``drs predict`` op's printed predictions, and their text."""
    values = printed_predictions(stdout)
    text = "\n".join(values).encode()
    if len(values) != inputs.n_queries:
        return [f"{len(values)} predictions for {inputs.n_queries} queries"], text
    try:
        numbers = np.array([float(v) for v in values])
    except ValueError as exc:
        return [f"unreadable prediction: {exc}"], text
    problems = []
    if not np.isfinite(numbers).all():
        problems.append("non-finite prediction")
    # Every member predicts a mean of training targets and DWS takes a convex
    # combination, so predictions stay within the target range (at print precision).
    elif numbers.min() < inputs.target_min - 1e-6 or numbers.max() > inputs.target_max + 1e-6:
        problems.append("prediction outside the training target range")
    if workload.reference and seed == DEFAULT_SEED:
        ref = (REFERENCE_DIR / f"{workload.reference}.seed{DEFAULT_SEED}.sha256").read_text()
        if predictions_digest(values) != ref.split()[0]:
            problems.append("predictions differ from the stored reference")
    return problems, text


def check(workload: Workload, inputs: Inputs, seed: int, out_dir: Path,
          code: int, stdout: str, stderr: str) -> tuple[list[str], bytes]:
    """Problems with one op's outputs (empty when correct), and the output
    bytes that every op of a run must reproduce exactly."""
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"], b""
    if workload.command == "predict":
        return check_predict(stdout, seed, workload, inputs)
    return check_bench(out_dir, seed, workload)
