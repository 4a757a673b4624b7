"""Loading, min-max normalization, and k-fold partitioning of regression data.

A :class:`Dataset` is an immutable (features, targets) pair. The ingestion
format is plain CSV: comma separated, decimal point ``.``, an optional single
header line, no quoting of numeric cells. The target is one column of the
file (by default the last one); every other column is a feature.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import make_rng


class DatasetError(ValueError):
    """Raised for unreadable, malformed, or empty dataset files."""


@dataclass(frozen=True)
class Dataset:
    """An in-memory regression dataset.

    features : (n_instances, n_features) float array
    targets  : (n_instances,) float array
    name     : identifier used in reports (usually the file stem)
    """

    features: np.ndarray
    targets: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))
        if self.features.ndim != 2 or self.targets.ndim != 1:
            raise DatasetError("features must be 2-D and targets 1-D")
        if self.features.shape[0] != self.targets.shape[0]:
            raise DatasetError(
                f"row count mismatch: {self.features.shape[0]} feature rows "
                f"vs {self.targets.shape[0]} targets"
            )
        self.features.setflags(write=False)
        self.targets.setflags(write=False)

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """Dataset restricted to the given row indices (order preserved)."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.targets[idx], self.name)


@dataclass(frozen=True)
class NormalizationParams:
    """Per-column min/max used by :func:`normalize_minmax`.

    Columns are the feature columns in order followed by the target column.
    """

    col_min: np.ndarray
    col_max: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "col_min", np.asarray(self.col_min, dtype=float))
        object.__setattr__(self, "col_max", np.asarray(self.col_max, dtype=float))

    @property
    def col_range(self) -> np.ndarray:
        return self.col_max - self.col_min


@dataclass(frozen=True)
class FoldSplit:
    """One train/test partition of a k-fold split."""

    train_indices: np.ndarray
    test_indices: np.ndarray
    fold_id: int


def _looks_like_header(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def read_numeric_csv(path) -> tuple[np.ndarray, list[str] | None]:
    """Parse a numeric CSV file into a float matrix.

    The first line is a header when any of its cells is not a number.
    Returns the matrix and the stripped header cells (None without a header).

    Raises
    ------
    DatasetError
        For an unreadable file, an empty file, a header with no data rows,
        ragged rows, or any cell that does not parse as a finite number (the
        message names the offending row and column, 1-based as they appear
        in the file).
    """
    path = Path(path)
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # stick to the first cell.
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [r for r in csv.reader(fh) if r]  # drop blank lines
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DatasetError(f"{path}: empty file")

    column_names = None
    first_data_line = 1
    if _looks_like_header(rows[0]):
        column_names = [c.strip() for c in rows[0]]
        rows = rows[1:]
        first_data_line = 2
        if not rows:
            raise DatasetError(f"{path}: no data rows after header")

    n_cols = len(rows[0])
    values = []
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise DatasetError(
                f"{path}: ragged row {first_data_line + i}: "
                f"expected {n_cols} cells, found {len(row)}"
            )
        try:
            parsed = [float(c) for c in row]
        except ValueError:
            parsed = None
        if parsed is None or not all(map(math.isfinite, parsed)):
            _raise_bad_cell(path, row, first_data_line + i)
        values.append(parsed)
    return np.array(values, dtype=float), column_names


def _raise_bad_cell(path, row, line):
    """Name the first cell of ``row`` that is not a finite number."""
    for j, cell in enumerate(row):
        try:
            v = float(cell)
        except ValueError:
            raise DatasetError(
                f"{path}: non-numeric cell {cell!r} at row {line}, column {j + 1}"
            ) from None
        if not math.isfinite(v):
            raise DatasetError(
                f"{path}: non-finite cell {cell!r} at row {line}, column {j + 1}"
            )


def load_csv(path, target_column: int | str = -1) -> Dataset:
    """Load a regression dataset from a CSV file (parsed by :func:`read_numeric_csv`).

    Parameters
    ----------
    path : file path
    target_column : int or str
        Column holding the target: an index (negative allowed, default is
        the last column) or, when the file has a header, a column name.

    Raises
    ------
    DatasetError
        For any file :func:`read_numeric_csv` rejects, a file with fewer
        than two columns, or a target column that is absent.
    """
    path = Path(path)
    values, column_names = read_numeric_csv(path)
    n_cols = values.shape[1]
    if n_cols < 2:
        raise DatasetError(f"{path}: need at least two columns (features and target)")

    if isinstance(target_column, str):
        if column_names is None:
            raise DatasetError(
                f"{path}: target column {target_column!r} given by name "
                "but the file has no header"
            )
        try:
            t = column_names.index(target_column)
        except ValueError:
            raise DatasetError(
                f"{path}: no column named {target_column!r}; "
                f"columns are {column_names}"
            ) from None
    else:
        t = int(target_column)
        if t < 0:
            t += n_cols
        if not 0 <= t < n_cols:
            raise DatasetError(f"{path}: target column {target_column} out of range")

    features = np.delete(values, t, axis=1)
    targets = values[:, t]
    return Dataset(features, targets, name=path.stem)


def normalize_minmax(d: Dataset) -> tuple[Dataset, NormalizationParams]:
    """Map every column of ``d`` (features and target) into [0, 1].

    Each column c is mapped x -> (x - min_c) / (max_c - min_c). A constant
    column maps to all zeros. Returns the normalized dataset together with
    the per-column parameters, so new data can be mapped the same way with
    :func:`apply_normalization` and predicted targets mapped back with
    :func:`denormalize_targets`.

    Raises DatasetError for an empty dataset, or when a column's
    ``max_c - min_c`` overflows float64, naming the first such column
    (1-based, features then target) with its min and max.
    """
    if d.n_instances == 0:
        raise DatasetError("cannot normalize an empty dataset")
    cols = np.column_stack([d.features, d.targets])
    lo = cols.min(axis=0)
    hi = cols.max(axis=0)
    with np.errstate(over="ignore"):
        overflow = np.flatnonzero(~np.isfinite(hi - lo))
    if overflow.size:
        c = overflow[0]
        raise DatasetError(
            f"{d.name}: column {c + 1} runs from {lo[c]:.6g} to {hi[c]:.6g}, a range "
            "that overflows float64; rescale it before normalizing"
        )
    params = NormalizationParams(lo, hi)
    normalized = apply_normalization(d, params)
    return normalized, params


def apply_normalization(d: Dataset, params: NormalizationParams) -> Dataset:
    """Apply stored min/max parameters to a dataset.

    Data outside the range the parameters were computed on maps outside
    [0, 1]; only the dataset the parameters came from is guaranteed to land
    inside. Columns that were constant when the parameters were computed
    map to 0.
    """
    out = apply_minmax(np.column_stack([d.features, d.targets]), params)
    return Dataset(out[:, :-1], out[:, -1], d.name)


def apply_minmax(matrix, params: NormalizationParams) -> np.ndarray:
    """Apply stored min/max parameters to the leading columns of a matrix.

    A matrix with every column (features, then target) is mapped whole; a
    feature-only matrix, such as query rows, uses the feature columns'
    parameters. The mapping is that of :func:`apply_normalization`.
    """
    cols = np.asarray(matrix, dtype=float)
    n = cols.shape[1]
    rng_ = params.col_range[:n]
    scale = np.where(rng_ > 0, rng_, 1.0)
    out = (cols - params.col_min[:n]) / scale
    out[:, rng_ == 0] = 0.0
    return out


def denormalize_targets(values, params: NormalizationParams) -> np.ndarray:
    """Map normalized target values back to their original scale."""
    values = np.asarray(values, dtype=float)
    return values * params.col_range[-1] + params.col_min[-1]


def kfold_split(n: int, folds: int, seed: int) -> list[FoldSplit]:
    """Randomly deal ``n`` instances into ``folds`` test sets of near-equal size.

    Instances are permuted by a generator seeded with ``seed`` and cut into
    contiguous chunks; fold sizes differ by at most one. Each instance lands
    in exactly one test set; indices within each fold are sorted ascending.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if folds > n:
        raise ValueError(f"folds ({folds}) exceeds instance count ({n})")
    perm = make_rng(seed).permutation(n)
    base, extra = divmod(n, folds)
    splits = []
    start = 0
    for fold_id in range(folds):
        size = base + (1 if fold_id < extra else 0)
        test = np.sort(perm[start : start + size])
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        splits.append(FoldSplit(np.flatnonzero(mask), test, fold_id))
        start += size
    return splits
