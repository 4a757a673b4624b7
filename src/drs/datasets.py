"""Loading, min-max normalization, and k-fold partitioning of regression data.

A :class:`Dataset` is an immutable (features, targets) pair. The ingestion
format is CSV as the csv module reads it: comma separated, an optional
single header row, blank lines skipped, any cell optionally quoted with
``"``. Every data cell, once unquoted, must be a finite number that
Python's ``float`` reads: decimal point ``.``, surrounding whitespace
allowed. The target is one column of the file (by default the last one);
every other column is a feature.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
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


def read_numeric_csv(path) -> tuple[np.ndarray, list[str] | None]:
    """Parse a numeric CSV file into a float matrix.

    The first non-blank row is a header when any of its cells does not
    parse as a float (``nan`` and ``inf`` do, so such a row is data, and
    rejected). Returns the matrix and the stripped header cells (None
    without a header).

    Two parsers read the file. numpy's C reader (``np.loadtxt``) goes
    first, and its matrix is kept only when it read every cell and every
    value is finite. It leaves to the second any file whose data rows hold
    a quote, a character 0x1c-0x1f or a line over the csv module's field
    size limit. The second re-reads the file row by row with the csv module
    and ``float``. It alone words every error, and both give the same bits
    for every file the C reader accepts.

    Raises
    ------
    DatasetError
        For an unreadable file, a file that is not UTF-8, a row the csv
        module cannot parse (such as a cell over its field size limit), an
        empty file, a header with no data rows, ragged rows (a data row must
        also have the header's cell count), or any cell that does not parse
        as a finite number. The message names the offending row and column,
        1-based; rows count the file's non-blank rows, the header included.
        Rows are checked in file order and the first fault is reported.
    """
    return _read_plain(path) or _read_rows(path)


def _read_plain(path):
    """:func:`read_numeric_csv`'s result by ``np.loadtxt``, or None."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
            row = next(filter(None, csv.reader(fh)), [])
            try:
                [float(c) for c in row]
            except ValueError:
                header = [c.strip() for c in row]
            else:
                header = None
                fh.seek(0)  # the first row is data, so loadtxt reads it too
            # Turns "input contained no data" into an exception.
            warnings.simplefilter("error", UserWarning)
            values = np.loadtxt(_plain_lines(fh), delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, csv.Error, UserWarning):
        return None
    if header is not None and len(header) != values.shape[1]:
        return None
    return (values, header) if np.isfinite(values).all() else None


def _plain_lines(fh):
    """The lines of ``fh``, with a ValueError at any line numpy may misread.

    A quoted cell can span lines, and only the csv module caps a cell at its
    field size limit. numpy also strips characters 0x1c-0x1f around a
    number, where ``float`` rejects them.
    """
    limit = csv.field_size_limit()
    for line in fh:
        if (len(line) > limit or '"' in line or "\x1c" in line or "\x1d" in line
                or "\x1e" in line or "\x1f" in line):
            raise ValueError("a line left to the row-by-row parser")
        yield line


def _read_rows(path):
    """:func:`read_numeric_csv` row by row, into one flat float buffer."""
    path = Path(path)
    values = array("d")
    column_names = None
    n_cols = None
    line = 0  # non-blank rows so far, the header included
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # stick to the first cell.
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue  # a blank line
                line += 1
                try:
                    parsed = [float(c) for c in row]
                except ValueError:
                    parsed = None
                if n_cols is None:
                    if line == 1 and parsed is None:
                        column_names = [c.strip() for c in row]
                        continue
                    # Data rows must have as many cells as the header.
                    n_cols = len(column_names or row)
                if len(row) != n_cols:
                    raise DatasetError(
                        f"{path}: ragged row {line}: expected {n_cols} cells, found {len(row)}"
                    )
                if parsed is None or not all(map(math.isfinite, parsed)):
                    _raise_bad_cell(path, row, line)
                values.extend(parsed)
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    except csv.Error as exc:
        # Raised by the reader on the row after the last one it returned,
        # e.g. for a cell over its field size limit.
        raise DatasetError(f"{path}: unreadable row {line + 1}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # The decoder's position counts from its current chunk, not the file.
        byte = exc.object[exc.start]
        raise DatasetError(
            f"cannot read {path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})"
        ) from exc
    if not line:
        raise DatasetError(f"{path}: empty file")
    if n_cols is None:
        raise DatasetError(f"{path}: no data rows after header")
    return np.frombuffer(values, dtype=float).reshape(-1, n_cols), column_names


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

    # Both are copies, so the parsed matrix is released on return.
    features = np.delete(values, t, axis=1)
    targets = np.ascontiguousarray(values[:, t])
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
    apply_minmax(cols, params)
    return Dataset(cols[:, :-1], cols[:, -1], d.name), params


def apply_normalization(d: Dataset, params: NormalizationParams) -> Dataset:
    """Apply stored min/max parameters to a dataset.

    Data outside the range the parameters were computed on maps outside
    [0, 1]; only the dataset the parameters came from is guaranteed to land
    inside. Columns that were constant when the parameters were computed
    map to 0. Raises DatasetError as :func:`apply_minmax` does.
    """
    cols = np.column_stack([d.features, d.targets])
    apply_minmax(cols, params)
    return Dataset(cols[:, :-1], cols[:, -1], d.name)


def apply_minmax(matrix, params: NormalizationParams) -> np.ndarray:
    """Map the leading columns of a matrix in place with stored min/max parameters.

    A matrix with every column (features, then target) is mapped whole; a
    feature-only matrix, such as query rows, uses the feature columns'
    parameters. The mapping is that of :func:`apply_normalization`. It is
    written into ``np.asarray(matrix, dtype=float)``, which is returned: a
    float64 array is overwritten, anything else is converted first.

    Raises DatasetError, naming the first such cell (1-based row and
    column, in row-major order), when a value lies so far outside its
    column's range that the mapped value overflows float64; ``matrix`` is
    then left untouched. The map is monotone in each column and NaN
    propagates through min and max, so only the minimum and maximum of each
    varying column are checked, not every cell.
    """
    cols = np.asarray(matrix, dtype=float)
    n = cols.shape[1]
    rng_ = params.col_range[:n]
    scale = np.where(rng_ > 0, rng_, 1.0)

    def mapped(values):
        with np.errstate(over="ignore"):
            values -= params.col_min[:n]
            values /= scale
        values[:, rng_ == 0] = 0.0
        return values

    extremes = np.stack([cols.min(axis=0), cols.max(axis=0)]) if len(cols) else cols
    if not np.isfinite(mapped(extremes)).all():
        i, c = np.argwhere(~np.isfinite(mapped(cols.copy())))[0]
        raise DatasetError(
            f"row {i + 1}, column {c + 1}: {cols[i, c]:.6g} lies so far outside the "
            f"column's range, {params.col_min[c]:.6g} to {params.col_max[c]:.6g}, that "
            "min-max scaling overflows float64; try --normalize none"
        )
    return mapped(cols)


def denormalize_targets(values, params: NormalizationParams) -> np.ndarray:
    """Map normalized target values back to their original scale."""
    values = np.asarray(values, dtype=float)
    return values * params.col_range[-1] + params.col_min[-1]


def kfold_split(n: int, folds: int, seed: int) -> list[FoldSplit]:
    """Randomly deal ``n`` instances into ``folds`` test sets of near-equal size.

    Instances are permuted by a generator seeded with ``seed`` and cut into
    contiguous chunks, the first ``n % folds`` of them one row longer. Each
    instance lands in exactly one test set; a fold's test and train indices
    are sorted ascending.
    """
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if folds > n:
        raise ValueError(f"folds ({folds}) exceeds instance count ({n})")
    chunks = np.array_split(make_rng(seed).permutation(n), folds)
    return [
        FoldSplit(np.setdiff1d(np.arange(n), test), test, fold_id)
        for fold_id, test in enumerate(map(np.sort, chunks))
    ]
