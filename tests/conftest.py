"""Shared fixtures and small builders used across the test modules."""

import math
from pathlib import Path

import numpy as np
import pytest

from drs.region import RegionOfCompetence, inverse_distance_weights

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def reference_find_neighbors(x, reference_features, k):
    """The full-distance search that ``region.find_neighbors`` must match bit
    for bit: the exact distance to every reference row of each query in the
    (B, d) block, then a stable argsort's first k of each row."""
    ref = np.asarray(reference_features, dtype=float)
    diff = ref - np.asarray(x, dtype=float)[:, None, :]
    diff **= 2
    dist = np.sqrt(diff.sum(axis=-1))
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return nearest, np.take_along_axis(dist, nearest, axis=1)


@pytest.fixture
def two_neighbor_region() -> RegionOfCompetence:
    """A one-query block: K=2 region at distances 1 and 3 (weights
    0.75/0.25), observed targets [0.5, 0.8], one member predicting
    [0.4, 1.0] on the neighbors."""
    return RegionOfCompetence(
        neighbor_indices=np.array([[0, 1]]),
        distances=np.array([[1.0, 3.0]]),
        d_weights=np.array([[0.75, 0.25]]),
        observed=np.array([[0.5, 0.8]]),
        member_predictions=np.array([[[0.4, 1.0]]]),
    )


def random_region(rng: np.random.Generator, k: int, n_members: int) -> RegionOfCompetence:
    """A structurally valid one-query block region with random contents:
    ascending positive distances, weights from the real weight rule, random
    observations and member predictions."""
    distances = np.sort(rng.uniform(0.05, 5.0, size=(1, k)))
    return RegionOfCompetence(
        neighbor_indices=np.arange(k)[None],
        distances=distances,
        d_weights=inverse_distance_weights(distances),
        observed=rng.normal(size=(1, k)),
        member_predictions=rng.normal(size=(1, n_members, k)),
    )


def oracle_score(measure, observed, d, preds_on_region, query_pred):
    """Brute-force reference for one member's competence, pure Python."""
    K = len(observed)
    if measure == "m1" and K < 2:
        raise ValueError("m1 needs at least 2 neighbors")
    errs = [observed[k] - preds_on_region[k] for k in range(K)]
    if measure == "m1":
        mean = sum(preds_on_region) / K
        return sum((p - mean) ** 2 for p in preds_on_region) / (K - 1)
    if measure == "m2":
        return sum(abs(errs[k]) * d[k] for k in range(K))
    if measure == "m3":
        return sum(errs[k] ** 2 * d[k] for k in range(K))
    if measure == "m4":
        return min(errs[k] ** 2 * d[k] for k in range(K))
    if measure == "m5":
        return max(errs[k] ** 2 * d[k] for k in range(K))
    if measure == "m6":
        return sum((observed[k] - query_pred) ** 2 * d[k] for k in range(K))
    if measure == "m7":
        return sum(math.sqrt(errs[k] ** 2 * d[k]) for k in range(K))
    if measure == "m8":
        return errs[0] ** 2
    raise AssertionError(measure)


def write_csv(path: Path, features: np.ndarray, targets: np.ndarray, header=None) -> Path:
    """Write a feature matrix plus target column as a plain CSV file."""
    rows = []
    if header is not None:
        rows.append(",".join(header))
    for x, y in zip(features, targets):
        rows.append(",".join(f"{float(v)!r}" for v in x) + f",{float(y)!r}")
    path.write_text("\n".join(rows) + "\n")
    return path


def synthetic_dataset(rng: np.random.Generator, n: int, d: int = 4):
    """Smooth nonlinear response with mild noise; returns (features, targets)."""
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    y = (
        X[:, 0] ** 2
        + np.sin(2.0 * X[:, 1 % d])
        + 0.5 * X[:, 2 % d]
        + rng.normal(0.0, 0.05, size=n)
    )
    return X, y
