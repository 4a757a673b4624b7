"""The block query path against the one-query path it replaced.

``reference_predict_queries`` is the per-query loop that ``predict_queries``
ran before it answered blocks of queries, with the one-query region,
measure and combiner arithmetic it called. ``predict_queries`` must
reproduce it bit for bit on every row: predictions, DS winners and the
DW/DWS weights and survivor sets.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR
from drs import bench
from drs.bench import ALGORITHMS, DYNAMIC_ALGORITHMS, predict_queries
from drs.datasets import load_csv, normalize_minmax
from drs.learners import TreeParams, fit_individual, generate_ensemble
from drs.measures import MEASURE_IDS
from drs.region import ZERO_DISTANCE_TOL
from drs.selection import ZERO_SCORE_TOL


def _neighbors(x, ref, k):
    dist = np.sqrt(((ref - x) ** 2).sum(axis=1))
    nearest = np.argsort(dist, kind="stable")[:k]
    return nearest, dist[nearest]


def _distance_weights(dist):
    zero = dist < ZERO_DISTANCE_TOL
    if zero.any():
        return zero / zero.sum()
    inv = 1.0 / dist
    return inv / inv.sum()


def _score(mid, observed, d, preds, qp):
    if mid == "m1":
        return np.var(preds, axis=1, ddof=1)
    if mid == "m2":
        return np.abs(observed - preds) @ d
    if mid == "m3":
        return ((observed - preds) ** 2) @ d
    if mid == "m4":
        return ((observed - preds) ** 2 * d).min(axis=1)
    if mid == "m5":
        return ((observed - preds) ** 2 * d).max(axis=1)
    if mid == "m6":
        return ((observed[None, :] - qp[:, None]) ** 2) @ d
    if mid == "m7":
        return np.sqrt((observed - preds) ** 2 * d).sum(axis=1)
    return (observed[0] - preds[:, 0]) ** 2


def _dw_alpha(s):
    zero = s < ZERO_SCORE_TOL
    if zero.any():
        return zero / zero.sum()
    inv = 1.0 / np.sqrt(s)
    return inv / inv.sum()


def _dws(s, qp):
    tau = s.min() + (s.max() - s.min()) / 2.0
    survivors = s <= tau
    if not survivors.any():
        survivors[np.argmin(s)] = True
    alpha = np.zeros(len(s))
    alpha[survivors] = _dw_alpha(s[survivors])
    return float(alpha @ qp), (alpha, survivors)


def reference_predict_queries(keys, reference_X, reference_y, query_X, k, ensemble,
                              individual=None):
    """One query at a time: yields ``{(algorithm, measure): (prediction,
    provenance)}`` per query row, provenance None for the baselines, the
    winner for ds and ``(alpha, selected)`` for dw and dws."""
    if ensemble is not None:
        member_qpreds = ensemble.predict_all(query_X)
    baselines = {}
    if ("single", "") in keys:
        baselines[("single", "")] = individual.predict(query_X)
    if ("mean", "") in keys:
        baselines[("mean", "")] = member_qpreds.mean(axis=0)
    if ("median", "") in keys:
        baselines[("median", "")] = np.median(member_qpreds, axis=0)
    measures = list(dict.fromkeys(m for a, m in keys if a in DYNAMIC_ALGORITHMS))
    if measures:
        reference_predictions = ensemble.predict_all(reference_X)
    for j in range(len(query_X)):
        if measures:
            indices, distances = _neighbors(query_X[j], reference_X, k)
            d = _distance_weights(distances)
            observed = reference_y[indices]
            preds = reference_predictions[:, indices]
            qp = member_qpreds[:, j]
            scores = {m: _score(m, observed, d, preds, qp) for m in measures}
        answers = {}
        for algo, m in keys:
            if algo == "ds":
                winner = int(np.argmin(scores[m]))
                answers[(algo, m)] = (float(qp[winner]), winner)
            elif algo == "dw":
                alpha = _dw_alpha(scores[m])
                answers[(algo, m)] = (float(alpha @ qp), (alpha, np.ones(len(alpha), bool)))
            elif algo == "dws":
                answers[(algo, m)] = _dws(scores[m], qp)
            else:
                answers[(algo, m)] = (float(baselines[(algo, m)][j]), None)
        yield answers


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_blocks_match_reference(keys, X, y, Q, k, ensemble, individual):
    want = list(reference_predict_queries(keys, X, y, Q, k, ensemble, individual))
    covered = 0
    for start, answers in predict_queries(keys, X, y, Q, k, ensemble, individual):
        assert start == covered
        for key in keys:
            values, provenance = answers[key]
            rows = want[start : start + len(values)]
            assert _same_bits(values, [r[key][0] for r in rows]), key
            if key[0] == "ds":
                assert provenance.tolist() == [r[key][1] for r in rows], key
            elif key[0] in ("dw", "dws"):
                assert _same_bits(provenance.alpha, [r[key][1][0] for r in rows]), key
                assert provenance.selected.tolist() == [r[key][1][1].tolist() for r in rows]
        covered += len(values)
    assert covered == len(Q)


GRID = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@st.composite
def query_problems(draw):
    """Small reference sets on a coarse grid (duplicate rows, zero distances
    and ties at the k-th distance), queries that include reference rows, and
    targets that are sometimes constant (every score zero)."""
    n = draw(st.integers(1, 14))
    d = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(GRID, min_size=n * d, max_size=n * d))).reshape(n, d)
    if draw(st.booleans()):
        y = np.full(n, draw(st.sampled_from([0.0, 0.25, 3.0])))
    else:
        y = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    q = draw(st.integers(1, 13))
    Q = np.array(draw(st.lists(GRID, min_size=q * d, max_size=q * d))).reshape(q, d)
    copies = draw(st.lists(st.integers(0, n - 1), max_size=q))
    Q[: len(copies)] = X[copies]
    return {
        "X": X, "y": y, "Q": Q,
        "k": draw(st.integers(1, n)),
        "members": draw(st.integers(1, 12)),
        "seed": draw(st.integers(0, 2**16)),
        "block": draw(st.integers(1, 5)),
    }


@settings(max_examples=150, deadline=None)
@given(query_problems())
def test_blocks_equal_one_query_reference(problem):
    X, y, Q, k = problem["X"], problem["y"], problem["Q"], problem["k"]
    params = TreeParams(min_parent_size=2)
    ensemble = generate_ensemble(X, y, problem["members"], params, problem["seed"])
    individual = fit_individual(X, y, params)
    measures = MEASURE_IDS if k >= 2 else MEASURE_IDS[1:]  # m1 needs two neighbors
    keys = [(a, "") for a in ALGORITHMS if a not in DYNAMIC_ALGORITHMS]
    keys += [(a, m) for a in DYNAMIC_ALGORITHMS for m in measures]
    # Blocks of `block` rows, so Q spans one block, several, and a partial last one.
    cells = problem["block"] * max(len(X), problem["members"] * k)
    with mock.patch.object(bench, "_QUERY_CELLS", cells):
        assert_blocks_match_reference(keys, X, y, Q, k, ensemble, individual)


def test_housing_blocks_equal_one_query_reference():
    """Housing's 13 features, with the default block size, a 20-member
    ensemble and every measure: the 51 rows left out of the reference set
    and 549 jittered housing rows, more than one block."""
    housing, _ = normalize_minmax(load_csv(DATA_DIR / "housing.csv"))
    X, y = housing.features[:455], housing.targets[:455]
    rng = np.random.default_rng(0)
    jittered = housing.features[rng.integers(0, 506, 549)] + rng.uniform(-0.05, 0.05, (549, 13))
    Q = np.vstack([housing.features[455:], np.clip(jittered, 0.0, 1.0)])
    ensemble = generate_ensemble(X, y, 20, TreeParams(min_leaf_size=5), 3)
    keys = [(a, m) for a in DYNAMIC_ALGORITHMS for m in MEASURE_IDS] + [("mean", "")]
    assert len(Q) > bench._block_rows(X, 10, ensemble.n_members)  # more than one block
    assert_blocks_match_reference(keys, X, y, Q, 10, ensemble, None)


def test_blocks_keep_the_gathered_predictions_under_the_cell_cap():
    """One feature, few reference rows, k = n and many members: the (N, B, k)
    gather, not the distances, is the larger per-query temporary."""
    rng = np.random.default_rng(5)
    X, y = rng.random((20, 1)), rng.random(20)
    Q = rng.random((300, 1))
    ensemble = generate_ensemble(X, y, 100, TreeParams(min_parent_size=2), 0)
    sizes = []
    build = bench.build_region

    def recording_build_region(*args, **kwargs):
        region = build(*args, **kwargs)
        sizes.append(region.member_predictions.size)
        return region

    with mock.patch.object(bench, "build_region", recording_build_region):
        rows = sum(len(a[("dws", "m3")][0])
                   for _, a in predict_queries([("dws", "m3")], X, y, Q, 20, ensemble))
    assert rows == len(Q)
    assert len(sizes) > 1
    assert max(sizes) <= bench._QUERY_CELLS


def test_m1_with_one_neighbor_fails_in_the_block_path():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 0.5])
    ensemble = generate_ensemble(X, y, 2, TreeParams(min_parent_size=2), 0)
    with pytest.raises(ValueError, match="m1"):
        list(predict_queries([("ds", "m1")], X, y, X, 1, ensemble))
