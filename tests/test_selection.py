"""DS, DW, and DWS combiners."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drs.region import inverse_distance_weights
from drs.selection import ds_predict, dw_predict, dw_weights, dws_predict

SCORES = st.lists(
    st.floats(min_value=1e-9, max_value=1e6, allow_nan=False), min_size=1, max_size=40
)
PREDS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestDs:
    def test_picks_lowest_score(self):
        value, winner = ds_predict([[0.5, 0.1, 0.9]], [[10.0, 20.0, 30.0]])
        assert (value[0], winner[0]) == (20.0, 1)

    def test_tie_goes_to_lowest_index(self):
        value, winner = ds_predict([[2.0, 1.0, 1.0]], [[5.0, 6.0, 7.0]])
        assert (value[0], winner[0]) == (6.0, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_output_is_a_member_prediction(self, data):
        scores = data.draw(SCORES)
        preds = data.draw(
            st.lists(PREDS, min_size=len(scores), max_size=len(scores))
        )
        value, winner = ds_predict([scores], [preds])
        value, winner = value[0], winner[0]
        assert value == preds[winner]
        assert scores[winner] == min(scores)


    def test_rejects_one_query_vectors(self):
        with pytest.raises(ValueError, match=r"\(B, N\) block.*\(2,\)"):
            ds_predict([0.1, 0.2], [1.0, 2.0])


class TestDwWeights:
    def test_worked_example(self):
        w = dw_weights([[0.04, 0.16]])
        assert np.allclose(w.alpha, [[2 / 3, 1 / 3]], atol=1e-12)
        assert w.selected.all()

    @settings(max_examples=300, deadline=None)
    @given(SCORES)
    def test_sum_to_one_and_monotone(self, scores):
        alpha = dw_weights([scores]).alpha[0]
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(alpha > 0)
        order = np.argsort(scores, kind="stable")
        assert np.all(np.diff(alpha[order]) <= 1e-12)  # lower score, higher weight

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_invariant_to_positive_rescaling(self, scores, c):
        # c is rarely a power of two, so each scaled score is rounded and
        # the weights agree up to that rounding, not bit for bit
        a = dw_weights([scores]).alpha
        b = dw_weights(np.asarray([scores]) * c).alpha
        assert np.max(np.abs(a - b)) < 1e-9

    def test_zero_score_takes_all_weight(self):
        w = dw_weights([[0.0, 4.0]])
        assert np.array_equal(w.alpha, [[1.0, 0.0]])

    def test_multiple_zero_scores_share_uniformly(self):
        w = dw_weights([[0.0, 2.0, 0.0]])
        assert np.array_equal(w.alpha, [[0.5, 0.0, 0.5]])

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError, match="nonneg"):
            dw_weights([[0.5, -0.1]])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_rule_as_inverse_distance_weights(self, data):
        # 1/sqrt(score) is 1/distance at distance sqrt(score), zero rows included
        n_rows, n_members = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
        score = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6))
        scores = np.array(data.draw(st.lists(
            st.lists(score, min_size=n_members, max_size=n_members),
            min_size=n_rows, max_size=n_rows,
        )))
        expected = inverse_distance_weights(np.sqrt(scores))
        assert dw_weights(scores).alpha.tobytes() == expected.tobytes()

    def test_accepts_score_container(self, two_neighbor_region):
        from drs.measures import score_all

        scores = score_all("m3", two_neighbor_region)
        assert dw_weights(scores).alpha[0, 0] == 1.0


    def test_rejects_one_query_vectors(self):
        with pytest.raises(ValueError, match=r"\(B, N\) block.*\(2,\)"):
            dw_weights([0.1, 0.2])


class TestDwPredict:
    def test_weighted_mean(self):
        w = dw_weights([[0.04, 0.16]])
        assert dw_predict(w, [[3.0, 9.0]])[0] == pytest.approx(5.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_within_member_range(self, data):
        scores = data.draw(SCORES)
        preds = np.array(
            data.draw(st.lists(PREDS, min_size=len(scores), max_size=len(scores)))
        )
        value = dw_predict(dw_weights([scores]), preds[None])[0]
        assert preds.min() - 1e-9 <= value <= preds.max() + 1e-9


    def test_rejects_one_query_vectors(self):
        with pytest.raises(ValueError, match=r"\(B, N\) block.*\(2,\)"):
            dw_predict(dw_weights([[0.1, 0.2]]), [1.0, 2.0])


class TestDws:
    def test_discards_upper_half_of_score_interval(self):
        value, w = dws_predict([[1.0, 2.0, 10.0]], [[1.0, 1.0, 9.0]])
        assert list(w.selected[0]) == [True, True, False]
        assert value[0] == pytest.approx(1.0, abs=1e-12)
        assert w.alpha[0, 2] == 0.0

    def test_keeps_scores_equal_to_threshold(self):
        # interval [0, 10] has midpoint 5; a score of exactly 5 survives
        _, w = dws_predict([[0.0, 5.0, 10.0]], [[0.0, 0.0, 0.0]])
        assert list(w.selected[0]) == [True, True, False]

    def test_equal_scores_keep_everyone(self):
        value, w = dws_predict([[3.0, 3.0, 3.0]], [[1.0, 2.0, 3.0]])
        assert w.selected.all()
        assert value[0] == pytest.approx(2.0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_survivors_nonempty_include_best_and_bound_output(self, data):
        scores = np.array(data.draw(SCORES))
        preds = np.array(
            data.draw(st.lists(PREDS, min_size=len(scores), max_size=len(scores)))
        )
        value, w = dws_predict(scores[None], preds[None])
        selected, alpha = w.selected[0], w.alpha[0]
        assert selected.any()
        assert selected[np.argmin(scores)]
        kept = preds[selected]
        assert kept.min() - 1e-9 <= value[0] <= kept.max() + 1e-9
        assert alpha[~selected].sum() == 0.0
        assert alpha.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_one_query_vectors(self):
        with pytest.raises(ValueError, match=r"\(B, N\) block.*\(2,\)"):
            dws_predict([0.1, 0.2], [1.0, 2.0])


# Zero, or log-uniform over [5e-324, 1.7e308]: every magnitude float64 holds.
FLOAT64_VALUES = st.one_of(
    st.just(0.0), st.floats(-1074.0, float(np.log2(1.7e308))).map(lambda e: 2.0**e)
)


def _shifts(values, lowest, highest):
    """The exponents k for which every positive value v and v * 2**k lie in
    [2**lowest, 2**highest); empty unless k = 0 is one of them."""
    _, e = np.frexp(values[values > 0])  # v in [2**(e - 1), 2**e)
    if e.size == 0:
        return range(-1100, 1101)
    lo, hi = max(lowest + 1 - e.min(), -1100), min(highest - e.max(), 1100)
    return range(lo, hi + 1) if lo <= 0 <= hi else range(0)


def _weights_everywhere(row):
    """The distance, DW and DWS weights of one row, with any RuntimeWarning
    raised as an error."""
    block = np.array([row])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, dws = dws_predict(block, np.ones_like(block))
        return inverse_distance_weights(block)[0], dw_weights(block).alpha[0], dws, value[0]


@settings(max_examples=400, deadline=None)
@given(st.lists(FLOAT64_VALUES, min_size=1, max_size=12), st.data())
def test_weights_are_total_over_float64(row, data):
    """Distances and scores of any magnitude: every weight is finite, each
    row sums to 1 up to rounding, and scaling the row by 2**k, where no
    value under- or overflows, keeps every weight bit for bit."""
    row = np.array(row)
    distance, dw, dws, value = _weights_everywhere(row)
    for alpha in (distance, dw, dws.alpha[0]):
        assert np.isfinite(alpha).all()
        assert abs(alpha.sum() - 1.0) <= len(row) * np.finfo(float).eps
    assert abs(value - 1.0) <= len(row) * np.finfo(float).eps

    # Distances: each positive value stays on its side of 2**-537, below
    # which it counts as zero, and every inverse of one above stays normal.
    zero = row < 2.0**-537
    big = _shifts(np.where(zero, 0.0, row), -537, 1022)
    small = _shifts(np.where(zero, row, 0.0), -1074, -537)
    shifts = range(max(big.start, small.start), min(big.stop, small.stop))
    if shifts:
        k = data.draw(st.integers(shifts.start, shifts.stop - 1), label="distance shift")
        assert _weights_everywhere(np.ldexp(row, k))[0].tobytes() == distance.tobytes()
    # Scores: every positive score stays a normal double with a bit to
    # spare, so sqrt and the DWS cut scale exactly; k is even, so sqrt(2**k)
    # is exact.
    shifts = _shifts(row, -1021, 1022)
    if shifts:
        half = st.integers(-(-shifts.start // 2), (shifts.stop - 1) // 2)
        k = 2 * data.draw(half, label="score shift / 2")
        _, dw_scaled, dws_scaled, _ = _weights_everywhere(np.ldexp(row, k))
        assert dw_scaled.tobytes() == dw.tobytes()
        assert dws_scaled.alpha.tobytes() == dws.alpha.tobytes()
        assert dws_scaled.selected.tolist() == dws.selected.tolist()
