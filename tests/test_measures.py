"""The eight competence measures: worked values, agreement with the oracle,
and the structural properties that distinguish the measures."""

import numpy as np
import pytest

from conftest import oracle_score, random_region
from drs.measures import MEASURE_IDS, score_all
from drs.region import RegionOfCompetence

EXPECTED_FIXTURE = {
    "m1": 0.18,
    "m2": 0.125,
    "m3": 0.0175,
    "m4": 0.0075,
    "m5": 0.01,
    "m6": 0.0175,
    "m7": 0.18660254037844388,
    "m8": 0.01,
}


def oracle(measure, region, member, query_prediction):
    """``oracle_score`` for one member of a one-query block region."""
    return oracle_score(
        measure,
        region.observed[0].tolist(),
        region.d_weights[0].tolist(),
        region.member_predictions[0, member].tolist(),
        float(query_prediction),
    )


class TestWorkedExample:
    def test_scalar_functions(self, two_neighbor_region):
        for mid, want in EXPECTED_FIXTURE.items():
            got = oracle(mid, two_neighbor_region, 0, 0.6)
            assert got == pytest.approx(want, abs=1e-12), mid

    def test_vectorized_path(self, two_neighbor_region):
        qp = np.array([[0.6]])
        for mid, want in EXPECTED_FIXTURE.items():
            got = score_all(mid, two_neighbor_region, qp)
            assert got.shape == (1, 1)
            assert got[0, 0] == pytest.approx(want, abs=1e-12), mid


class TestVectorizedAgreesWithScalar:
    def test_random_regions(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            k = int(rng.integers(2, 12))
            n = int(rng.integers(1, 9))
            region = random_region(rng, k, n)
            qp = rng.normal(size=n)
            for mid in MEASURE_IDS:
                vec = score_all(mid, region, qp[None])[0]
                for i in range(n):
                    assert vec[i] == pytest.approx(oracle(mid, region, i, qp[i]), abs=1e-12), mid


class TestMeasureStructure:
    def test_m1_needs_two_neighbors(self):
        rng = np.random.default_rng(4)
        region = random_region(rng, 1, 3)
        with pytest.raises(ValueError, match="m1"):
            oracle("m1", region, 0, 0.0)
        with pytest.raises(ValueError, match="m1"):
            score_all("m1", region, rng.normal(size=(1, 3)))

    def test_m1_ignores_observed_targets(self):
        rng = np.random.default_rng(9)
        region = random_region(rng, 6, 2)
        shifted = RegionOfCompetence(
            region.neighbor_indices,
            region.distances,
            region.d_weights,
            region.observed + 100.0,
            region.member_predictions,
        )
        assert np.array_equal(
            score_all("m1", region), score_all("m1", shifted)
        )

    def test_m6_depends_only_on_query_prediction(self):
        rng = np.random.default_rng(10)
        region = random_region(rng, 5, 3)
        scrambled = RegionOfCompetence(
            region.neighbor_indices,
            region.distances,
            region.d_weights,
            region.observed,
            rng.normal(size=region.member_predictions.shape),
        )
        qp = rng.normal(size=(1, 3))
        assert np.allclose(
            score_all("m6", region, qp),
            score_all("m6", scrambled, qp),
            atol=1e-15,
        )

    def test_m6_requires_query_predictions(self, two_neighbor_region):
        with pytest.raises(ValueError, match="query"):
            score_all("m6", two_neighbor_region)

    def test_rejects_a_one_query_region(self, two_neighbor_region):
        r = two_neighbor_region
        unbatched = RegionOfCompetence(
            r.neighbor_indices[0], r.distances[0], r.d_weights[0],
            r.observed[0], r.member_predictions[0],
        )
        with pytest.raises(ValueError, match=r"\(B, N, K\).*\(1, 2\)"):
            score_all("m3", unbatched)

    def test_m8_uses_only_the_nearest_neighbor(self):
        rng = np.random.default_rng(11)
        region = random_region(rng, 5, 4)
        perturbed_preds = region.member_predictions.copy()
        perturbed_preds[..., 1:] += 50.0
        perturbed = RegionOfCompetence(
            region.neighbor_indices,
            region.distances,
            region.d_weights,
            region.observed,
            perturbed_preds,
        )
        assert np.array_equal(
            score_all("m8", region), score_all("m8", perturbed)
        )

    def test_min_never_exceeds_max(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            region = random_region(rng, int(rng.integers(2, 9)), 5)
            m4 = score_all("m4", region)
            m5 = score_all("m5", region)
            assert np.all(m4 <= m5 + 1e-15)

    def test_scores_are_nonnegative_except_m1_zero_floor(self):
        rng = np.random.default_rng(13)
        qp = rng.normal(size=(1, 6))
        for _ in range(30):
            region = random_region(rng, 7, 6)
            for mid in MEASURE_IDS:
                scores = score_all(mid, region, qp)
                assert np.all(scores >= 0.0), mid

    def test_identifier_case_insensitive(self, two_neighbor_region):
        a = score_all("M3", two_neighbor_region)
        b = score_all("m3", two_neighbor_region)
        assert np.array_equal(a, b)

    def test_unknown_identifier_rejected(self, two_neighbor_region):
        with pytest.raises(ValueError, match="m9"):
            score_all("m9", two_neighbor_region)

    def test_perfect_member_scores_zero_on_error_measures(self):
        rng = np.random.default_rng(14)
        region = random_region(rng, 4, 2)
        perfect = RegionOfCompetence(
            region.neighbor_indices,
            region.distances,
            region.d_weights,
            region.observed,
            np.stack([region.observed, region.member_predictions[:, 1]], axis=1),
        )
        for mid in ("m2", "m3", "m4", "m5", "m7", "m8"):
            scores = score_all(mid, perfect)
            assert scores[0, 0] == pytest.approx(0.0, abs=1e-15), mid
