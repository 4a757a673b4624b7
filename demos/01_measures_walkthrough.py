"""Walk through every competence measure on a worked two-neighbor region.

The numbers are small enough to check by hand: two neighbors
at distances 1 and 3, observed targets 0.5 and 0.8, and two ensemble
members with known predictions. Run it and follow the arithmetic.

The library answers blocks of queries, one row per query; this walk-through
has one query, so it passes blocks of one row (``x[None]``) and reads
row 0 of each answer.
"""

import numpy as np

from drs import (
    MEASURE_IDS,
    RegionOfCompetence,
    ds_predict,
    dw_predict,
    dw_weights,
    dws_predict,
    inverse_distance_weights,
    score_all,
)

print("Step 1: neighbor weights from distances")
print("=" * 60)
distances = np.array([1.0, 3.0])
weights = inverse_distance_weights(distances[None])[0]
print(f"distances d(query, t_k):      {distances.tolist()}")
print(f"inverse distances:            {[float(1 / d) for d in distances]}")
print(f"normalized weights d_k:       {weights.tolist()}")
print("nearer neighbors dominate: 1/1 and 1/3 normalize to 0.75 and 0.25")

print()
print("Step 2: a region of competence with two members")
print("=" * 60)
observed = np.array([0.5, 0.8])
# member 0 predicts [0.4, 1.0] on the neighbors and 0.6 at the query;
# member 1 predicts [0.55, 0.75] on the neighbors and 0.7 at the query
member_predictions = np.array([[0.4, 1.0], [0.55, 0.75]])
query_predictions = np.array([0.6, 0.7])
region = RegionOfCompetence(
    neighbor_indices=np.array([[0, 1]]),
    distances=distances[None],
    d_weights=weights[None],
    observed=observed[None],
    member_predictions=member_predictions[None],
)
print(f"observed targets f(t_k):      {observed.tolist()}")
print(f"member 0 on the neighbors:    {member_predictions[0].tolist()}")
print(f"member 1 on the neighbors:    {member_predictions[1].tolist()}")
print(f"predictions at the query:     {query_predictions.tolist()}")

print()
print("Step 3: the eight measures for member 0 (lower = more competent)")
print("=" * 60)
errs = observed - member_predictions[0]
print(f"signed errors on the region:  {np.round(errs, 10).tolist()}")
stories = {
    "m1": "variance of the member's own predictions (spread, not error)",
    "m2": "|err| weighted by d_k, summed",
    "m3": "squared err weighted by d_k, summed",
    "m4": "best weighted squared err in the region",
    "m5": "worst weighted squared err in the region",
    "m6": "how far the query prediction sits from the nearby targets",
    "m7": "sqrt of each weighted squared err, summed",
    "m8": "squared err on the single nearest neighbor only",
}
by_hand = {
    "m1": float(np.var(member_predictions[0], ddof=1)),
    "m2": float(np.sum(np.abs(errs) * weights)),
    "m3": float(np.sum(errs**2 * weights)),
    "m4": float(np.min(errs**2 * weights)),
    "m5": float(np.max(errs**2 * weights)),
    "m6": float(np.sum((observed - query_predictions[0]) ** 2 * weights)),
    "m7": float(np.sum(np.sqrt(errs**2 * weights))),
    "m8": float(errs[0] ** 2),
}
for mid in MEASURE_IDS:
    scored = score_all(mid, region, query_predictions[None])[0, 0]
    print(f"{mid}: {scored:.12f}  by hand {by_hand[mid]:.12f}  <- {stories[mid]}")
    assert abs(scored - by_hand[mid]) < 1e-12

print()
print("Step 4: turning m3 scores into a prediction")
print("=" * 60)
scores = score_all("m3", region, query_predictions[None])
print(f"m3 per member:                {scores[0].tolist()}")
value, winner = ds_predict(scores, query_predictions[None])
print(f"ds  selects member {int(winner[0])} and answers {float(value[0])}")
w = dw_weights(scores)
value = dw_predict(w, query_predictions[None])
print(f"dw  weights members {np.round(w.alpha[0], 4).tolist()} "
      f"and answers {value[0]:.4f}")
value, kept = dws_predict(scores, query_predictions[None])
names = np.flatnonzero(kept.selected[0]).tolist()
print(f"dws keeps member(s) {names} and answers {value[0]:.4f}")
print()
print("member 1 hugs the targets more closely on this region, so every")
print("error-based measure prefers it; m1 ignores targets entirely and")
print("ranks by prediction spread instead.")
