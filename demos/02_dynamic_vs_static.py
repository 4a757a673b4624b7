"""Dynamic selection against the static baselines on one housing split.

Fits a 50-member bagged ensemble on 80% of the housing data, then answers
every held-out query six ways: the single tree, static mean and median
fusion, and the three dynamic algorithms driven by the m3 competence
measure. Dynamic methods re-rank the members for every query, so the same
ensemble answers differently depending on where the query lands.
"""

from pathlib import Path

import numpy as np

from drs import (
    ALGORITHMS,
    DYNAMIC_ALGORITHMS,
    TreeParams,
    fit_individual,
    generate_ensemble,
    load_csv,
    normalize_minmax,
    predict_queries,
)

HERE = Path(__file__).resolve().parent
K = 10
MEMBERS = 50
SEED = 1729

dataset = load_csv(HERE.parent / "data" / "housing.csv")
print(f"dataset: {dataset.name}, {dataset.n_instances} rows, "
      f"{dataset.n_features} features")

# the benchmark convention: min-max normalize features and target to [0, 1]
data, params = normalize_minmax(dataset)

rng = np.random.default_rng(SEED)
order = rng.permutation(data.n_instances)
cut = int(0.8 * data.n_instances)
train = data.subset(order[:cut])
test = data.subset(order[cut:])
print(f"split: {train.n_instances} training rows, {test.n_instances} test rows")

# 5-sample leaves, the common bagging default; fully grown leaves memorize
# their own bootstrap draw, so error scores over training neighbors collapse
# and stop separating the members
tree_params = TreeParams(min_parent_size=10, min_leaf_size=5)
ensemble = generate_ensemble(train.features, train.targets, MEMBERS,
                             tree_params, SEED)
single = fit_individual(train.features, train.targets, tree_params)
print(f"fitted: 1 individual tree and {MEMBERS} bagged members")

# every algorithm answers every query; the dynamic ones rank members by m3
keys = [(a, "m3" if a in DYNAMIC_ALGORITHMS else "") for a in ALGORITHMS]
predictions = {key: np.empty(test.n_instances) for key in keys}
winners = np.empty(test.n_instances, dtype=int)
# answers come in blocks of consecutive test rows, starting at row `start`
answers = predict_queries(keys, train.features, train.targets, test.features,
                          K, ensemble, single)
for start, answer in answers:
    for key in keys:
        values = answer[key][0]
        predictions[key][start:start + len(values)] = values
    winners[start:start + len(values)] = answer[("ds", "m3")][1]
switches = int(np.count_nonzero(winners[1:] != winners[:-1]))

print(f"\nds changed its selected member on {switches} of "
      f"{test.n_instances - 1} consecutive queries: competence is local")

print(f"\ntest MSE (x 1e-4, lower is better), k={K}:")
results = {":".join(filter(None, key)): float(np.mean((p - test.targets) ** 2)) * 1e4
           for key, p in predictions.items()}
width = max(len(n) for n in results)
for name, value in sorted(results.items(), key=lambda kv: kv[1]):
    bar = "#" * int(round(value / max(results.values()) * 40))
    print(f"  {name.ljust(width)}  {value:7.2f}  {bar}")

best = min(results, key=results.get)
print(f"\nbest on this split: {best}")
print("the weighted dynamic methods (dw, dws) usually sit below the static")
print("fusions here, while ds is the high-variance gambler of the family:")
print("it bets everything on one member per query, so single splits swing")
print("it around. One split proves nothing either way: run")
print("demos/03_benchmark_protocol.py (or the bench subcommand) for")
print("replicated cross-validation.")
