"""Dynamic selection, weighting, and fusion of bagged regression-tree ensembles.

Per query pattern, each ensemble member is scored over the k nearest
training neighbors (the region of competence) by one of eight error-based
competence measures; the combiners then keep the best member (ds), weight
all members (dw), or weight the above-average half (dws). Static mean and
median fusion and a single tree serve as baselines, and ``bench`` runs the
replicated cross-validation protocol that compares them.
"""

from .bench import (
    ALGORITHMS,
    DEFAULT_SEED,
    DYNAMIC_ALGORITHMS,
    RunConfig,
    RunResult,
    aggregate,
    diff_vs_m7,
    mse,
    predict_queries,
    render_table,
    run_benchmark,
    run_replication,
    summarize,
    win_tie_loss,
    write_outputs,
)
from .datasets import (
    Dataset,
    DatasetError,
    FoldSplit,
    NormalizationParams,
    apply_normalization,
    denormalize_targets,
    kfold_split,
    load_csv,
    normalize_minmax,
)
from .learners import (
    Ensemble,
    RegressionTree,
    TreeParams,
    bagging_sample,
    fit_individual,
    generate_ensemble,
)
from .measures import MEASURE_IDS, score_all
from .region import RegionOfCompetence, build_region, find_neighbors, inverse_distance_weights
from .rng import derive_seed, make_rng
from .selection import (
    MemberWeights,
    ds_predict,
    dw_predict,
    dw_weights,
    dws_predict,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "DEFAULT_SEED",
    "DYNAMIC_ALGORITHMS",
    "MEASURE_IDS",
    "Dataset",
    "DatasetError",
    "Ensemble",
    "FoldSplit",
    "MemberWeights",
    "NormalizationParams",
    "RegionOfCompetence",
    "RegressionTree",
    "RunConfig",
    "RunResult",
    "TreeParams",
    "aggregate",
    "apply_normalization",
    "bagging_sample",
    "build_region",
    "denormalize_targets",
    "derive_seed",
    "diff_vs_m7",
    "ds_predict",
    "dw_predict",
    "dw_weights",
    "dws_predict",
    "find_neighbors",
    "fit_individual",
    "generate_ensemble",
    "inverse_distance_weights",
    "kfold_split",
    "load_csv",
    "make_rng",
    "mse",
    "normalize_minmax",
    "predict_queries",
    "render_table",
    "run_benchmark",
    "run_replication",
    "score_all",
    "summarize",
    "win_tie_loss",
    "write_outputs",
]
