"""Monthly precipitation prediction over gridded index points.

The pipeline per point: prune near-colinear predictors, rank the rest by
how often boosted regression trees split on them, keep the top ten, train
five regression models on a 90/10 chronological split, and report Pearson
correlation, mean absolute error, and error spread per model.
"""

from .catalog import (
    CATALOG,
    CATALOG_SIZE,
    FEATURE_NAMES,
    PRESSURE_LEVELS_MB,
    REFERENCE_POINTS,
    FeatureId,
    IndexPoint,
    PressureLevel,
    column_of,
    feature_from_catalog_index,
    feature_name,
    parse_feature_name,
)
from .dataset import CHRONOLOGICAL, SEEDED_RANDOM, Dataset, Sample, SplitSpec, load_csv, split, write_csv
from .synthetic import SyntheticTruth, generate_synthetic, signal_std
from .cart import RegressionTree, TreeConfig, fit_tree
from .selection import (
    BoostConfig,
    BoostedModel,
    ColinearityConfig,
    SelectionConfig,
    SelectionResult,
    cosine_similarity,
    fit_boosted,
    prune_colinear,
    rank_features,
    run_selection,
    select_top_k,
)
from .learners import (
    KIND_ORDER,
    KNNConfig,
    LearnerSpec,
    LRConfig,
    MLPConfig,
    RFConfig,
    SVRConfig,
    default_specs,
    fit,
    fit_all,
    model_from_dict,
    model_to_dict,
)
from .evaluation import (
    EvalResult,
    EvaluationReport,
    error_std,
    mae,
    pearson,
    render_report,
)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline

__version__ = "0.1.0"
