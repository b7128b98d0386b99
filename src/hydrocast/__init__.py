"""Monthly precipitation prediction over gridded index points.

The pipeline per point: prune near-colinear predictors, rank the rest by
how often boosted regression trees split on them, keep the top ten, train
five regression models on a 90/10 chronological split, and report Pearson
correlation, mean absolute error, and error spread per model.
"""

from .catalog import FEATURE_NAMES, REFERENCE_POINTS
from .dataset import SplitSpec, load_csv, split, write_csv
from .synthetic import generate_synthetic
from .selection import ColinearityConfig, SelectionConfig, prune_colinear, run_selection
from .learners import default_specs, fit_all, model_from_dict, model_to_dict
from .evaluation import EvalResult, EvaluationReport, error_std, mae, pearson, render_report
from .pipeline import PipelineConfig, run_pipeline

__version__ = "0.1.0"
