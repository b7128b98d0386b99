"""Random forest regression over the CART trees.

Each tree trains on a bootstrap resample and samples ceil(sqrt(d))
candidate features fresh at every node; the forest prediction is the
plain mean of the tree outputs. Trees work on raw feature scales, so no
standardization is applied.
"""

from __future__ import annotations

import math

import numpy as np

from ..cart import TreeConfig, fit_tree, forest_from_dict, forest_to_dict, join, tree_sum
from .base import RF, FittedModel, RFConfig, Standardization


class RFModel(FittedModel):
    kind = RF
    config = RFConfig
    state = (("trees", (forest_from_dict, forest_to_dict)),)  # the stored block, links derived

    def predict_batch(self, X) -> np.ndarray:  # routing checks X's shape
        return tree_sum(self.trees, X) / len(self.trees.sizes)

    def _fits(self, d: int) -> bool:
        return self.trees.n_features == d


def fit_rf(cfg: RFConfig, X, y, feature_indices, seed: int) -> RFModel:
    n, d = X.shape
    per_node = math.ceil(math.sqrt(d)) if cfg.feature_mode == "sqrt" else None

    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        rows = rng.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        tree_cfg = TreeConfig(
            max_depth=cfg.max_depth,
            min_samples_leaf=cfg.min_samples_leaf,
            features_per_node=per_node,
            seed=int(rng.integers(2**63)),
        )
        trees.append(fit_tree(X[rows], y[rows], tree_cfg))
    return RFModel(cfg, feature_indices, Standardization.identity(d), trees=join(trees))
