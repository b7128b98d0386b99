"""Random forest regression over the CART trees.

Each tree trains on a bootstrap resample and samples ceil(sqrt(d))
candidate features fresh at every node; the forest prediction is the
plain mean of the tree outputs. Trees work on raw feature scales, so no
standardization is applied.
"""

from __future__ import annotations

import math

import numpy as np

from ..cart import RegressionTree, TreeConfig, fit_tree, tree_sum
from .base import RF, FittedModel, RFConfig, Standardization


def _read_trees(payload) -> list[RegressionTree]:
    if not payload:
        raise ValueError("a forest needs at least one tree")
    return [RegressionTree.from_dict(tree) for tree in payload]


#: (read, write) for the forest: each tree as its flat node list.
TREES = (_read_trees, lambda trees: [tree.to_dict() for tree in trees])


class RFModel(FittedModel):
    kind = RF
    config = RFConfig
    state = (("trees", TREES),)

    def predict_batch(self, X) -> np.ndarray:
        return tree_sum(self.trees, self._check_batch(X)) / len(self.trees)


def fit_rf(cfg: RFConfig, X, y, feature_indices, seed: int) -> RFModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
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
    return RFModel(cfg, feature_indices, Standardization.identity(d), trees=trees)
