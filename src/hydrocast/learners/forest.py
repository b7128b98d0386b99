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
from .base import RF, FittedModel, RFConfig, Standardization, standardization_from_dict


class RFModel(FittedModel):
    kind = RF

    def __init__(self, trees, hyper, feature_indices, standardization):
        super().__init__(feature_indices, standardization)
        self.trees = list(trees)
        self.hyper = hyper

    def predict_batch(self, X) -> np.ndarray:
        return tree_sum(self.trees, self._check_batch(X)) / len(self.trees)

    def to_dict(self) -> dict:
        payload = self._base_dict(self.hyper)
        payload["trees"] = [tree.to_dict() for tree in self.trees]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RFModel":
        return cls(
            [RegressionTree.from_dict(t) for t in payload["trees"]],
            RFConfig(**payload["hyper"]),
            payload["feature_indices"],
            standardization_from_dict(payload["standardization"]),
        )


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
    return RFModel(trees, cfg, feature_indices, Standardization.identity(d))
