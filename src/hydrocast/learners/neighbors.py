"""K-nearest-neighbor regression on standardized features.

Prediction is the unweighted mean of the K nearest training targets under
Euclidean distance. Distance ties resolve by training-row order (stable
sort), which keeps predictions reproducible.
"""

from __future__ import annotations

import numpy as np

from .base import KNN, FittedModel, KNNConfig, Standardization, float_array


class KNNModel(FittedModel):
    kind = KNN
    config = KNNConfig
    state = (("train_z", float_array(2)), ("train_y", float_array(1)))

    def predict_batch(self, X) -> np.ndarray:
        Z = self.standardization.transform(self._check_batch(X))
        dist = np.sqrt(np.sum((self.train_z[None, :, :] - Z[:, None, :]) ** 2, axis=2))
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :self.hyper.k]
        return self.train_y[nearest].mean(axis=1)

    def _fits(self, d: int) -> bool:
        return (self.train_z.shape[1:] == (d,) and self.train_y.shape == self.train_z.shape[:1]
                and len(self.train_y) >= 1)


def fit_knn(cfg: KNNConfig, X, y, feature_indices, seed: int = 0) -> KNNModel:
    """Store the standardized training rows; ``seed`` is unused (the fit is deterministic)."""
    stats = Standardization.fit(X)
    return KNNModel(cfg, feature_indices, stats, train_z=stats.transform(X), train_y=y)
