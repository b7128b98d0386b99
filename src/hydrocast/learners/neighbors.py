"""K-nearest-neighbor regression on standardized features.

Prediction is the unweighted mean of the K nearest training targets under
Euclidean distance. Distance ties resolve by training-row order (ties go to
the lower training row), which keeps predictions reproducible. The K are
selected, not sorted out of all rows: ``np.partition`` finds each query's
K-th distance, the rows nearer than it and then the first rows at it make up
the K, and only those K are sorted, stably. That gives the first K of a
stable sort of every distance.
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
        return self.train_y[nearest(dist, self.hyper.k)].mean(axis=1)

    def _fits(self, d: int) -> bool:
        return (self.train_z.shape[1:] == (d,) and self.train_y.shape == self.train_z.shape[:1]
                and len(self.train_y) >= 1)


def nearest(dist, k: int) -> np.ndarray:
    """Each row's ``k`` smallest entries' columns, nearest first, ties in column order:
    ``np.argsort(dist, axis=1, kind="stable")[:, :k]`` without sorting every entry."""
    if k >= dist.shape[1]:
        return np.argsort(dist, axis=1, kind="stable")[:, :k]
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    if np.isnan(kth).any():  # fewer than k numbers in a row; NaN sorts last
        return np.argsort(dist, axis=1, kind="stable")[:, :k]
    below = dist < kth
    at = dist == kth
    wanted = k - below.sum(axis=1, keepdims=True)  # the row's first this many ties join
    chosen = np.flatnonzero(below | (at & (np.cumsum(at, axis=1) <= wanted)))
    columns = (chosen % dist.shape[1]).reshape(-1, k)  # k per row, in column order
    order = np.argsort(np.take_along_axis(dist, columns, axis=1), axis=1, kind="stable")
    return np.take_along_axis(columns, order, axis=1)


def fit_knn(cfg: KNNConfig, X, y, feature_indices, seed: int = 0) -> KNNModel:
    """Store the standardized training rows; ``seed`` is unused (the fit is deterministic)."""
    stats = Standardization.fit(X)
    return KNNModel(cfg, feature_indices, stats, train_z=stats.transform(X), train_y=y)
