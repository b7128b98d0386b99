"""K-nearest-neighbor regression on standardized features.

Prediction is the unweighted mean of the K nearest training targets under
Euclidean distance. Distance ties resolve by training-row order (stable
sort), which keeps predictions reproducible.
"""

from __future__ import annotations

import numpy as np

from .base import KNN, FittedModel, KNNConfig, Standardization, standardization_from_dict


class KNNModel(FittedModel):
    kind = KNN

    def __init__(self, train_z, train_y, k, feature_indices, standardization):
        super().__init__(feature_indices, standardization)
        self.train_z = np.asarray(train_z, dtype=np.float64)
        self.train_y = np.asarray(train_y, dtype=np.float64)
        self.k = int(k)

    def predict_batch(self, X) -> np.ndarray:
        Z = self.standardization.transform(self._check_batch(X))
        dist = np.sqrt(np.sum((self.train_z[None, :, :] - Z[:, None, :]) ** 2, axis=2))
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :self.k]
        return self.train_y[nearest].mean(axis=1)

    def to_dict(self) -> dict:
        payload = self._base_dict(KNNConfig(k=self.k))
        payload["train_z"] = self.train_z.tolist()
        payload["train_y"] = self.train_y.tolist()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "KNNModel":
        return cls(
            payload["train_z"],
            payload["train_y"],
            payload["hyper"]["k"],
            payload["feature_indices"],
            standardization_from_dict(payload["standardization"]),
        )


def fit_knn(cfg: KNNConfig, X, y, feature_indices) -> KNNModel:
    X = np.asarray(X, dtype=np.float64)
    stats = Standardization.fit(X)
    return KNNModel(stats.transform(X), y, cfg.k, feature_indices, stats)
