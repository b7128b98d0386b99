"""Ordinary least squares via the normal equations.

Features are standardized for conditioning and the solution is
back-transformed, so the stored weights act on raw inputs. A tiny ridge
term stands in when the Gram matrix is rank deficient (exact duplicates,
constant columns); disable the fallback to get a SingularSystem error
instead.
"""

from __future__ import annotations

import numpy as np

from ..errors import SingularSystem
from .base import LR, FittedModel, LRConfig, Standardization, standardization_from_dict


class LRModel(FittedModel):
    kind = LR

    def __init__(self, weights, bias, feature_indices, standardization, hyper):
        super().__init__(feature_indices, standardization)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)
        self.hyper = hyper

    def predict_batch(self, X) -> np.ndarray:
        X = self._check_batch(X)
        return X @ self.weights + self.bias

    def to_dict(self) -> dict:
        payload = self._base_dict(self.hyper)
        payload["weights"] = self.weights.tolist()
        payload["bias"] = self.bias
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "LRModel":
        return cls(
            payload["weights"],
            payload["bias"],
            payload["feature_indices"],
            standardization_from_dict(payload["standardization"]),
            LRConfig(**payload["hyper"]),
        )


def fit_lr(cfg: LRConfig, X, y, feature_indices) -> LRModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    stats = Standardization.fit(X)
    Z = stats.transform(X)
    A = np.column_stack([Z, np.ones(Z.shape[0])])

    gram = A.T @ A
    rhs = A.T @ y
    if np.linalg.matrix_rank(A) < A.shape[1]:
        if not cfg.ridge_fallback:
            raise SingularSystem("normal equations are singular and fallback is disabled")
        penalty = np.eye(A.shape[1]) * cfg.ridge
        penalty[-1, -1] = 0.0  # never penalize the intercept
        beta = np.linalg.solve(gram + penalty, rhs)
    else:
        beta = np.linalg.solve(gram, rhs)

    w_std, b_std = beta[:-1], beta[-1]
    sigma = np.asarray(stats.std)
    mu = np.asarray(stats.mean)
    weights = w_std / sigma
    bias = float(b_std - np.sum(w_std * mu / sigma))
    return LRModel(weights, bias, feature_indices, Standardization.identity(X.shape[1]), cfg)
