"""Ordinary least squares via the normal equations.

Features are standardized for conditioning and the solution is
back-transformed, so the stored weights act on raw inputs and the model
keeps the identity standardization: ``(x - 0.0) / 1.0 == x`` exactly, so
the linear prediction it shares with SVR is the raw ``X @ weights + bias``.
A tiny ridge term (``RIDGE``) stands in when the Gram matrix is rank
deficient (exact duplicates, constant columns); disable the fallback to
get a SingularSystem error instead.
"""

from __future__ import annotations

import numpy as np

from ..errors import SingularSystem
from .base import FLOAT, LR, FittedModel, LRConfig, Standardization, float_array

RIDGE = 1e-8  # the fallback's penalty on every weight but the intercept


class LinearModel(FittedModel):
    """An affine map of the standardized inputs, shared by LR and SVR."""

    state = (("weights", float_array(1)), ("bias", FLOAT))

    def predict_batch(self, X) -> np.ndarray:
        return self.standardization.transform(self._check_batch(X)) @ self.weights + self.bias

    def _fits(self, d: int) -> bool:
        return self.weights.shape == (d,)


class LRModel(LinearModel):
    kind = LR
    config = LRConfig


def fit_lr(cfg: LRConfig, X, y, feature_indices, seed: int = 0) -> LRModel:
    """Solve the normal equations; ``seed`` is unused (the fit is deterministic)."""
    stats = Standardization.fit(X)
    Z = stats.transform(X)
    A = np.column_stack([Z, np.ones(Z.shape[0])])

    gram = A.T @ A
    rhs = A.T @ y
    if np.linalg.matrix_rank(A) < A.shape[1]:
        if not cfg.ridge_fallback:
            raise SingularSystem("normal equations are singular and fallback is disabled")
        penalty = np.eye(A.shape[1]) * RIDGE
        penalty[-1, -1] = 0.0  # never penalize the intercept
        beta = np.linalg.solve(gram + penalty, rhs)
    else:
        beta = np.linalg.solve(gram, rhs)

    w_std, b_std = beta[:-1], beta[-1]
    sigma = np.asarray(stats.std)
    mu = np.asarray(stats.mean)
    weights = w_std / sigma
    bias = float(b_std - np.sum(w_std * mu / sigma))
    return LRModel(cfg, feature_indices, Standardization.identity(X.shape[1]),
                   weights=weights, bias=bias)
