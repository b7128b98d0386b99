"""Linear epsilon-insensitive support vector regression.

Minimizes 0.5*||w||^2 + C * sum_i max(0, |y_i - w.x_i - b| - eps) by
stochastic subgradient descent over seeded sample permutations, returning
the average of the iterates from the second half of training. Features
are standardized; the bias starts at mean(y) so the walk begins centered
on the targets.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonConvergence
from .base import SVR, FittedModel, SVRConfig, Standardization, standardization_from_dict


class SVRModel(FittedModel):
    kind = SVR

    def __init__(self, weights, bias, hyper, feature_indices, standardization):
        super().__init__(feature_indices, standardization)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)
        self.hyper = hyper

    def predict_batch(self, X) -> np.ndarray:
        X = self._check_batch(X)
        return self.standardization.transform(X) @ self.weights + self.bias

    def to_dict(self) -> dict:
        payload = self._base_dict(self.hyper)
        payload["weights"] = self.weights.tolist()
        payload["bias"] = self.bias
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SVRModel":
        return cls(
            payload["weights"],
            payload["bias"],
            SVRConfig(**payload["hyper"]),
            payload["feature_indices"],
            standardization_from_dict(payload["standardization"]),
        )


def fit_svr(cfg: SVRConfig, X, y, feature_indices, seed: int) -> SVRModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    stats = Standardization.fit(X)
    Z = stats.transform(X)
    n, d = Z.shape

    # Objective rescaled by 1/(C*n): lam/2 ||w||^2 + mean_i hinge_i, same minimizer.
    lam = 1.0 / (cfg.c * n)
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    b = float(y.mean())

    w_acc = np.zeros(d)
    b_acc = 0.0
    acc = 0
    avg_from = cfg.epochs // 2
    t = 0
    for epoch in range(cfg.epochs):
        for i in rng.permutation(n):
            t += 1
            eta = cfg.step / np.sqrt(t)
            r = y[i] - Z[i] @ w - b
            if abs(r) > cfg.epsilon:
                s = 1.0 if r > 0 else -1.0
                w += eta * (s * Z[i] - lam * w)
                b += eta * s
            else:
                w -= eta * lam * w
            if epoch >= avg_from:
                w_acc += w
                b_acc += b
                acc += 1
        if not (np.isfinite(w).all() and np.isfinite(b)):
            raise NonConvergence(f"SVR parameters diverged in epoch {epoch}")

    if acc:
        w, b = w_acc / acc, b_acc / acc
    return SVRModel(w, b, cfg, feature_indices, stats)
