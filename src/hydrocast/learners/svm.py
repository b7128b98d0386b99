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
from .base import SVR, SVRConfig, Standardization
from .linear import LinearModel


class SVRModel(LinearModel):
    kind = SVR
    config = SVRConfig


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
    return SVRModel(cfg, feature_indices, stats, weights=w, bias=float(b))
