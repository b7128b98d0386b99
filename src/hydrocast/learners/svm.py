"""Linear epsilon-insensitive support vector regression.

Minimizes 0.5*||w||^2 + C * sum_i max(0, |y_i - w.x_i - b| - eps) by
stochastic subgradient descent over seeded sample permutations, returning
the average of the iterates from the second half of training. Features
are standardized; the bias starts at mean(y) so the walk begins centered
on the targets.

The steps run on Python floats: the rows and targets as lists, the dot
product summed left to right, and each update a list comprehension in the
operation order of the vector formula beside it. A step touches a handful
of values, so this is faster than a numpy call per operation, and no step
goes through BLAS: the weights are the same floats on every machine.
"""

from __future__ import annotations

import math

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
    rows, targets = Z.tolist(), y.tolist()

    # Objective rescaled by 1/(C*n): lam/2 ||w||^2 + mean_i hinge_i, same minimizer.
    lam = 1.0 / (cfg.c * n)
    rng = np.random.default_rng(seed)
    w = [0.0] * d
    b = float(y.mean())

    w_acc = [0.0] * d
    b_acc = 0.0
    acc = 0
    avg_from = cfg.epochs // 2
    t = 0
    for epoch in range(cfg.epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = cfg.step / math.sqrt(t)
            z = rows[i]
            dot = 0.0
            for zj, wj in zip(z, w):
                dot += zj * wj
            r = targets[i] - dot - b
            if abs(r) > cfg.epsilon:
                s = 1.0 if r > 0 else -1.0
                w = [wj + eta * (s * zj - lam * wj) for wj, zj in zip(w, z)]  # w += eta*(s*z - lam*w)
                b += eta * s
            else:
                shrink = eta * lam
                w = [wj - shrink * wj for wj in w]  # w -= eta*lam*w
            if epoch >= avg_from:
                w_acc = [a + wj for a, wj in zip(w_acc, w)]
                b_acc += b
                acc += 1
        if not (all(map(math.isfinite, w)) and math.isfinite(b)):
            raise NonConvergence(f"SVR parameters diverged in epoch {epoch}")

    weights = np.array(w_acc) / acc if acc else np.array(w)
    return SVRModel(cfg, feature_indices, stats, weights=weights, bias=b_acc / acc if acc else b)
