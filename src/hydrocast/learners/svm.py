"""Linear epsilon-insensitive support vector regression.

Minimizes 0.5*||w||^2 + C * sum_i max(0, |y_i - w.x_i - b| - eps) by
stochastic subgradient descent over seeded sample permutations, returning
the average of the iterates from the second half of training. Features
are standardized; the bias starts at mean(y) so the walk begins centered
on the targets.

The steps run on Python floats, with each weight in a local variable of
an epoch loop compiled for the fit's feature count (``_epoch_loop``): the
dot product is summed left to right, and each update is the operation
order of the vector formula beside it in that function. A step touches a
handful of values, so this is faster than a numpy call per operation, and
no step goes through BLAS: the weights are the same floats on every
machine. Each epoch takes its step sizes from one numpy ``sqrt`` and
division (both correctly rounded, as ``math.sqrt`` and ``/`` are). The
running sum of the averaged iterates is kept in locals of the same loop,
each iterate added as its step makes it.
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
    stats = Standardization.fit(X)
    Z = stats.transform(X)
    n, d = Z.shape
    rows, negated, targets = Z.tolist(), (-Z).tolist(), y.tolist()

    # Objective rescaled by 1/(C*n): lam/2 ||w||^2 + mean_i hinge_i, same minimizer.
    lam = 1.0 / (cfg.c * n)
    rng = np.random.default_rng(seed)
    w = [0.0] * d
    b = float(y.mean())

    run_epoch = _epoch_loop(d)
    avg_from = cfg.epochs // 2
    total = [0.0] * (d + 1)  # running sum of the averaged iterates (w, b)
    for epoch in range(cfg.epochs):
        t = epoch * n  # steps taken so far
        etas = (cfg.step / np.sqrt(np.arange(t + 1, t + n + 1, dtype=np.float64))).tolist()
        w, b, total = run_epoch(rng.permutation(n).tolist(), etas, rows, negated, targets, w, b,
                                lam, cfg.epsilon, total, epoch >= avg_from)
        if not (all(map(math.isfinite, w)) and math.isfinite(b)):
            raise NonConvergence(f"SVR parameters diverged in epoch {epoch}")

    steps = (cfg.epochs - avg_from) * n  # at least one epoch's
    return SVRModel(cfg, feature_indices, stats, weights=np.array(total[:d]) / steps,
                    bias=total[d] / steps)


def _epoch_loop(d: int):
    """One epoch of SGD steps on ``d`` weights, compiled with each weight a local.

    The returned ``run(order, etas, rows, negated, targets, w, b, lam,
    epsilon, total, average)`` steps on ``rows[i]`` for each ``i`` of
    ``order`` with step size ``etas[k]`` at step ``k`` and returns the new
    ``(w, b, total)``. When ``average`` is true, each step's ``(*w, b)`` is
    added to the running sum ``total``, one step at a time in step order.
    With ``s`` the sign of a residual past ``epsilon``, ``negated[i]`` is
    ``s * rows[i]`` for ``s = -1``. The source is built from ``d`` alone.
    """
    w = "".join(f"w{j}, " for j in range(d))
    z = "".join(f"z{j}, " for j in range(d))
    a = "".join(f"a{j}, " for j in range(d))
    dot = " + ".join(f"z{j} * w{j}" for j in range(d))
    step = "; ".join(f"w{j} = w{j} + eta * (z{j} - lam * w{j})" for j in range(d))
    shrink = "; ".join(f"w{j} = w{j} - shrink * w{j}" for j in range(d))
    accumulate = "; ".join(f"a{j} = a{j} + w{j}" for j in range(d))
    source = f"""
def run(order, etas, rows, negated, targets, w, b, lam, epsilon, total, average):
    {w}= w
    {a}ab = total
    for i, eta in zip(order, etas):
        {z}= rows[i]
        r = targets[i] - (0.0 + {dot}) - b  # dot summed left to right
        if r > epsilon:  # s = 1: w += eta*(s*z - lam*w); b += eta*s
            {step}
            b += eta
        elif r < -epsilon:  # s = -1
            {z}= negated[i]
            {step}
            b -= eta
        else:  # w -= eta*lam*w
            shrink = eta * lam
            {shrink}
        if average:
            {accumulate}; ab = ab + b
    return [{w}], b, [{a}ab]
"""
    namespace: dict = {}
    exec(source, namespace)  # the source holds nothing but names built from d
    return namespace["run"]
