"""Single-hidden-layer perceptron trained full batch with Adam.

Squared-error loss, rectified-linear hidden units, fixed epoch budget, no
early stopping. Inputs and targets are both z-scored from the training
data (predictions are mapped back), otherwise the small fixed step budget
cannot leave the initialization scale on targets measured in tens of
millimeters.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonConvergence
from ..typed import decode, encode
from .base import FLOAT, MLP, FittedModel, MLPConfig, Standardization

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and guard, as Kingma & Ba recommend

#: (read, write) for the layers: one {"W", "b"} object of encoded arrays per (W, b) pair.
LAYERS = (
    lambda payload: [(decode(layer["W"], "f", 2), decode(layer["b"], "f", 1))
                     for layer in payload],
    lambda layers: [{"W": encode(W), "b": encode(b)} for W, b in layers],
)


class MLPModel(FittedModel):
    kind = MLP
    config = MLPConfig
    state = (("layers", LAYERS), ("y_mean", FLOAT), ("y_std", FLOAT))

    def predict_batch(self, X) -> np.ndarray:
        X = self._check_batch(X)
        out = forward(self.layers, self.standardization.transform(X))
        return self.y_mean + self.y_std * out

    def _fits(self, d: int) -> bool:
        sizes = [d, *self.hyper.hidden_sizes, 1]
        return ([(W.shape, b.shape) for W, b in self.layers]
                == [((fan_in, fan_out), (fan_out,)) for fan_in, fan_out in zip(sizes, sizes[1:])])


def init_params(sizes, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """He-scaled normal weights, zero biases, one (W, b) pair per layer."""
    params = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        W = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        params.append((W, np.zeros(fan_out)))
    return params


def _layers(params, Z):
    """Every layer's pre-activation, and the activations from ``Z`` on: hidden
    layers are rectified, the output layer is linear."""
    pre, activations = [], [Z]
    last = len(params) - 1
    for layer, (W, b) in enumerate(params):
        pre.append(activations[-1] @ W + b)
        activations.append(np.maximum(pre[-1], 0.0) if layer < last else pre[-1])
    return pre, activations


def forward(params, Z) -> np.ndarray:
    return _layers(params, Z)[1][-1][:, 0]


def loss_and_grads(params, Z, targets):
    """Mean squared error and its analytic gradients per layer.

    Returns ``(loss, grads)`` with grads shaped like params. Kept separate
    from the training loop so finite-difference checks can call it
    directly.
    """
    pre, activations = _layers(params, Z)
    diff = activations[-1][:, 0] - targets
    loss = float(np.mean(diff**2))

    grads = [None] * len(params)
    delta = (2.0 / Z.shape[0]) * diff.reshape(-1, 1)
    for layer in range(len(params) - 1, -1, -1):
        W, _ = params[layer]
        grads[layer] = (activations[layer].T @ delta, delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ W.T) * (pre[layer - 1] > 0.0)
    return loss, grads


def fit_mlp(cfg: MLPConfig, X, y, feature_indices, seed: int) -> MLPModel:
    stats = Standardization.fit(X)
    Z = stats.transform(X)

    y_mean = float(y.mean())
    y_std = float(y.std()) or 1.0
    t_targets = (y - y_mean) / y_std

    rng = np.random.default_rng(seed)
    sizes = [Z.shape[1], *cfg.hidden_sizes, 1]
    arrays = [array for layer in init_params(sizes, rng) for array in layer]  # W0, b0, W1, ...
    theta = np.concatenate([array.ravel() for array in arrays])  # every parameter, in that order
    ends = np.cumsum([array.size for array in arrays])
    views = [part.reshape(array.shape) for part, array in zip(np.split(theta, ends[:-1]), arrays)]
    params = list(zip(views[::2], views[1::2]))  # updated in place through theta

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    with np.errstate(all="ignore"):  # a diverging step shows in the loss, checked below
        for step in range(1, cfg.epochs + 1):
            loss, grads = loss_and_grads(params, Z, t_targets)
            if not np.isfinite(loss):
                raise NonConvergence("MLP loss became non-finite")
            g = np.concatenate([g.ravel() for layer in grads for g in layer])
            bc1 = 1.0 - BETA1**step
            bc2 = 1.0 - BETA2**step
            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            theta -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)

    return MLPModel(cfg, feature_indices, stats, layers=params, y_mean=y_mean, y_std=y_std)
