"""Shared learner contract: kinds, hyperparameters, standardization, one codec."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ShapeMismatch
from ..typed import build

RF = "rf"
KNN = "knn"
SVR = "svr"
LR = "lr"
MLP = "mlp"


@dataclass(frozen=True)
class LRConfig:
    ridge_fallback: bool = True
    ridge: float = 1e-8


@dataclass(frozen=True)
class KNNConfig:
    k: int = 3

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class RFConfig:
    n_trees: int = 100
    bootstrap: bool = True
    max_depth: int | None = None
    min_samples_leaf: int = 5
    feature_mode: str = "sqrt"  # "sqrt": per-node subset of ceil(sqrt(d)); "all": no sampling

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.feature_mode not in ("sqrt", "all"):
            raise ValueError(f"unknown feature_mode: {self.feature_mode!r}")


@dataclass(frozen=True)
class SVRConfig:
    c: float = 1.0
    epsilon: float = 0.1
    epochs: int = 300
    step: float = 0.5

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.c <= 0:
            raise ValueError("c must be > 0")


@dataclass(frozen=True)
class MLPConfig:
    hidden_sizes: tuple[int, ...] = (32,)
    epochs: int = 500
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes must not be empty")


@dataclass(frozen=True)
class Standardization:
    """Per-feature z-score statistics taken from training data only."""

    mean: tuple[float, ...]
    std: tuple[float, ...]

    @classmethod
    def fit(cls, X) -> "Standardization":
        X = np.asarray(X, dtype=np.float64)
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)  # constant columns pass through centered
        return cls(tuple(mean.tolist()), tuple(std.tolist()))

    @classmethod
    def identity(cls, d: int) -> "Standardization":
        return cls((0.0,) * d, (1.0,) * d)

    def transform(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return (X - np.asarray(self.mean)) / np.asarray(self.std)


#: (read, write) for a float array field: JSON nested lists <-> ndarray.
ARRAY = (lambda value: np.asarray(value, dtype=np.float64), lambda array: array.tolist())
#: (read, write) for a float scalar field.
FLOAT = (float, float)


class FittedModel:
    """Base for all five fitted models, and their one serialization.

    A fitted model is its kind's hyperparameters (``hyper``, an instance
    of the class's ``config``), the ``feature_indices`` it was trained on,
    its input ``standardization`` (identity for the tree models and LR),
    and the fields its class lists in ``state``. Each ``state`` entry is a
    name with one (read, write) pair that converts the field between its
    JSON form and memory; the name is both the attribute and the JSON key.
    ``to_dict`` writes ``kind``, ``hyper``, ``feature_indices`` and
    ``standardization``, then the state fields in ``state`` order, and
    ``from_dict`` reads that back.

    ``predict_batch`` expects an (n, d) matrix already restricted and
    ordered to ``feature_indices``; it is each model's one prediction path.
    """

    kind: str = ""
    config: type = None
    state: tuple = ()

    def __init__(self, hyper, feature_indices, standardization: Standardization, **state):
        names = [name for name, _ in self.state]
        if set(state) != set(names):
            raise TypeError(f"{type(self).__name__} takes state {names}, got {list(state)}")
        self.hyper = hyper
        self.feature_indices = tuple(int(i) for i in feature_indices)
        self.standardization = standardization
        self.__dict__.update(state)

    @property
    def n_features(self) -> int:
        return len(self.feature_indices)

    def _check_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ShapeMismatch(
                f"expected (n, {self.n_features}) matrix, got {X.shape}"
            )
        return X

    def predict_batch(self, X) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        payload = {
            "kind": self.kind,
            "hyper": asdict(self.hyper),
            "feature_indices": list(self.feature_indices),
            "standardization": {
                "mean": list(self.standardization.mean),
                "std": list(self.standardization.std),
            },
        }
        for name, (_, write) in self.state:
            payload[name] = write(getattr(self, name))
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FittedModel":
        return cls(
            build(cls.config, **payload["hyper"]),
            payload["feature_indices"],
            build(Standardization, **payload["standardization"]),
            **{name: read(payload[name]) for name, (read, _) in cls.state},
        )
