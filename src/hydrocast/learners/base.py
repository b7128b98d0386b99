"""Shared learner contract: specs, standardization, serialization dispatch."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ShapeMismatch

RF = "rf"
KNN = "knn"
SVR = "svr"
LR = "lr"
MLP = "mlp"

#: Fixed ordering used everywhere models are listed or reported.
KIND_ORDER = (RF, KNN, SVR, LR, MLP)


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
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))


DEFAULT_CONFIGS = {
    RF: RFConfig,
    KNN: KNNConfig,
    SVR: SVRConfig,
    LR: LRConfig,
    MLP: MLPConfig,
}


@dataclass(frozen=True)
class LearnerSpec:
    """Which model to train, with what hyperparameters and seed."""

    kind: str
    hyper: object = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KIND_ORDER:
            raise ValueError(f"unknown learner kind: {self.kind!r}")
        if self.hyper is None:
            object.__setattr__(self, "hyper", DEFAULT_CONFIGS[self.kind]())
        elif not isinstance(self.hyper, DEFAULT_CONFIGS[self.kind]):
            raise ValueError(
                f"hyper for {self.kind!r} must be {DEFAULT_CONFIGS[self.kind].__name__}"
            )


def default_specs(seed: int = 0) -> list[LearnerSpec]:
    """All five models with default hyperparameters and derived seeds."""
    return [
        LearnerSpec(kind, seed=int(np.random.SeedSequence([seed, i]).generate_state(1)[0]))
        for i, kind in enumerate(KIND_ORDER)
    ]


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


class FittedModel:
    """Base for all five fitted models.

    ``predict``/``predict_batch`` expect inputs already restricted and
    ordered to ``feature_indices``; standardization (identity for the tree
    and linear models) is applied internally. Each model implements only
    ``predict_batch``; ``predict`` is its one-row case.
    """

    kind: str = ""

    def __init__(self, feature_indices, standardization: Standardization):
        self.feature_indices = tuple(int(i) for i in feature_indices)
        self.standardization = standardization

    @property
    def n_features(self) -> int:
        return len(self.feature_indices)

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ShapeMismatch(
                f"expected vector of the {self.n_features} selected features, got {x.shape}"
            )
        return x

    def _check_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ShapeMismatch(
                f"expected (n, {self.n_features}) matrix, got {X.shape}"
            )
        return X

    def predict(self, x) -> float:
        x = self._check(x)
        return float(self.predict_batch(x[None])[0])

    def predict_batch(self, X) -> np.ndarray:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _base_dict(self, hyper) -> dict:
        return {
            "kind": self.kind,
            "hyper": asdict(hyper) if hyper is not None else {},
            "feature_indices": list(self.feature_indices),
            "standardization": {
                "mean": list(self.standardization.mean),
                "std": list(self.standardization.std),
            },
        }


def standardization_from_dict(payload: dict) -> Standardization:
    return Standardization(tuple(payload["mean"]), tuple(payload["std"]))
