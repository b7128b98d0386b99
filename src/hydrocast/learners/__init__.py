"""Five regression models behind one fit/predict contract.

Each model trains on the matrix restricted to the selected features and
is immutable afterwards; prediction accepts vectors in that same
restricted column order. All randomness flows from the spec's seed.
``MODELS`` maps each kind to its model class, whose ``config`` is the
kind's hyperparameter dataclass; ``fit`` trains a kind through
``fit_<kind>(hyper, X, y, feature_indices, seed)``, and every model
serializes through ``FittedModel.to_dict``/``from_dict``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    DamagedArtifact,
    DuplicateKind,
    HydrocastError,
    NonFiniteInput,
    ShapeMismatch,
    TooFewSamples,
)
from .base import (
    KNN,
    LR,
    MLP,
    RF,
    SVR,
    FittedModel,
    KNNConfig,
    LRConfig,
    MLPConfig,
    RFConfig,
    Standardization,
    SVRConfig,
)
from .forest import RFModel, fit_rf
from .linear import LinearModel, LRModel, fit_lr
from .mlp import MLPModel, fit_mlp
from .neighbors import KNNModel, fit_knn
from .svm import SVRModel, fit_svr

__all__ = [
    "KIND_ORDER", "RF", "KNN", "SVR", "LR", "MLP",
    "LearnerSpec", "FittedModel", "Standardization",
    "RFConfig", "KNNConfig", "SVRConfig", "LRConfig", "MLPConfig",
    "RFModel", "KNNModel", "SVRModel", "LRModel", "MLPModel", "LinearModel", "MODELS",
    "default_specs", "fit", "fit_all", "fit_rf", "fit_knn", "fit_svr", "fit_lr", "fit_mlp",
    "model_to_dict", "model_from_dict",
]

#: Each kind's model class, in the fixed order used everywhere models are listed or reported.
MODELS = {model.kind: model for model in (RFModel, KNNModel, SVRModel, LRModel, MLPModel)}
KIND_ORDER = tuple(MODELS)


@dataclass(frozen=True)
class LearnerSpec:
    """Which model to train, with what hyperparameters and seed."""

    kind: str
    hyper: object = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ValueError(f"unknown learner kind: {self.kind!r}")
        config = MODELS[self.kind].config
        if self.hyper is None:
            object.__setattr__(self, "hyper", config())
        elif not isinstance(self.hyper, config):
            raise ValueError(f"hyper for {self.kind!r} must be {config.__name__}")


def default_specs(seed: int = 0) -> list[LearnerSpec]:
    """All five models with default hyperparameters and derived seeds."""
    return [
        LearnerSpec(kind, seed=int(np.random.SeedSequence([seed, i]).generate_state(1)[0]))
        for i, kind in enumerate(KIND_ORDER)
    ]


def fit(spec: LearnerSpec, X_train, y_train, feature_indices=None) -> FittedModel:
    """Train one model on the feature-restricted training matrix."""
    X = np.asarray(X_train, dtype=np.float64)
    y = np.asarray(y_train, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"X {X.shape} incompatible with y {y.shape}")
    if X.shape[0] < 2:
        raise TooFewSamples("need at least 2 training samples")
    if X.shape[1] < 1:
        raise ShapeMismatch("need at least 1 feature")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFiniteInput("training data must be finite")
    if feature_indices is None:
        feature_indices = range(X.shape[1])
    feature_indices = tuple(feature_indices)
    if len(feature_indices) != X.shape[1]:
        raise ShapeMismatch("feature_indices must match the matrix width")

    # looked up by name at call time, so a rebound fit_<kind> is the one that runs
    return globals()[f"fit_{spec.kind}"](spec.hyper, X, y, feature_indices, spec.seed)


def fit_all(specs, X_train, y_train, feature_indices=None) -> dict[str, FittedModel]:
    """Train every spec; error messages are tagged with the failing kind."""
    seen = set()
    for spec in specs:
        if spec.kind in seen:
            raise DuplicateKind(f"duplicate learner kind: {spec.kind!r}")
        seen.add(spec.kind)

    models: dict[str, FittedModel] = {}
    for spec in specs:
        try:
            models[spec.kind] = fit(spec, X_train, y_train, feature_indices)
        except Exception as exc:
            exc.args = (f"[{spec.kind}] {exc}",)
            raise
    return models


def model_to_dict(model: FittedModel) -> dict:
    return model.to_dict()


def model_from_dict(payload: dict) -> FittedModel:
    """Rebuild a fitted model; a missing or malformed payload raises ``DamagedArtifact``."""
    if not isinstance(payload, dict):
        raise DamagedArtifact("model payload is missing or not a JSON object")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in MODELS:
        raise DamagedArtifact(f"unknown learner kind in payload: {kind!r}")
    try:
        return MODELS[kind].from_dict(payload)
    except HydrocastError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DamagedArtifact(f"malformed {kind} model payload: {exc!r}") from None
