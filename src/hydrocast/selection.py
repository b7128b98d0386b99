"""Two-phase feature selection: colinearity pruning, then boosted ranking.

Phase one drops the later column of every pair whose cosine similarity
magnitude reaches ``gamma``; only surviving columns may knock out later
ones, which keeps the scan idempotent. Phase two fits staged gradient
boosting where every stage adds the average of ``trees_per_stage``
(default 100) shallow trees fitted to the current residuals, each tree
drawing its own random feature subset; a stage's trees grow together
(``cart.fit_stage``). Features are then ranked by how many trees split on
them at least once, and the top ``kappa`` move on to model training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cart import Forest, _training_data, fit_stage, presort
from .errors import EmptyInput, NonFiniteInput, NonFiniteResidual, ZeroNormColumn
from .typed import above, at_least

L2 = "l2"
L1_AS_PRINTED = "l1_as_printed"


@dataclass(frozen=True)
class ColinearityConfig:
    """Threshold and norm for the pairwise cosine filter.

    The standard L2 cosine is the default: identical columns score exactly
    1 and the threshold behaves as a correlation-like cutoff. The
    ``l1_as_printed`` variant divides by L1 norms instead; it scores
    identical columns below 1, so duplicates can evade the cutoff, and is
    kept only for side-by-side experiments.
    """

    gamma: float = 0.9
    norm: str = L2

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.norm not in (L2, L1_AS_PRINTED):
            raise ValueError(f"unknown norm: {self.norm!r}")


@dataclass(frozen=True)
class BoostConfig:
    """Staged boosting schedule for the selector.

    Every stage fits ``trees_per_stage`` trees to the residuals and adds
    ``shrinkage`` times their average to the running model. Stages stop at
    ``max_stages`` or when the relative training-MSE improvement falls
    below ``stop_tolerance``. Each tree grows to at most ``tree_depth``
    levels with ``min_samples_leaf`` rows per leaf, and sees a random
    feature subset of ``feature_subset_size`` columns (default:
    ceil(sqrt(n_features))), drawn from ``fit_boosted``'s seed per (stage, tree).
    """

    trees_per_stage: int = 100
    max_stages: int = 10
    shrinkage: float = 1.0
    stop_tolerance: float = 1e-4
    tree_depth: int = 3
    min_samples_leaf: int = 5
    feature_subset_size: int | None = None

    def __post_init__(self):
        at_least(self, 1, "trees_per_stage", "max_stages")
        above(self, 0, "shrinkage")
        at_least(self, 0, "stop_tolerance")
        at_least(self, 1, "tree_depth", "min_samples_leaf", "feature_subset_size")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the full pruning + boosting + ranking pass.

    All indices are 0-based columns of the matrix handed to
    :func:`run_selection` (equal to catalog_index - 1 for full-catalog
    matrices). ``occurrence`` maps every surviving column to its per-tree
    use count; pruned columns are absent.
    """

    kept_after_prune: tuple[int, ...]
    dropped_pairs: tuple[tuple[int, int, float], ...]
    occurrence: dict[int, int]
    top_k: tuple[int, ...]
    training_mse_per_stage: tuple[float, ...]
    n_stages: int

    @property
    def occurrence_total(self) -> int:
        return sum(self.occurrence.values())


@dataclass
class BoostedModel:
    """The fitted stages, a Forest each, and the training MSE before the first and after each."""

    stages: list[Forest]
    n_features: int
    training_mse_per_stage: list[float]


def prune_colinear(X, cfg: ColinearityConfig = ColinearityConfig()):
    """Drop near-colinear columns, keeping the earlier of each pair.

    Scans ordered pairs (i, j), i < j, in column order. A column j is
    dropped the first time a *surviving* earlier column i matches it with
    |cos| >= gamma; the triple (i, j, cos) is recorded. Returns
    ``(kept, dropped_pairs)`` with kept columns in their original order.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"expected a (n, d) matrix with d >= 1, got {X.shape}")
    if X.shape[0] < 1:
        raise EmptyInput("cannot prune an empty matrix")

    # A column whose largest magnitude is below 0.5 is scaled up by a power of two,
    # which leaves every cosine as it is but keeps a tiny column's squares from
    # underflowing to a zero norm. No column is scaled down.
    _, exponent = np.frexp(np.abs(X).max(axis=0))
    X = np.ldexp(X, np.maximum(-exponent, 0))
    with np.errstate(all="ignore"):  # a zero norm or an overflow is refused below
        norms = np.linalg.norm(X, axis=0) if cfg.norm == L2 else np.abs(X).sum(axis=0)
        cos = (X.T @ X) / np.outer(norms, norms)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroNormColumn(int(zero[0]))
    if not np.isfinite(cos).all():
        raise NonFiniteInput("cosine similarity overflows float range")

    d = X.shape[1]
    dropped = np.zeros(d, dtype=bool)
    pairs: list[tuple[int, int, float]] = []
    for i in range(d):
        if dropped[i]:
            continue
        hits = np.nonzero(~dropped[i + 1:] & (np.abs(cos[i, i + 1:]) >= cfg.gamma))[0]
        for off in hits.tolist():
            j = i + 1 + off
            dropped[j] = True
            pairs.append((i, j, float(cos[i, j])))
    kept = tuple(int(i) for i in np.nonzero(~dropped)[0])
    return kept, tuple(pairs)


def fit_boosted(X, y, cfg: BoostConfig = BoostConfig(), seed: int = 0) -> BoostedModel:
    """Stagewise residual fitting with stages of ``trees_per_stage`` (default 100) trees.

    Stage 0 is the constant mean of ``y``. Each later stage fits its trees
    to the current residuals over the full sample (no bootstrap), averages
    their predictions into the stage output h, and updates the model by
    ``shrinkage * h``. The recorded training MSE per stage never increases:
    every tree's leaf means cannot raise the SSE of the residuals they fit,
    and neither can their convex average.

    After the input check (``cart._training_data``) there is one exit test,
    on each training MSE as it is recorded: one that is not finite (a target
    or step that overflows) raises ``NonFiniteResidual``; otherwise boosting
    stops at ``max_stages``, at a zero MSE, or when the relative gain falls
    below ``stop_tolerance``. No overflow on the way prints a warning.
    """
    X, y = _training_data(X, y)
    n, d = X.shape
    subset_size = min(cfg.feature_subset_size or math.ceil(math.sqrt(d)), d)

    sorted_X = presort(X)  # shared by every stage
    stages: list[Forest] = []
    mse: list[float] = []
    with np.errstate(all="ignore"):  # a non-finite MSE is refused as it is recorded
        current = np.full(n, y.mean())
        while True:
            mse.append(float(np.mean((y - current) ** 2)))
            stage = len(stages)
            if not math.isfinite(mse[-1]):
                raise NonFiniteResidual(f"the training MSE is not finite at stage {stage}")
            if (stage == cfg.max_stages or mse[-1] == 0.0
                    or stage > 0 and (mse[-2] - mse[-1]) / mse[-2] < cfg.stop_tolerance):
                break
            subsets = [
                np.random.default_rng(np.random.SeedSequence([seed, stage, t]))
                .choice(d, size=subset_size, replace=False).tolist()
                for t in range(cfg.trees_per_stage)
            ]
            forest, outputs = fit_stage(X, y - current, subsets, cfg.tree_depth,
                                        cfg.min_samples_leaf, sorted_X)
            current = current + cfg.shrinkage * outputs / cfg.trees_per_stage
            stages.append(forest)

    return BoostedModel(stages, d, mse)


def rank_features(model: BoostedModel) -> dict[int, int]:
    """Occurrence count per feature: the number of fitted trees that split on
    it at least once. Unused features appear with count 0."""
    d = model.n_features
    feature, sizes = (np.concatenate([np.empty(0, dtype=np.intp)]
                                     + [getattr(stage, name) for stage in model.stages])
                      for name in ("feature", "sizes"))
    split = feature >= 0
    tree = np.repeat(np.arange(sizes.size), sizes)[split]
    pairs = np.unique(tree * d + feature[split])  # each (tree, split feature) once
    return dict(enumerate(np.bincount(pairs % d, minlength=d).tolist()))


def ranked(counts: dict[int, int]) -> list[int]:
    """The one ranking rule: the columns with a positive count, highest count first,
    ties to the lower column."""
    return sorted((f for f, c in counts.items() if c > 0), key=lambda f: (-counts[f], f))


@dataclass(frozen=True)
class SelectionConfig:
    colinearity: ColinearityConfig = field(default_factory=ColinearityConfig)
    boost: BoostConfig = field(default_factory=BoostConfig)
    kappa: int = 10

    def __post_init__(self):
        at_least(self, 1, "kappa")


def run_selection(X, y, cfg: SelectionConfig = SelectionConfig(),
                  seed: int = 0) -> SelectionResult:
    """Prune colinear columns, boost on the survivors with ``seed``, rank, take top kappa.

    Occurrence counts and selected indices refer to columns of ``X``;
    pruned columns can never appear in ``top_k``.
    """
    X = np.asarray(X, dtype=np.float64)
    kept, dropped = prune_colinear(X, cfg.colinearity)
    model = fit_boosted(X[:, kept], y, cfg.boost, seed)
    occurrence = {kept[pos]: count for pos, count in rank_features(model).items()}
    return SelectionResult(
        kept_after_prune=kept,
        dropped_pairs=dropped,
        occurrence=occurrence,
        top_k=tuple(ranked(occurrence)[:cfg.kappa]),
        training_mse_per_stage=tuple(model.training_mse_per_stage),
        n_stages=len(model.stages),
    )
