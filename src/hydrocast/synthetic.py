"""Synthetic datasets with a planted, recoverable signal.

Used to verify the selection and training pipeline at desk scale where
the real reanalysis archives are unavailable. All 85 feature columns are
i.i.d. standard normal; precipitation is a documented function of a small
planted subset plus Gaussian noise, shifted so the target stays
nonnegative.

The planted signal over the chosen features p_0 < p_1 < ... < p_{k-1}
(sorted by catalog index) is

    g(x) = sum_i (2.0 - 0.15 * i) * x[p_i]      linear term
         + 1.0 * x[p_0] * x[p_1]                product interaction
         + 2.0 * (x[p_{k-1}] > 0.5)             threshold term

with the product falling back to x[p_0]**2 when only one feature is
planted. Generation is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .catalog import CATALOG_SIZE, IndexPoint, REFERENCE_POINTS, column_of
from .dataset import Dataset, month_sequence
from .errors import EmptyPlantedSet, TooFewSamples

LINEAR_BASE = 2.0
LINEAR_STEP = 0.15
PRODUCT_COEFF = 1.0
THRESHOLD_COEFF = 2.0
THRESHOLD_AT = 0.5

MIN_SAMPLES = 20
MAX_PLANTED = 10


@dataclass(frozen=True)
class SyntheticTruth:
    """Record of the generative function behind a synthetic dataset."""

    planted_columns: tuple[int, ...]  # 0-based, sorted ascending
    linear_coefficients: tuple[float, ...]
    product_pair: tuple[int, int]
    product_coefficient: float
    threshold_column: int
    threshold_at: float
    threshold_coefficient: float
    linear_only: bool
    offset: float
    noise_sigma: float
    signal_std: float
    seed: int

    def signal(self, features: np.ndarray) -> np.ndarray:
        """Noiseless planted signal g of the module docstring for a (M, 85) feature matrix."""
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        g = x[:, list(self.planted_columns)] @ np.asarray(self.linear_coefficients)
        if not self.linear_only:
            a, b = self.product_pair
            g = g + self.product_coefficient * x[:, a] * x[:, b]
            g = g + self.threshold_coefficient * (x[:, self.threshold_column] > self.threshold_at)
        return g


def generate_synthetic(
    n_samples: int,
    planted,
    noise_sigma: float = 0.0,
    seed: int = 0,
    point: IndexPoint | None = None,
    linear_only: bool = False,
    noise_rel: float | None = None,
) -> tuple[Dataset, SyntheticTruth]:
    """Build one index point's synthetic dataset.

    Parameters:
        n_samples: number of monthly rows (at least 20)
        planted: names of up to 10 features carrying signal
        noise_sigma: standard deviation of additive Gaussian noise
        seed: drives both the feature draw and the noise draw
        point: index point stamped on the rows (first bundled point by default)
        linear_only: drop the product and threshold terms so the target is
            an exact affine function of the planted features
        noise_rel: when given, the noise std is this fraction of the
            noiseless signal's std, and ``noise_sigma`` is not used

    A noise std that is negative or not finite, or one that makes the
    target overflow, is a ``ValueError`` naming the setting it came from.
    """
    if n_samples < MIN_SAMPLES:
        raise TooFewSamples(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    columns = sorted({column_of(name) for name in planted})
    if not columns:
        raise EmptyPlantedSet("planted feature set must not be empty")
    if len(columns) > MAX_PLANTED:
        raise ValueError(f"at most {MAX_PLANTED} planted features, got {len(columns)}")

    feature_rng = np.random.default_rng([seed, 0])
    noise_rng = np.random.default_rng([seed, 1])
    features = feature_rng.standard_normal((n_samples, CATALOG_SIZE))

    k = len(columns)
    truth = SyntheticTruth(
        planted_columns=tuple(columns),
        linear_coefficients=tuple(LINEAR_BASE - LINEAR_STEP * i for i in range(k)),
        product_pair=(columns[0], columns[1]) if k >= 2 else (columns[0], columns[0]),
        product_coefficient=PRODUCT_COEFF,
        threshold_column=columns[-1],
        threshold_at=THRESHOLD_AT,
        threshold_coefficient=THRESHOLD_COEFF,
        linear_only=linear_only,
        seed=seed,
        offset=0.0, noise_sigma=0.0, signal_std=0.0,  # filled in once the target is drawn
    )
    g = truth.signal(features)
    spread = float(g.std())
    sigma = noise_sigma if noise_rel is None else noise_rel * spread
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        raw = g + noise_rng.standard_normal(n_samples) * sigma
    if not (0 <= sigma < np.inf and np.isfinite(raw).all()):
        name = "noise_sigma" if noise_rel is None else "noise_rel"
        raise ValueError(f"{name} must give a finite, nonnegative noise std that keeps "
                         f"the target finite; it gives {sigma!r}")
    offset = float(-raw.min()) if raw.min() < 0 else 0.0
    truth = replace(truth, offset=offset, noise_sigma=sigma, signal_std=spread)

    data = Dataset(
        point if point is not None else REFERENCE_POINTS[0],
        month_sequence("1981-01", n_samples),
        features,
        raw + offset,
    )
    return data, truth
