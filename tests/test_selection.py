import math

import numpy as np
import pytest

from hydrocast.errors import (
    EmptyInput,
    NonFiniteInput,
    NonFiniteResidual,
    TooFewSamples,
    ZeroNormColumn,
)
from hydrocast.selection import (
    BoostConfig,
    ColinearityConfig,
    SelectionConfig,
    fit_boosted,
    prune_colinear,
    rank_features,
    ranked,
    run_selection,
)
from hydrocast.synthetic import generate_synthetic

from oracles import features_used, reference_tree_sum, trees_of


# --- cosine similarity, as pruning reports it ---

def cosine_similarity(a, b, norm="l2"):
    """The cosine prune_colinear records for the columns (a, b). At the
    smallest positive gamma it drops b unless the cosine is exactly 0."""
    _, pairs = prune_colinear(np.column_stack([a, b]), ColinearityConfig(gamma=5e-324, norm=norm))
    return pairs[0][2] if pairs else 0.0


def test_cosine_identity():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)


def test_cosine_hand_value():
    assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def test_cosine_l1_variant():
    # same vectors, L1 norms in the denominator: 1 / (2 * 1) = 0.5
    assert cosine_similarity([1.0, 1.0], [1.0, 0.0], norm="l1_as_printed") == pytest.approx(0.5)
    # identical vectors no longer score 1 under L1, which is why L2 is the default
    assert cosine_similarity([1.0, 1.0], [1.0, 1.0], norm="l1_as_printed") == pytest.approx(0.5)


def test_cosine_symmetry_and_bound():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal(rng.integers(2, 30))
        b = rng.standard_normal(a.size)
        c_ab = cosine_similarity(a, b)
        assert c_ab == pytest.approx(cosine_similarity(b, a), abs=1e-12)
        assert abs(c_ab) <= 1.0


def test_cosine_errors():
    with pytest.raises(ValueError):
        prune_colinear(np.array([1.0, 2.0]))  # a vector, not an (n, d) matrix
    with pytest.raises(ZeroNormColumn):
        cosine_similarity([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(EmptyInput):
        prune_colinear(np.empty((0, 3)))


@pytest.mark.parametrize("norm", ["l2", "l1_as_printed"])
@pytest.mark.parametrize("scaled", ["one_value", "whole_column"])
def test_cosine_overflow_is_refused(norm, scaled):
    """A Gram entry past float range is refused, not pruned on (or not) as inf or
    NaN; any numpy warning would be an error."""
    X = np.random.default_rng(3).standard_normal((20, 4))
    if scaled == "one_value":
        X[5, 2] = 1e300
    else:
        X[:, 2] *= 1e300
    with pytest.raises(NonFiniteInput, match="cosine similarity overflows float range"):
        prune_colinear(X, ColinearityConfig(norm=norm))


@pytest.mark.parametrize("norm", ["l2", "l1_as_printed"])
@pytest.mark.parametrize("scale", [2.0**-565, 2.0**-665, 1e-170, 1e-200])
def test_a_tiny_column_prunes_like_the_unscaled_matrix(norm, scale):
    """A column whose squares underflow is not a zero-norm column: scaled by a
    power of two, it gives the unscaled matrix's pruning and cosines bit for bit,
    and by a power of ten, the same pruning with cosines equal to rounding. At the
    smallest gamma, column 0 records its cosine with every other column. A column
    of zeros is still refused."""
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 4))
    X[:, 2] = 2.0 * X[:, 1] + 0.01 * rng.standard_normal(20)
    tiny = X.copy()
    tiny[:, 1] *= scale
    for cfg in (ColinearityConfig(norm=norm), ColinearityConfig(gamma=5e-324, norm=norm)):
        kept, pairs = prune_colinear(X, cfg)
        got_kept, got_pairs = prune_colinear(tiny, cfg)
        assert got_kept == kept
        assert [(i, j) for i, j, _ in got_pairs] == [(i, j) for i, j, _ in pairs]
        if math.frexp(scale)[0] == 0.5:
            assert got_pairs == pairs
        else:
            assert [c for *_, c in got_pairs] == pytest.approx([c for *_, c in pairs], rel=1e-12)
    tiny[:, 3] = 0.0
    with pytest.raises(ZeroNormColumn, match="column 3"):
        prune_colinear(tiny, cfg)


# --- colinearity pruning ---

def test_duplicate_column_dropped():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(40)
    X = np.column_stack([a, rng.standard_normal(40), a])
    kept, pairs = prune_colinear(X, ColinearityConfig(gamma=0.9))
    assert kept == (0, 1)
    assert len(pairs) == 1
    i, j, cos = pairs[0]
    assert (i, j) == (0, 2)
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_scaled_and_negated_duplicates_dropped():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(30)
    X = np.column_stack([a, 3.7 * a, -0.2 * a])
    kept, pairs = prune_colinear(X)
    assert kept == (0,)
    assert {(i, j) for i, j, _ in pairs} == {(0, 1), (0, 2)}
    assert pairs[1][2] == pytest.approx(-1.0, abs=1e-12)


def test_uncorrelated_columns_all_kept():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200, 10))
    kept, pairs = prune_colinear(X)
    assert kept == tuple(range(10))
    assert pairs == ()


def test_chain_of_duplicates_attributed_to_first():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(25)
    X = np.column_stack([a, a, a])
    kept, pairs = prune_colinear(X)
    assert kept == (0,)
    assert [(i, j) for i, j, _ in pairs] == [(0, 1), (0, 2)]


def test_dropped_columns_do_not_prune_others():
    # b is close to both a and c, but a and c are far apart: dropping b
    # (against a) must not take c down with it
    ang = math.radians
    a = np.array([1.0, 0.0])
    b = np.array([math.cos(ang(20)), math.sin(ang(20))])
    c = np.array([math.cos(ang(40)), math.sin(ang(40))])
    X = np.column_stack([a, b, c])
    kept, pairs = prune_colinear(X, ColinearityConfig(gamma=0.9))
    assert kept == (0, 2)
    assert [(i, j) for i, j, _ in pairs] == [(0, 1)]


def test_prune_is_idempotent():
    rng = np.random.default_rng(5)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 8))
        X[:, 3] = X[:, 1] * 2.0
        X[:, 6] = -X[:, 0] + rng.standard_normal(60) * 0.01
        kept, _ = prune_colinear(X)
        kept2, pairs2 = prune_colinear(X[:, kept])
        assert kept2 == tuple(range(len(kept)))
        assert pairs2 == ()


def test_prune_is_scale_invariant():
    rng = np.random.default_rng(6)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((50, 6))
        X[:, 4] = X[:, 2]
        kept_base, _ = prune_colinear(X)
        scales = rng.uniform(0.1, 10.0, 6)
        kept_scaled, _ = prune_colinear(X * scales)
        assert kept_scaled == kept_base


def test_zero_norm_column_rejected():
    X = np.zeros((10, 2))
    X[:, 1] = 1.0
    with pytest.raises(ZeroNormColumn) as err:
        prune_colinear(X)
    assert err.value.index == 0


def test_boosting_data_errors():
    with pytest.raises(TooFewSamples):
        fit_boosted(np.ones((1, 3)), np.ones(1))
    with pytest.raises(NonFiniteInput):
        fit_boosted(np.array([[1.0], [np.nan]]), np.ones(2))


@pytest.mark.parametrize("y, shrinkage, stage", [
    (np.r_[1e160, np.zeros(39)], 1.0, 0),  # the first MSE overflows
    (np.r_[1e308, 1e308, np.zeros(38)], 1.0, 0),  # so does the target's mean
    (np.arange(40.0), 1e308, 1),  # the first stage's step overflows
])
def test_a_training_mse_that_is_not_finite_is_refused_at_its_stage(y, shrinkage, stage):
    X = np.arange(80.0).reshape(40, 2) % 7
    cfg = BoostConfig(trees_per_stage=5, max_stages=3, shrinkage=shrinkage)
    with pytest.raises(NonFiniteResidual, match=f"training MSE is not finite at stage {stage}$"):
        fit_boosted(X, y, cfg)  # and prints no warning, which the suite would raise


def test_gamma_validation():
    with pytest.raises(ValueError):
        ColinearityConfig(gamma=0.0)
    with pytest.raises(ValueError):
        ColinearityConfig(gamma=1.5)


# --- boosted fitting ---

def test_constant_target_stops_immediately():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 4))
    y = np.full(30, 5.0)
    model = fit_boosted(X, y, BoostConfig(trees_per_stage=10))
    assert model.training_mse_per_stage == [0.0]
    assert model.stages == []


def test_noiseless_step_reaches_zero_in_one_stage():
    x = np.linspace(0, 1, 40).reshape(-1, 1)
    y = np.where(x[:, 0] < 0.5, 0.0, 10.0)
    cfg = BoostConfig(
        trees_per_stage=10,
        tree_depth=1, min_samples_leaf=1,
    )
    model = fit_boosted(x, y, cfg)
    assert len(model.training_mse_per_stage) == 2
    assert model.training_mse_per_stage[1] == pytest.approx(0.0, abs=1e-20)
    (stage,) = model.stages
    np.testing.assert_allclose(y.mean() + reference_tree_sum(stage, x) / len(stage.sizes), y,
                               atol=1e-12)


def test_training_mse_never_increases():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((80, 6))
        y = X[:, 0] * 2 - X[:, 3] + rng.standard_normal(80) * 0.5
        model = fit_boosted(X, y, BoostConfig(trees_per_stage=20, max_stages=6), seed=seed)
        mse = model.training_mse_per_stage
        for prev, new in zip(mse, mse[1:]):
            assert new <= prev


def stage_bytes(forest):
    """A stage forest's node columns and tree sizes, as bytes."""
    return [getattr(forest, name).tobytes()
            for name in ("feature", "threshold", "right", "value", "n", "sizes")]


def test_boosting_is_deterministic():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((50, 5))
    y = X[:, 1] + rng.standard_normal(50) * 0.2
    cfg = BoostConfig(trees_per_stage=15, max_stages=3)
    m1 = fit_boosted(X, y, cfg, seed=11)
    m2 = fit_boosted(X, y, cfg, seed=11)
    assert m1.training_mse_per_stage == m2.training_mse_per_stage
    assert [stage_bytes(s) for s in m1.stages] == [stage_bytes(s) for s in m2.stages]


def test_boosted_stage_sums_add_the_trees_in_order():
    rng = np.random.default_rng(21)
    X = rng.integers(0, 5, size=(60, 6)).astype(float)
    y = X[:, 0] * 10.0 ** rng.integers(-6, 7, size=60)  # order shows in the bits
    cfg = BoostConfig(trees_per_stage=30, max_stages=3, shrinkage=0.5, stop_tolerance=0.0)
    model = fit_boosted(X, y, cfg, seed=2)
    assert len(model.stages) == 3
    current = np.full(60, y.mean())
    mse = [float(np.mean((y - current) ** 2))]
    for stage in model.stages:
        current = current + cfg.shrinkage * reference_tree_sum(stage, X) / len(stage.sizes)
        mse.append(float(np.mean((y - current) ** 2)))
    assert model.training_mse_per_stage == mse


def test_shrinkage_and_stage_budget_respected():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((60, 3))
    y = X[:, 0] + rng.standard_normal(60)
    model = fit_boosted(X, y, BoostConfig(trees_per_stage=5, max_stages=4, stop_tolerance=0.0))
    assert len(model.stages) == 4
    assert all(len(stage.sizes) == 5 for stage in model.stages)


# --- occurrence ranking ---

def test_single_leaf_trees_count_zero():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    # leaf minimum larger than half the sample: no tree can ever split
    cfg = BoostConfig(
        trees_per_stage=8,
        max_stages=2,
        tree_depth=3, min_samples_leaf=10,
    )
    model = fit_boosted(X, y, cfg)
    counts = rank_features(model)
    assert counts == {0: 0, 1: 0, 2: 0}
    assert ranked(counts) == []


def test_forced_single_feature_gets_all_counts():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((60, 3))
    y = np.where(X[:, 2] > 0, 10.0, 0.0)
    cfg = BoostConfig(
        trees_per_stage=100,
        max_stages=1,
        feature_subset_size=3,  # every tree sees every feature
        tree_depth=1, min_samples_leaf=1,
    )
    model = fit_boosted(X, y, cfg)
    counts = rank_features(model)
    assert counts == {0: 0, 1: 0, 2: 100}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rank_features_counts_each_tree_once_per_feature(seed):
    """The counts equal a per-tree count over each stage's trees, cut out of its
    block through ``sizes``."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((80, 7))
    y = X[:, 0] * 3 - X[:, 4] ** 2 + rng.standard_normal(80)
    cfg = BoostConfig(trees_per_stage=12, max_stages=3, tree_depth=3, min_samples_leaf=2,
                      stop_tolerance=0.0)
    model = fit_boosted(X, y, cfg, seed=seed)
    want = dict.fromkeys(range(7), 0)
    for stage in model.stages:
        for tree in trees_of(stage):
            for feature in features_used(tree):
                want[feature] += 1
    assert rank_features(model) == want
    assert sum(want.values()) > len(model.stages) * 12  # trees that split on several


def test_select_top_k_tie_break_and_truncation():
    counts = {3: 5, 7: 5, 2: 9}
    assert ranked(counts)[:2] == [2, 3]
    assert ranked(counts)[:10] == [2, 3, 7]
    assert ranked({1: 0, 2: 0})[:10] == []
    with pytest.raises(ValueError):
        SelectionConfig(kappa=0)


# --- end to end selection ---

def test_run_selection_recovers_planted_features():
    planted = ["air_l02", "hgt_l05", "uwnd_l01"]
    data, truth = generate_synthetic(250, planted, noise_sigma=0.2, seed=21)
    cfg = SelectionConfig(boost=BoostConfig(trees_per_stage=40, max_stages=4))
    result = run_selection(data.features, data.precip, cfg, seed=3)
    assert set(truth.planted_columns) <= set(result.top_k)
    assert set(result.top_k) <= set(result.kept_after_prune)
    assert len(result.top_k) <= 10
    assert result.occurrence_total == sum(result.occurrence.values())


def test_run_selection_is_stable():
    data, _ = generate_synthetic(120, ["rhum_l01"], 0.1, seed=5)
    cfg = SelectionConfig(boost=BoostConfig(trees_per_stage=20, max_stages=2))
    r1 = run_selection(data.features, data.precip, cfg, seed=9)
    r2 = run_selection(data.features, data.precip, cfg, seed=9)
    assert r1 == r2


def test_run_selection_maps_indices_through_pruning():
    rng = np.random.default_rng(30)
    n = 150
    X = rng.standard_normal((n, 6))
    X[:, 4] = X[:, 1]  # duplicate: column 4 must be pruned
    y = 3.0 * X[:, 1] + rng.standard_normal(n) * 0.1
    cfg = SelectionConfig(
        boost=BoostConfig(trees_per_stage=30, max_stages=2, feature_subset_size=6)
    )
    result = run_selection(X, y, cfg, seed=2)
    assert 4 not in result.kept_after_prune
    assert (1, 4) in {(i, j) for i, j, _ in result.dropped_pairs}
    assert result.top_k[0] == 1  # the planted (surviving) column, in original indexing
    assert set(result.occurrence) == set(result.kept_after_prune)
