import re

import numpy as np
import pytest

from hydrocast.cart import TreeConfig, fit_tree, leaf_values
from hydrocast.errors import (
    DamagedArtifact,
    DuplicateKind,
    EmptyInput,
    NonFiniteInput,
    ShapeMismatch,
    SingularSystem,
    TooFewSamples,
)
from hydrocast.learners import (
    KIND_ORDER,
    LearnerSpec,
    default_specs,
    fit,
    fit_all,
    model_from_dict,
    model_to_dict,
)
from hydrocast.learners.base import (
    KNNConfig,
    LRConfig,
    MLPConfig,
    RFConfig,
    Standardization,
    SVRConfig,
)
from hydrocast.learners.linear import LRModel
from hydrocast.learners.mlp import init_params, loss_and_grads
from hydrocast.learners.neighbors import nearest
from hydrocast.learners.svm import SVRModel, fit_svr
from hydrocast.selection import fit_boosted

from oracles import knn_direct, reference_fit_svr, reference_tree_sum, traced_peak


# --- linear regression ---

def test_lr_recovers_exact_affine_function():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 1))
    y = 2.0 * X[:, 0] + 1.0
    model = fit(LearnerSpec("lr"), X, y)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-10)
    assert model.bias == pytest.approx(1.0, abs=1e-10)
    assert np.abs(y - model.predict_batch(X)).mean() < 1e-8
    assert model.predict_batch(np.array([3.0])[None])[0] == pytest.approx(7.0, abs=1e-9)


def test_lr_multifeature_recovery():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((100, 4))
    w = np.array([1.5, -2.0, 0.0, 3.25])
    y = X @ w + 0.75
    model = fit(LearnerSpec("lr"), X, y)
    np.testing.assert_allclose(model.weights, w, atol=1e-9)
    assert model.bias == pytest.approx(0.75, abs=1e-9)


def test_lr_residuals_orthogonal_to_columns():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((60, 3))
    y = X[:, 0] - X[:, 2] + rng.standard_normal(60)
    model = fit(LearnerSpec("lr"), X, y)
    residual = y - model.predict_batch(X)
    Z = Standardization.fit(X).transform(X)
    for col in range(3):
        assert abs(residual @ Z[:, col]) < 1e-6
    assert abs(residual.sum()) < 1e-6  # intercept column


def test_lr_singular_gram_falls_back_to_ridge():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(30)
    X = np.column_stack([x, x])  # exactly colinear
    y = 3.0 * x + 2.0
    model = fit(LearnerSpec("lr"), X, y)
    pred = model.predict_batch(X)
    np.testing.assert_allclose(pred, y, atol=1e-4)
    with pytest.raises(SingularSystem):
        fit(LearnerSpec("lr", LRConfig(ridge_fallback=False)), X, y)


def test_lr_prediction_contract():
    model = fit(LearnerSpec("lr"), np.arange(10.0).reshape(-1, 1), np.arange(10.0))
    assert model.predict_batch(np.array([3.0])[None])[0] == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ShapeMismatch):
        model.predict_batch(np.array([1.0, 2.0])[None])


# --- k nearest neighbors ---

def test_knn_k1_is_exact_on_training_points():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((25, 3))
    y = rng.standard_normal(25)
    model = fit(LearnerSpec("knn", KNNConfig(k=1)), X, y)
    for i in range(25):
        assert model.predict_batch(X[i][None])[0] == y[i]


def test_knn_k3_hand_case():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 10.0, 20.0, 30.0])
    model = fit(LearnerSpec("knn", KNNConfig(k=3)), X, y)
    # neighbors of 0.9 are x=1, 0, 2 -> mean(10, 0, 20)
    assert model.predict_batch(np.array([0.9])[None])[0] == pytest.approx(10.0)


def test_knn_k_larger_than_train_uses_all():
    X = np.array([[0.0], [1.0]])
    y = np.array([2.0, 4.0])
    model = fit(LearnerSpec("knn", KNNConfig(k=10)), X, y)
    assert model.predict_batch(np.array([0.5])[None])[0] == pytest.approx(3.0)


def test_knn_batch_matches_per_row_reference():
    """100 random widths, then 8, 9, 16, 17 and 85 features twice each: the edges
    of numpy's pairwise-sum blocks of 8, and the catalog's width."""
    rng = np.random.default_rng(41)
    for case in range(110):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 12))
        if case >= 100:
            d = (8, 9, 16, 17, 85)[case % 5]
        # few distinct values make distance ties common
        X = rng.integers(0, 3, size=(n, d)).astype(float) if case % 2 else rng.standard_normal((n, d))
        model = fit(LearnerSpec("knn", KNNConfig(k=int(rng.integers(1, 20)))), X, rng.standard_normal(n))
        Xq = np.vstack([X, rng.integers(0, 3, size=(5, d)).astype(float)])
        Zq = model.standardization.transform(Xq)
        expected = [knn_direct(model.train_z, model.train_y, model.hyper.k, z) for z in Zq]
        np.testing.assert_array_equal(model.predict_batch(Xq), expected)


def test_knn_scoring_holds_one_test_row_of_differences():
    """Distances are computed one test row at a time: 44 queries against 400
    training rows of 85 features trace well under the 12 MB that every (query,
    training row, feature) difference at once takes."""
    rng = np.random.default_rng(47)
    model = fit(LearnerSpec("knn", KNNConfig(k=10)), rng.standard_normal((400, 85)),
                rng.standard_normal(400))
    queries = rng.standard_normal((44, 85))
    _, peak = traced_peak(lambda: model.predict_batch(queries))
    assert peak < 2_000_000


def test_knn_selection_is_the_first_k_of_a_stable_sort():
    """``nearest`` picks the columns a stable sort of every distance puts first, in
    that order: ties go to the lower training row, infinite distances come after
    finite ones and NaN after both, and a k of at least the training rows sorts
    them all."""
    rng = np.random.default_rng(43)
    for case in range(600):
        m, n = int(rng.integers(0, 30)), int(rng.integers(1, 50))
        if case % 3:  # few distinct values make ties at the k-th distance common
            dist = rng.integers(0, int(rng.integers(1, 5)), size=(m, n)).astype(float)
        else:
            dist = rng.random((m, n))
        if case % 4 == 1:
            dist[rng.random((m, n)) < 0.3] = np.inf
        if case % 8 == 3:
            dist[rng.random((m, n)) < 0.2] = np.nan
        k = int(rng.integers(1, n + 4))
        np.testing.assert_array_equal(nearest(dist, k),
                                      np.argsort(dist, axis=1, kind="stable")[:, :k])


# --- random forest ---

def test_rf_single_tree_no_bootstrap_equals_cart():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 4))
    y = X[:, 1] * 2 + rng.standard_normal(60) * 0.3
    cfg = RFConfig(n_trees=1, bootstrap=False, feature_mode="all",
                   max_depth=None, min_samples_leaf=5)
    forest = fit(LearnerSpec("rf", cfg, seed=123), X, y)
    tree = fit_tree(X, y, TreeConfig(max_depth=None, min_samples_leaf=5))
    Xq = rng.standard_normal((30, 4))
    np.testing.assert_array_equal(forest.predict_batch(Xq), leaf_values(tree, Xq)[0])


def test_rf_constant_target_predicts_constant():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 2))
    y = np.full(30, 7.25)
    model = fit(LearnerSpec("rf", RFConfig(n_trees=10)), X, y)
    np.testing.assert_allclose(model.predict_batch(rng.standard_normal((10, 2))), 7.25)


def test_rf_variance_reduction_over_single_trees():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((120, 5))
        y = np.sin(X[:, 0] * 2) + X[:, 1] + rng.standard_normal(120) * 0.4
        Xq = rng.standard_normal((200, 5))
        yq = np.sin(Xq[:, 0] * 2) + Xq[:, 1]
        forest = fit(LearnerSpec("rf", RFConfig(n_trees=40), seed=seed), X, y)
        forest_mse = np.mean((yq - forest.predict_batch(Xq)) ** 2)
        tree_mses = sorted(
            np.mean((yq - prediction) ** 2) for prediction in leaf_values(forest.trees, Xq)
        )
        median_tree = tree_mses[len(tree_mses) // 2]
        if forest_mse <= median_tree:
            wins += 1
    assert wins >= 18  # statistical: at least 90% of seeds


def test_rf_is_deterministic_given_seed():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 3))
    y = rng.standard_normal(50)
    m1 = fit(LearnerSpec("rf", RFConfig(n_trees=8), seed=9), X, y)
    m2 = fit(LearnerSpec("rf", RFConfig(n_trees=8), seed=9), X, y)
    Xq = rng.standard_normal((20, 3))
    np.testing.assert_array_equal(m1.predict_batch(Xq), m2.predict_batch(Xq))


def test_rf_prediction_adds_the_trees_in_order():
    rng = np.random.default_rng(12)
    X = rng.integers(0, 4, size=(70, 5)).astype(float)
    y = rng.standard_normal(70) * 10.0 ** rng.integers(-8, 9, size=70)  # order shows in the bits
    model = fit(LearnerSpec("rf", RFConfig(n_trees=25, min_samples_leaf=1), seed=4), X, y)
    Xq = np.vstack([X[:10], rng.uniform(-1, 4, size=(15, 5))])
    want = reference_tree_sum(model.trees, Xq) / len(model.trees.sizes)
    assert model.predict_batch(Xq).tobytes() == want.tobytes()


# --- support vector regression ---

def test_svr_fixed_parameters_predict_constant():
    model = SVRModel(SVRConfig(), (0, 1, 2), Standardization.identity(3), weights=np.zeros(3), bias=5.0)
    assert model.predict_batch(np.array([4.0, -2.0, 0.5])[None])[0] == 5.0


def test_svr_epsilon_tube_on_noiseless_linear_data():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((50, 3))
    y = X @ np.array([1.5, -2.0, 0.7]) + 0.8
    cfg = SVRConfig(c=1000.0, epsilon=0.1, epochs=2000, step=0.2)
    model = fit(LearnerSpec("svr", cfg, seed=5), X, y)
    residuals = np.abs(y - model.predict_batch(X))
    assert residuals.max() <= cfg.epsilon + 1e-3


def test_svr_is_deterministic_given_seed():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((40, 2))
    y = X[:, 0] + rng.standard_normal(40) * 0.1
    m1 = fit(LearnerSpec("svr", seed=3), X, y)
    m2 = fit(LearnerSpec("svr", seed=3), X, y)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


def test_fit_svr_matches_reference_bit_for_bit():
    rng = np.random.default_rng(41)
    for case in range(48):
        d = 1 + case % 12
        n = int(rng.integers(5, 40))
        X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, size=d)
        y = X @ rng.standard_normal(d) + rng.standard_normal(n) * 0.3
        cfg = SVRConfig(
            c=(0.1, 1.0, 10.0, 1000.0)[case % 4],
            epsilon=(0.0, 0.1)[case % 2],
            epochs=(1, 2, 7, 20)[case // 12],
            step=(0.05, 0.5, 2.0)[case % 3],
        )
        model = fit_svr(cfg, X, y, tuple(range(d)), seed=case)
        weights, bias = reference_fit_svr(cfg, X, y, seed=case)
        assert model.weights.tolist() == weights.tolist(), (case, cfg)
        assert model.bias == bias, (case, cfg)


# --- multilayer perceptron ---

def test_mlp_gradients_match_central_differences():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(3):
        params = init_params([3, 4, 1], rng)
        Z = rng.standard_normal((6, 3))
        targets = rng.standard_normal(6)
        _, grads = loss_and_grads(params, Z, targets)
        h = 1e-5
        for layer, (W, b) in enumerate(params):
            for slot, arr in enumerate((W, b)):
                flat = arr.ravel()
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    up, _ = loss_and_grads(params, Z, targets)
                    flat[k] = orig - h
                    down, _ = loss_and_grads(params, Z, targets)
                    flat[k] = orig
                    numeric = (up - down) / (2 * h)
                    analytic = grads[layer][slot].ravel()[k]
                    denom = max(abs(numeric) + abs(analytic), 1e-8)
                    worst = max(worst, abs(numeric - analytic) / denom)
    assert worst < 1e-4


def test_mlp_fits_linear_function_reasonably():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((200, 2))
    y = 3.0 * X[:, 0] - X[:, 1] + 50.0  # offset checks target scaling
    model = fit(LearnerSpec("mlp", MLPConfig(epochs=400), seed=1), X, y)
    pred = model.predict_batch(X)
    assert np.isfinite(pred).all()
    assert np.corrcoef(pred, y)[0, 1] > 0.95


def test_mlp_is_deterministic_given_seed():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((50, 3))
    y = rng.standard_normal(50)
    m1 = fit(LearnerSpec("mlp", MLPConfig(epochs=50), seed=4), X, y)
    m2 = fit(LearnerSpec("mlp", MLPConfig(epochs=50), seed=4), X, y)
    for (w1, b1), (w2, b2) in zip(m1.layers, m2.layers):
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)


def test_mlp_hidden_sizes_must_be_nonempty():
    with pytest.raises(ValueError):
        MLPConfig(hidden_sizes=())


# --- shared contract ---

def test_fit_all_returns_all_five_default_models():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((60, 4))
    y = X[:, 0] * 2 + rng.standard_normal(60) * 0.2 + 10
    specs = default_specs(seed=7)
    light = []
    for spec in specs:
        if spec.kind == "rf":
            spec = LearnerSpec("rf", RFConfig(n_trees=10), seed=spec.seed)
        elif spec.kind == "mlp":
            spec = LearnerSpec("mlp", MLPConfig(epochs=50), seed=spec.seed)
        elif spec.kind == "svr":
            spec = LearnerSpec("svr", SVRConfig(epochs=50), seed=spec.seed)
        light.append(spec)
    models = fit_all(light, X, y)
    assert set(models) == set(KIND_ORDER)
    for model in models.values():
        assert np.isfinite(model.predict_batch(X)).all()


def test_fit_all_empty_specs_gives_empty_map():
    assert fit_all([], np.zeros((5, 2)), np.zeros(5)) == {}


def test_fit_all_rejects_duplicate_kinds():
    with pytest.raises(DuplicateKind):
        fit_all([LearnerSpec("lr"), LearnerSpec("lr")], np.zeros((5, 2)), np.zeros(5))


def test_fit_all_tags_failing_kind():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(20)
    X = np.column_stack([x, x])
    y = x * 2
    with pytest.raises(SingularSystem) as err:
        fit_all([LearnerSpec("lr", LRConfig(ridge_fallback=False))], X, y)
    assert "[lr]" in str(err.value)


def test_fit_data_errors():
    spec = LearnerSpec("lr")
    with pytest.raises(ShapeMismatch):
        fit(spec, np.ones((3, 2)), np.ones(4))
    with pytest.raises(TooFewSamples):
        fit(spec, np.ones((1, 2)), np.ones(1))
    with pytest.raises(ShapeMismatch):
        fit(spec, np.ones((3, 0)), np.ones(3))
    with pytest.raises(NonFiniteInput):
        fit(spec, np.array([[1.0], [np.inf], [2.0]]), np.ones(3))
    with pytest.raises(ShapeMismatch):
        fit(spec, np.ones((3, 2)), np.ones(3), feature_indices=(0,))


#: Bad training input, and the class that trees, boosting and every learner raise for it.
BAD_TRAINING_INPUT = {
    "x_a_vector": (np.ones(5), np.ones(5), ShapeMismatch),
    "x_three_dimensional": (np.ones((5, 2, 1)), np.ones(5), ShapeMismatch),
    "y_a_column": (np.ones((5, 2)), np.ones((5, 1)), ShapeMismatch),
    "y_shorter": (np.ones((5, 2)), np.ones(4), ShapeMismatch),
    "y_empty": (np.ones((5, 2)), np.empty(0), ShapeMismatch),
    "no_column": (np.empty((5, 0)), np.zeros(5), ShapeMismatch),
    "no_column_no_row": (np.empty((0, 0)), np.empty(0), ShapeMismatch),
    "no_row": (np.empty((0, 2)), np.empty(0), EmptyInput),
    "one_row": (np.ones((1, 2)), np.ones(1), TooFewSamples),
    "nan_in_x": (np.array([[1.0], [np.nan], [2.0]]), np.ones(3), NonFiniteInput),
    "inf_in_y": (np.ones((3, 1)), np.array([0.0, np.inf, 1.0]), NonFiniteInput),
}


@pytest.mark.parametrize("case", sorted(BAD_TRAINING_INPUT))
@pytest.mark.parametrize("train", ["fit_tree", "fit_boosted", *KIND_ORDER])
def test_bad_training_input_raises_one_class_everywhere(train, case):
    X, y, error = BAD_TRAINING_INPUT[case]
    with pytest.raises(error):
        if train in KIND_ORDER:
            fit(LearnerSpec(train), X, y)
        else:
            {"fit_tree": fit_tree, "fit_boosted": fit_boosted}[train](X, y)


def test_spec_validation():
    with pytest.raises(ValueError):
        LearnerSpec("boost")
    with pytest.raises(ValueError):
        LearnerSpec("lr", KNNConfig())
    with pytest.raises(ValueError):
        KNNConfig(k=0)
    with pytest.raises(ValueError):
        RFConfig(n_trees=0)
    with pytest.raises(ValueError):
        SVRConfig(epsilon=-0.1)


def test_a_model_refuses_state_other_than_its_kinds():
    with pytest.raises(TypeError, match=re.escape(
            "LRModel takes state ['weights', 'bias'], got ['weights']")):
        LRModel(LRConfig(), (0,), Standardization.identity(1), weights=np.zeros(1))


# models.json keys per kind, in file order, as README documents them
PAYLOAD_KEYS = {
    "rf": ["trees"],
    "knn": ["train_z", "train_y"],
    "svr": ["weights", "bias"],
    "lr": ["weights", "bias"],
    "mlp": ["layers", "y_mean", "y_std"],
}


@pytest.mark.parametrize("kind,hyper", [
    ("lr", None),
    ("knn", KNNConfig(k=2)),
    ("rf", RFConfig(n_trees=5)),
    ("svr", SVRConfig(epochs=30)),
    ("mlp", MLPConfig(epochs=30)),
])
def test_serialization_round_trip(kind, hyper):
    import json

    rng = np.random.default_rng(15)
    X = rng.standard_normal((40, 3))
    y = X[:, 0] + rng.standard_normal(40) * 0.1
    model = fit(LearnerSpec(kind, hyper, seed=2), X, y, feature_indices=(4, 9, 13))
    payload = model_to_dict(model)
    assert list(payload) == ["kind", "hyper", "feature_indices", "standardization",
                             *PAYLOAD_KEYS[kind]]
    clone = model_from_dict(json.loads(json.dumps(payload)))
    assert json.dumps(model_to_dict(clone)) == json.dumps(payload)
    assert clone.kind == kind
    assert clone.feature_indices == (4, 9, 13)
    Xq = rng.standard_normal((15, 3))
    np.testing.assert_array_equal(model.predict_batch(Xq), clone.predict_batch(Xq))


@pytest.mark.parametrize("kind,hyper,damage", [
    ("lr", None, lambda p: p["weights"].update(data=None)),
    ("lr", None, lambda p: p["weights"].update(data="1.5")),
    ("svr", SVRConfig(epochs=5), lambda p: p["weights"].update(dtype=None)),
    ("knn", KNNConfig(k=2), lambda p: p["train_z"].update(data=None)),
    ("knn", KNNConfig(k=2), lambda p: p["train_y"].update(dtype="x")),
    ("mlp", MLPConfig(epochs=5), lambda p: p["layers"][0]["W"].update(data=None)),
    ("mlp", MLPConfig(epochs=5), lambda p: p["layers"][0]["b"].update(dtype=None)),
], ids=["lr_null", "lr_text", "svr_null", "knn_z_null", "knn_y_text", "mlp_w_null", "mlp_b_null"])
def test_float_state_refuses_what_is_not_a_number(kind, hyper, damage):
    """A null or a string cannot stand inside an encoded array, so each case puts
    one in the array's header instead."""
    rng = np.random.default_rng(16)
    X = rng.standard_normal((20, 2))
    payload = model_to_dict(fit(LearnerSpec(kind, hyper, seed=3), X, X[:, 0]))
    damage(payload)
    with pytest.raises(DamagedArtifact, match=f"malformed {kind} model payload"):
        model_from_dict(payload)


@pytest.mark.parametrize("kind,setting", [("mlp", {"beta1": 0.8}), ("lr", {"ridge": 1e-6})],
                         ids=["mlp_beta1", "lr_ridge"])
def test_hyper_refuses_a_setting_that_is_a_constant(kind, setting):
    X = np.random.default_rng(17).standard_normal((20, 2))
    hyper = MLPConfig(epochs=5) if kind == "mlp" else None
    payload = model_to_dict(fit(LearnerSpec(kind, hyper, seed=3), X, X[:, 0]))
    payload["hyper"].update(setting)
    with pytest.raises(DamagedArtifact, match=f"malformed {kind} model payload"):
        model_from_dict(payload)
