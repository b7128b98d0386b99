import json
import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from hydrocast.cart import (
    FOREST_COLUMNS,
    TreeConfig,
    fit_stage,
    fit_tree,
    forest_from_dict,
    forest_to_dict,
    join,
    leaf_values,
    presort,
    tree_sum,
)
from hydrocast.errors import DamagedArtifact, EmptyInput, NonFiniteInput, ShapeMismatch
from hydrocast.learners.base import RFConfig
from hydrocast.learners.forest import fit_rf
from hydrocast.typed import decode

from oracles import (
    best_depth1_splits,
    depth,
    encoded,
    features_used,
    forest_block,
    forest_trees,
    full_columns,
    node_columns,
    node_list,
    packed,
    reference_fit_tree,
    reference_predict,
    sparse_block,
    trees_of,
    unpacked,
)

ROOT = Path(__file__).resolve().parents[1]


def training_mse(tree, X, y) -> float:
    return float(np.mean((y - leaf_values(tree, X)[0]) ** 2))


def random_case(rng, max_n=8, max_d=3):
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    X = rng.integers(0, 6, size=(n, d)).astype(float)  # repeats make ties likely
    y = rng.integers(-5, 6, size=n).astype(float)
    return X, y


def nodes_of(tree):
    return node_list(tree)


def read_tree(payload):
    """A forest of one tree given in the five node columns (``node_columns``),
    written as the file stores it and read back."""
    return forest_from_dict(encoded(sparse_block(payload)))


def root_of(tree):
    return nodes_of(tree)[0]


def root_split_of(tree):
    root = root_of(tree)
    assert "feature" in root
    return root["feature"], root["threshold"]


def split_sse(X, y, feature, threshold):
    left = X[:, feature] <= threshold
    yl, yr = y[left], y[~left]
    return float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())


def test_depth1_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        X, y = random_case(rng)
        best_sse, optima = best_depth1_splits(X, y)
        tree = fit_tree(X, y, TreeConfig(max_depth=1))
        if not optima or y.max() == y.min():
            assert "value" in root_of(tree)
            continue
        feature, threshold = root_split_of(tree)
        achieved = split_sse(X, y, feature, threshold)
        scale = max(1.0, abs(best_sse))
        assert achieved <= best_sse + 1e-9 * scale
        # the chosen split must land in one of the optimal midpoint intervals
        assert any(f == feature and lo < threshold <= hi for _, f, lo, hi, _ in optima)
        # on a unique optimum the choice is forced
        if len(optima) == 1:
            _, f, lo, hi, thr = optima[0]
            assert feature == f
            assert threshold == pytest.approx(thr, abs=1e-12)
        checked += 1
    assert checked > 100


def test_constant_target_gives_single_leaf():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.full(10, 3.5)
    tree = fit_tree(X, y)
    root = root_of(tree)
    assert "value" in root
    assert root["value"] == 3.5
    assert leaf_values(tree, np.array([99.0])[None])[0][0] == 3.5
    assert features_used(tree) == set()


def test_step_function_found_exactly():
    x = np.array([1.0, 2, 3, 4, 6, 7, 8, 9])
    y = np.where(x < 5, 0.0, 10.0)
    tree = fit_tree(x.reshape(-1, 1), y, TreeConfig(max_depth=1))
    feature, threshold = root_split_of(tree)
    assert feature == 0
    assert 4.0 < threshold <= 6.0  # between largest x<5 and smallest x>=5
    assert threshold == pytest.approx(5.0)
    assert training_mse(tree, x.reshape(-1, 1), y) == 0.0
    assert leaf_values(tree, np.array([4.0])[None])[0][0] == 0.0
    assert leaf_values(tree, np.array([6.0])[None])[0][0] == 10.0
    assert features_used(tree) == {0}


def test_two_samples_with_leaf_minimum_two():
    X = np.array([[0.0], [1.0]])
    y = np.array([2.0, 4.0])
    tree = fit_tree(X, y, TreeConfig(min_samples_leaf=2))
    root = root_of(tree)
    assert "value" in root
    assert root["value"] == 3.0
    assert root["n"] == 2


def test_boundary_value_routes_left():
    tree = read_tree(node_columns([
        {"feature": 0, "threshold": 1.0, "left": 1, "right": 2},
        {"value": -1.0, "n": 1},
        {"value": 1.0, "n": 1},
    ], 1))
    assert leaf_values(tree, np.array([1.0])[None])[0][0] == -1.0
    assert leaf_values(tree, np.array([1.0 + 1e-12])[None])[0][0] == 1.0


def test_training_mse_non_increasing_in_depth():
    rng = np.random.default_rng(7)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((80, 4))
        y = X[:, 0] * 2 + np.sin(X[:, 1] * 3) + rng.standard_normal(80) * 0.3
        errors = [
            training_mse(fit_tree(X, y, TreeConfig(max_depth=depth)), X, y)
            for depth in range(1, 7)
        ]
        for shallow, deep in zip(errors, errors[1:]):
            assert deep <= shallow + 1e-12


def test_every_leaf_value_is_mean_of_routed_targets():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((100, 3))
    y = rng.standard_normal(100)
    tree = fit_tree(X, y, TreeConfig(max_depth=4, min_samples_leaf=3))
    nodes = nodes_of(tree)

    def leaf_of(x):
        i = 0
        while "feature" in nodes[i]:
            node = nodes[i]
            i = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return i

    routed = {}
    for i in range(100):
        routed.setdefault(leaf_of(X[i]), []).append(y[i])
    for leaf, targets in routed.items():
        assert nodes[leaf]["value"] == pytest.approx(np.mean(targets), abs=1e-12)
        assert nodes[leaf]["n"] == len(targets)


def test_max_depth_respected():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((200, 3))
    y = rng.standard_normal(200)
    for max_depth in (1, 2, 3):
        tree = fit_tree(X, y, TreeConfig(max_depth=max_depth))
        assert depth(tree) <= max_depth


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((60, 2))
    y = rng.standard_normal(60)
    tree = fit_tree(X, y, TreeConfig(min_samples_leaf=7))
    for node in nodes_of(tree):
        if "value" in node:
            assert node["n"] >= 7


def test_feature_subset_restricts_splits():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((80, 5))
    y = X[:, 0] * 5.0  # feature 0 is the only signal
    tree = fit_tree(X, y, TreeConfig(max_depth=3, feature_subset=(2, 3)))
    assert features_used(tree) <= {2, 3}


def test_features_per_node_is_deterministic_given_seed():
    rng = np.random.default_rng(19)
    X = rng.standard_normal((100, 6))
    y = X @ rng.standard_normal(6) + rng.standard_normal(100) * 0.1
    cfg = TreeConfig(max_depth=4, features_per_node=2, seed=5)
    t1 = fit_tree(X, y, cfg)
    t2 = fit_tree(X, y, cfg)
    Xq = rng.standard_normal((40, 6))
    np.testing.assert_array_equal(leaf_values(t1, Xq)[0], leaf_values(t2, Xq)[0])
    t3 = fit_tree(X, y, TreeConfig(max_depth=4, features_per_node=2, seed=6))
    assert not np.array_equal(leaf_values(t1, Xq)[0], leaf_values(t3, Xq)[0])


def test_repeated_feature_counts_once_in_features_used():
    x = np.array([1.0, 2, 3, 4, 5, 6, 7, 8])
    y = np.array([0.0, 0, 5, 5, 9, 9, 14, 14])  # staircase on one feature
    tree = fit_tree(x.reshape(-1, 1), y, TreeConfig(max_depth=2))
    assert features_used(tree) == {0}
    assert np.count_nonzero(tree.feature == 0) >= 2  # split on it twice or more


def test_json_round_trip():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((50, 3))
    y = rng.standard_normal(50)
    tree = fit_tree(X, y, TreeConfig(max_depth=3))
    clone = forest_from_dict(json.loads(json.dumps(forest_to_dict(tree))))
    Xq = rng.standard_normal((20, 3))
    np.testing.assert_array_equal(leaf_values(tree, Xq)[0], leaf_values(clone, Xq)[0])
    assert forest_to_dict(clone) == forest_to_dict(tree)


@pytest.mark.parametrize("feature", [-1, 1])
def test_from_dict_rejects_a_split_feature_outside_n_features(feature):
    payload = encoded(sparse_block(node_columns([
        {"feature": feature, "threshold": 0.5, "left": 1, "right": 2},
        {"value": 0.0, "n": 1},
        {"value": 1.0, "n": 1},
    ], 1)))
    with pytest.raises(ShapeMismatch):
        forest_from_dict(payload)


@pytest.mark.parametrize("right", [0, 1, 3, -1],
                         ids=["at_parent", "at_left_child", "past_end", "negative"])
def test_from_dict_rejects_child_links_not_past_the_parent(right):
    """Only the five-column layout of earlier versions could hold such a link,
    and it is refused; the stored layout has no link to damage, and the reader
    puts the right child past the left subtree."""
    nodes = [
        {"feature": 0, "threshold": 0.5, "left": 1, "right": right},
        {"value": 0.0, "n": 1},
        {"value": 1.0, "n": 1},
    ]
    with pytest.raises(DamagedArtifact, match="rerun train"):
        forest_from_dict(node_columns(nodes, 1))
    forest = forest_from_dict(encoded(sparse_block(node_columns(nodes, 1))))
    # the root is split 0; its children are leaves 0 and 1, coded ~0 and ~1
    assert (forest.root.tolist(), forest.left.tolist(), forest.right.tolist()) == ([0], [~0], [~1])


def small_tree():
    return fit_tree(np.array([[1.0], [2.0], [3.0]]), np.array([0.0, 0.0, 1.0]))


def test_to_dict_writes_the_forest_block():
    payload = forest_to_dict(small_tree())
    assert unpacked(payload) == {
        "n_features": 1, "sizes": [3], "feature": [0, -1, -1], "threshold": [2.5],
        "value": [0.0, 1.0], "n": [2, 1],
    }
    assert tuple(payload)[2:] == tuple(FOREST_COLUMNS)
    assert [payload[name]["dtype"] for name in FOREST_COLUMNS] == ["<i1", "<f8", "<f8", "<i1"]


def test_to_dict_writes_the_five_node_columns():
    """The block keeps each of the five node columns at the nodes that use it:
    spelled out again, it gives all five, and the grown tree and the tree read
    back hold the block as it is, with ``split_feature``, ``left`` and ``right``
    per split and ``root`` per tree derived."""
    tree = small_tree()
    payload = forest_to_dict(tree)
    (stored,) = forest_trees(unpacked(payload))
    assert full_columns(stored) == {
        "n_features": 1, "feature": [0, -1, -1], "threshold": [2.5, 0.0, 0.0],
        "right": [2, -1, -1], "value": [0.0, 0.0, 1.0], "n": [0, 2, 1]}
    columns = {"feature": [0, -1, -1], "threshold": [2.5], "value": [0.0, 1.0], "n": [2, 1],
               "split_feature": [0], "left": [~0], "right": [~1], "root": [0]}
    clone = forest_from_dict(payload)
    for name, column in columns.items():
        assert getattr(tree, name).tolist() == column
        assert getattr(clone, name).tolist() == column


def rewrite_node(at, **fields):
    """A damage that sets ``fields`` of node ``at`` in a tree's five node columns
    and stores the tree again, so every column keeps the length its flags give."""
    def damage(tree):
        columns = full_columns(tree)
        for name, value in fields.items():
            columns[name][at] = value
        tree.update(sparse_block(columns))
    return damage


#: Damages of a tree whose columns still match its flags, but whose flags do not
#: make one full binary tree in pre-order.
NOT_ONE_TREE = {
    "split_flipped_to_leaf": rewrite_node(0, feature=-1, value=0.5, n=3),
    "leaf_flipped_to_split": rewrite_node(2, feature=0, threshold=1.5),
    "leaves_swapped_with_split": lambda tree: tree.update(feature=[-1, -1, 0]),
}


@pytest.mark.parametrize("damage", NOT_ONE_TREE.values(), ids=NOT_ONE_TREE)
def test_from_dict_refuses_flags_that_do_not_make_one_tree(damage):
    """Found on the last tree of a block, at that tree's offset."""
    trees = forest_trees(unpacked(forest_to_dict(join([small_tree()] * 3))))
    damage(trees[-1])
    splits = sum(feature >= 0 for feature in trees[-1]["feature"])  # the columns match the flags
    assert len(trees[-1]["threshold"]) == splits
    assert len(trees[-1]["value"]) == len(trees[-1]["n"]) == len(trees[-1]["feature"]) - splits
    with pytest.raises(ShapeMismatch, match="one full binary tree"):
        forest_from_dict(encoded(forest_block(trees)))


@pytest.mark.parametrize("damage", [
    lambda tree: tree["value"].pop(),
    lambda tree: tree["threshold"].append(0.0),
    lambda tree: tree.update({name: [] for name in FOREST_COLUMNS}),
    lambda tree: tree.update(n=[[2], [1]]),
    lambda tree: tree.update(threshold=2.5),
    lambda tree: tree["threshold"].pop(),
    lambda tree: tree["value"].append(0.0),
    lambda tree: tree["n"].pop(),
    lambda tree: tree["n"].append(1),
], ids=["value_short", "threshold_long", "all_empty", "n_nested", "threshold_scalar",
        "threshold_short", "value_long", "n_short", "n_long"])
def test_from_dict_rejects_columns_not_one_length(damage):
    """Each column must be an encoded array of rank 1 as long as its nodes:
    ``feature`` one entry per node, ``threshold`` one per split, ``value`` and
    ``n`` one per leaf."""
    payload = unpacked(forest_to_dict(small_tree()))
    damage(payload)
    with pytest.raises(ShapeMismatch):
        forest_from_dict(encoded(payload))


def spell(name, values, dtype):
    """A damage that writes column ``name`` as ``values`` in ``dtype``, a dtype the
    encoder would not pick for it."""
    return lambda tree: tree.update({name: packed(values, dtype)})


def set_header(name, **fields):
    """A damage that sets ``fields`` of column ``name``'s encoded header."""
    return lambda tree: tree[name].update(fields)


@pytest.mark.parametrize("damage", [
    spell("n", [2.5, 1.0], "<f8"),
    spell("feature", [0.5, -1.0, -1.0], "<f8"),
    spell("n", [2.0, 1.0], "<f8"),
    set_header("value", data=None),
    set_header("threshold", dtype=None),
    set_header("threshold", data="2.5"),
    spell("n", [2**63, 1], "<u8"),
    lambda tree: tree.update(n_features=1.5),
    lambda tree: tree.update(n_features=True),
    lambda tree: tree.update(n_features=2, feature=packed([True, False, False], "|b1")),
    spell("value", [0.0, False], "|b1"),
    spell("n", [2, True], "|b1"),
], ids=["n_fractional", "feature_fractional", "n_float", "value_null", "threshold_null",
        "threshold_text", "n_past_int64", "n_features_fractional", "n_features_bool",
        "feature_true", "value_false", "n_true"])
def test_from_dict_refuses_numbers_it_would_change(damage):
    """A fraction, a null, a true or false or a string cannot stand inside an
    encoded array, so each case is a column whose dtype is not of its kind
    (floats where integers belong, bools, unsigned integers) or whose header
    is damaged; ``n_features`` stays a JSON number."""
    payload = forest_to_dict(small_tree())
    damage(payload)
    with pytest.raises(ShapeMismatch):
        forest_from_dict(payload)


@pytest.mark.parametrize("damage", [
    lambda tree: tree["feature"].__setitem__(0, 1),
    lambda tree: tree["feature"].__setitem__(1, -2),
    lambda tree: tree["n"].__setitem__(0, 2.5),  # the column is then written as floats
    lambda tree: tree["n"].__setitem__(0, math.nan),  # as floats too, the nearest to a null
    lambda tree: tree["n"].__setitem__(0, 0),
    lambda tree: tree["n"].__setitem__(0, -3),
    lambda tree: tree["threshold"].pop(),
    lambda tree: tree["value"].append(0.0),
], ids=["feature_past_n_features", "leaf_feature_not_minus_1", "n_fractional", "n_null",
        "n_zero", "n_negative", "threshold_short", "value_long"])
def test_from_dict_checks_each_tree_at_its_own_offset(damage):
    """A damage to the last tree of a block is found at that tree's offset, not
    only at the start of the columns."""
    trees = forest_trees(unpacked(forest_to_dict(join([small_tree()] * 3))))
    damage(trees[-1])
    with pytest.raises(ShapeMismatch):
        forest_from_dict(encoded(forest_block(trees)))


@pytest.mark.parametrize("right", [3, 4, 5], ids=["next_root", "next_left", "next_right"])
def test_from_dict_refuses_a_right_link_into_the_next_tree(right):
    """Only the five-column block of earlier versions could hold such a link,
    and it is refused; the stored block has no link to damage, and the reader
    derives each tree's links inside that tree."""
    trees = forest_trees(unpacked(forest_to_dict(join([small_tree()] * 2))))
    old = forest_block([full_columns(tree) for tree in trees])  # each root sends the rest to node 2
    old["right"][0] = right  # an index in the block's second tree, read from the first
    with pytest.raises(DamagedArtifact, match="rerun train"):
        forest_from_dict(old)
    clone = forest_from_dict(encoded(sparse_block(old)))
    # each root (splits 0 and 1) sends the rest to its own tree's second leaf
    assert (clone.root.tolist(), clone.right.tolist()) == ([0, 1], [~1, ~3])


@pytest.mark.parametrize("sizes", [[], [0, 6], [3, 0, 3], [-1, 7], [1.5, 4.5], [True, 5],
                                   [3.0, 3], [3], [3, 4], [2, 2, 2], [10**30],
                                   [10**30, 6 - 10**30], None, 6, "3,3", [[3], [3]],
                                   [1, 5], [4, 2], [6]],
                         ids=["empty", "zero", "zero_between_trees", "negative", "fractional",
                              "true", "float_3", "short", "long", "cutting_a_tree", "huge",
                              "huge_negative", "null", "number", "text", "nested",
                              "ending_a_tree_early", "ending_a_tree_late", "joining_two_trees"])
def test_from_dict_refuses_sizes_that_do_not_cut_the_columns_into_trees(sizes):
    payload = forest_to_dict(join([small_tree()] * 2))
    payload["sizes"] = sizes
    with pytest.raises(ShapeMismatch):
        forest_from_dict(payload)


def test_from_dict_refuses_the_node_list_layout():
    old = [{"n_features": 1, "nodes": node_list(small_tree())}]
    with pytest.raises(DamagedArtifact, match="rerun train"):
        forest_from_dict(old)


def test_from_dict_refuses_a_tree_with_a_left_column():
    (tree,) = forest_trees(unpacked(forest_to_dict(small_tree())))
    old = [{**full_columns(tree), "left": [1, -1, -1]}]  # the six columns earlier versions wrote
    with pytest.raises(DamagedArtifact, match="rerun train"):
        forest_from_dict(old)


def test_from_dict_refuses_the_per_tree_layout():
    old = [full_columns(tree)
           for tree in forest_trees(unpacked(forest_to_dict(join([small_tree()] * 2))))]
    with pytest.raises(DamagedArtifact, match="rerun train"):
        forest_from_dict(old)


def test_from_dict_refuses_the_five_column_block():
    trees = forest_trees(unpacked(forest_to_dict(join([small_tree()] * 2))))
    old = forest_block([full_columns(tree) for tree in trees])  # the block earlier versions wrote
    assert set(old) == {"n_features", "sizes", "feature", "threshold", "right", "value", "n"}
    with pytest.raises(DamagedArtifact, match="rerun train"):
        forest_from_dict(old)


def test_from_dict_refuses_the_block_of_json_lists():
    old = unpacked(forest_to_dict(join([small_tree()] * 2)))  # the block earlier versions wrote
    assert old["feature"] == [0, -1, -1, 0, -1, -1]
    with pytest.raises(DamagedArtifact, match="rerun train"):
        forest_from_dict(old)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forest_codec_lays_the_trees_end_to_end(seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((120, 6))
    y = X[:, 0] - X[:, 2] ** 2 + rng.standard_normal(120)
    forest = fit_rf(RFConfig(n_trees=12), X, y, list(range(6)), seed=seed).trees
    trees = trees_of(forest)
    payload = forest_to_dict(forest)
    assert payload["sizes"] == [tree.feature.size for tree in trees]
    assert unpacked(payload) == sparse_block(forest_block([node_columns(node_list(tree), 6)
                                                           for tree in trees]))
    clone = forest_from_dict(json.loads(json.dumps(payload)))
    queries = np.vstack([X, rng.standard_normal((50, 6))])
    assert leaf_values(clone, queries).tobytes() == leaf_values(forest, queries).tobytes()
    assert [features_used(tree) for tree in trees_of(clone)] == [features_used(tree)
                                                                 for tree in trees]
    assert clone.n_leaves() == forest.n_leaves() == sum(
        len(tree["value"]) for tree in forest_trees(unpacked(payload)))
    assert clone.n_features == 6
    with pytest.raises(ValueError):  # the block read back is read-only
        clone.value[0] = 0.0


def test_shape_and_empty_errors():
    with pytest.raises(EmptyInput):
        fit_tree(np.empty((0, 2)), np.empty(0))
    with pytest.raises(ShapeMismatch):
        fit_tree(np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(ShapeMismatch):
        fit_tree(np.zeros((4, 2)), np.zeros(4), TreeConfig(feature_subset=(2,)))
    with pytest.raises(NonFiniteInput):
        fit_tree(np.array([[0.0], [np.inf]]), np.zeros(2))
    tree = fit_tree(np.arange(4.0).reshape(-1, 1), np.array([0.0, 0, 1, 1]))
    with pytest.raises(ShapeMismatch):
        leaf_values(tree, np.zeros(2))
    with pytest.raises(ShapeMismatch):
        leaf_values(tree, np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        leaf_values(join([tree, tree]), np.zeros((3, 2)))


def test_prediction_is_deterministic():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((30, 2))
    y = rng.standard_normal(30)
    tree = fit_tree(X, y, TreeConfig(max_depth=2))
    x = X[4]
    assert leaf_values(tree, x[None])[0][0] == leaf_values(tree, x[None])[0][0]
    np.testing.assert_array_equal(
        leaf_values(tree, X)[0], np.array([leaf_values(tree, row[None])[0][0] for row in X])
    )


def oracle_case(rng, family):
    """(X, y) of one of four shapes the split search must get exactly right."""
    n = int(rng.integers(2, 41))
    d = int(rng.integers(1, 6))
    if family == "ties":  # few distinct values per column
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.integers(-3, 4, size=n).astype(float)
    elif family == "constant_column":
        X = rng.standard_normal((n, d))
        X[:, int(rng.integers(d))] = 2.5
        y = rng.standard_normal(n)
    elif family == "huge":  # squares near the float64 limit: SSE overflows
        X = rng.integers(0, 5, size=(n, d)) * 1e150
        y = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(152, 154, size=n)
    else:
        X = rng.standard_normal((n, d))
        y = X[:, 0] + rng.standard_normal(n)
    return X, y


def test_fit_tree_matches_per_feature_reference():
    rng = np.random.default_rng(31)
    families = ("ties", "constant_column", "huge", "normal")
    overflowed = huge_splits = 0
    for case in range(600):
        family = families[case % 4]
        X, y = oracle_case(rng, family)
        d = X.shape[1]
        subset = None
        if case % 5 == 0:
            subset = tuple(rng.choice(d, size=int(rng.integers(0, d + 1)), replace=False).tolist())
        cfg = TreeConfig(
            max_depth=(None, 1, 3)[case % 3],
            min_samples_leaf=int(rng.integers(1, 6)),
            feature_subset=subset,
            features_per_node=int(rng.integers(1, d + 1)) if case % 2 else None,
            seed=case,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            tree = fit_tree(X, y, cfg)
            assert nodes_of(tree) == reference_fit_tree(X, y, cfg), (case, cfg)
            if family == "huge":
                overflowed += bool(np.isinf(np.cumsum(np.square(y - y.mean()))).any())
                huge_splits += "feature" in root_of(tree)
    assert overflowed > 20 and huge_splits > 20


def node_row_sets(tree, X):
    """(rows as a frozenset, depth) of every node of a tree, routing all of X."""
    nodes = nodes_of(tree)
    out = []

    def walk(at, rows, depth):
        out.append((frozenset(rows.tolist()), depth))
        node = nodes[at]
        if "feature" in node:
            left = X[rows, node["feature"]] <= node["threshold"]
            walk(node["left"], rows[left], depth + 1)
            walk(node["right"], rows[~left], depth + 1)

    walk(0, np.arange(X.shape[0]), 0)
    return out


def test_fit_stage_matches_reference_tree_by_tree():
    rng = np.random.default_rng(37)
    families = ("ties", "constant_column", "huge", "normal")
    two_depths = 0  # stages where trees reach one row set at two depths
    for case in range(160):
        X, y = oracle_case(rng, families[case % 4])
        d = X.shape[1]
        depth, min_leaf = 1 + case % 4, 1 + case % 5
        subsets = [rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist()
                   for _ in range(12)] + [[]]
        with np.errstate(over="ignore", invalid="ignore"):
            stage, outputs = fit_stage(X, y, subsets, depth, min_leaf,
                                       presort(X) if case % 2 else None)
            # every leaf wrote its value at exactly its rows, summed in tree order
            assert outputs.tobytes() == tree_sum(stage, X).tobytes(), case
            depths = defaultdict(set)
            for subset, tree in zip(subsets, trees_of(stage), strict=True):
                cfg = TreeConfig(max_depth=depth, min_samples_leaf=min_leaf,
                                 feature_subset=tuple(subset))
                assert nodes_of(tree) == reference_fit_tree(X, y, cfg), (case, subset)
                for rows, at in node_row_sets(tree, X):
                    depths[rows].add(at)
        two_depths += any(len(at) > 1 for at in depths.values())
    assert two_depths > 10


def test_fit_stage_errors():
    X, y = np.zeros((4, 2)), np.zeros(4)
    with pytest.raises(ShapeMismatch):
        fit_stage(X, y, [[0], [2]], 3, 1)
    with pytest.raises(ShapeMismatch):
        fit_stage(X, y, [[0]], 3, 1, presort(np.zeros((4, 3))))
    with pytest.raises(ShapeMismatch):
        fit_stage(X, np.zeros(5), [[0]], 3, 1)
    with pytest.raises(EmptyInput):
        fit_stage(np.zeros((0, 2)), np.zeros(0), [[0]], 3, 1)
    with pytest.raises(NonFiniteInput):
        fit_stage(X, np.array([0.0, 1.0, np.nan, 2.0]), [[0]], 3, 1)
    with pytest.raises(ValueError):
        fit_stage(X, y, [[0]], 0, 1)


@pytest.mark.parametrize("setting", [{"max_depth": 0}, {"min_samples_leaf": 0},
                                     {"features_per_node": 0}])
def test_tree_config_refuses_a_setting_below_one(setting):
    with pytest.raises(ValueError, match=f"{next(iter(setting))} must be >= 1"):
        TreeConfig(**setting)


def test_fit_stage_refuses_a_stage_without_column_subsets():
    with pytest.raises(EmptyInput, match="at least one column subset"):
        fit_stage(np.zeros((4, 2)), np.zeros(4), [], 3, 1)


def test_growth_on_overflowing_targets_prints_no_warning():
    X = np.arange(8.0)[:, None]
    y = np.array([1e154, 1e154, 0, 0, 1, 2, 3, 4])  # the squared errors overflow
    tree = fit_tree(X, y)  # the suite turns any warning into an error
    with np.errstate(over="ignore", invalid="ignore"):  # for the oracle's own arithmetic
        assert nodes_of(tree) == reference_fit_tree(X, y, TreeConfig())
    assert root_of(tree)["threshold"] == 1.5  # the two huge targets split off first


def test_empty_feature_subset_gives_single_leaf():
    X = np.arange(12.0).reshape(6, 2)
    y = np.array([0.0, 0, 0, 1, 1, 1])
    tree = fit_tree(X, y, TreeConfig(feature_subset=()))
    root = root_of(tree)
    assert "value" in root
    assert root["value"] == 0.5
    assert root["n"] == 6


@pytest.mark.parametrize("column", [
    [1.0 + np.finfo(float).eps, 1.0 + 2 * np.finfo(float).eps],  # midpoint rounds up
    [1.5e308, 1.7e308],  # midpoint overflows to inf
])
@pytest.mark.parametrize("max_depth", [None, 1])
def test_degenerate_midpoint_still_splits(column, max_depth):
    X = np.array(column).reshape(-1, 1)
    tree = fit_tree(X, np.array([0.0, 1.0]), TreeConfig(max_depth=max_depth))
    nodes = nodes_of(tree)
    assert len(nodes) == 3
    assert column[0] <= nodes[0]["threshold"] < column[1]
    assert [(node["value"], node["n"]) for node in nodes[1:]] == [(0.0, 1), (1.0, 1)]
    np.testing.assert_array_equal(leaf_values(tree, X)[0], [0.0, 1.0])


def routing_case(rng):
    """Forests over one feature space, in a mixed order: single trees and a random
    forest, and query rows for them."""
    d = int(rng.integers(1, 5))
    n_train = int(rng.integers(2, 60))
    X = rng.integers(0, 5, size=(n_train, d)).astype(float)  # ties land on thresholds
    y = rng.standard_normal(n_train)
    forests = [
        read_tree(node_columns([{"value": float(y[0]), "n": 1}], d)),
        fit_tree(X, np.full(n_train, 2.0)),  # constant target: a single leaf
        fit_tree(X, y, TreeConfig(max_depth=1)),  # a stump, or a leaf on constant columns
        fit_tree(X, y, TreeConfig(max_depth=int(rng.integers(2, 5)), seed=1)),
        fit_rf(RFConfig(n_trees=int(rng.integers(1, 6)), min_samples_leaf=1), X, y,
               list(range(d)), seed=int(rng.integers(1000))).trees,
    ]
    forests = [forests[i] for i in rng.permutation(len(forests))]
    n = int(rng.choice([0, 1, int(rng.integers(2, 40))]))
    queries = np.vstack([X, rng.uniform(-1, 5, size=(n_train, d))])
    return forests, queries[rng.choice(len(queries), size=n)]


def test_leaf_values_equals_per_tree_routing_bit_for_bit():
    rng = np.random.default_rng(37)
    row_counts, depths = set(), set()
    for _ in range(150):
        forests, X = routing_case(rng)
        for forest in [*forests, join(forests)]:
            got = leaf_values(forest, X)
            want = np.stack([reference_predict(tree, X) for tree in trees_of(forest)])
            assert got.shape == want.shape == (len(forest.sizes), X.shape[0])
            assert got.tobytes() == want.tobytes()
        row_counts.add(min(X.shape[0], 2))
        depths.update(depth(tree) for tree in trees_of(join(forests)))
    assert row_counts == {0, 1, 2}
    assert {0, 1} <= depths and max(depths) >= 8


def test_routing_refuses_links_that_cycle():
    """A root whose right link points back at itself would route a row forever;
    routing stops after the largest tree's node count of steps. It runs in a
    subprocess with a timeout, so that a missing bound fails this test instead
    of hanging the suite."""
    code = """if True:
        import numpy as np
        from hydrocast.cart import Forest, leaf_values
        from hydrocast.errors import DamagedArtifact
        # split 0 sends x <= 0.5 to leaf 0 and the rest back to itself
        forest = Forest(np.array([0, -1, -1]), np.array([0.5]), np.array([1.0, 2.0]),
                        np.array([1, 1]), np.array([3]), 1, np.array([0]), np.array([~0]),
                        np.array([0]), np.array([0]))
        assert leaf_values(forest, np.array([[0.0]])).tolist() == [[1.0]]
        try:
            leaf_values(forest, np.array([[0.0], [1.0]]))
        except DamagedArtifact as exc:
            print(exc)
    """
    assert "cycle" in run_isolated(code)


def test_routing_refuses_a_cycle_in_a_later_tree():
    """A cycle in the second tree of a block is caught at that tree's offset, from
    a query matrix in Fortran order, after the first tree has routed every row."""
    code = """if True:
        import numpy as np
        from hydrocast.cart import Forest, leaf_values
        from hydrocast.errors import DamagedArtifact
        # tree 0 is leaf 0; tree 1's split 0 sends x <= 0.5 to leaf 1, the rest to itself
        forest = Forest(np.array([-1, 0, -1, -1]), np.array([0.5]), np.array([5.0, 1.0, 2.0]),
                        np.array([1, 1, 1]), np.array([1, 3]), 1, np.array([0]),
                        np.array([~1]), np.array([0]), np.array([~0, 0]))
        assert leaf_values(forest, np.array([[0.0]])).tolist() == [[5.0], [1.0]]
        try:
            leaf_values(forest, np.asfortranarray([[0.0], [1.0]]))
        except DamagedArtifact as exc:
            print(exc)
    """
    assert "cycle" in run_isolated(code)


def run_isolated(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter with a timeout, so
    that routing that never ends fails a test instead of hanging the suite."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def invariant_case(seed):
    """(X, y) for the layout tests, and one tree config in each growth style: an RF
    tree (a draw per node, leaves of at least 5 rows) and a boosting tree (a fixed
    column subset, depth 3)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((150, 10))
    y = X[:, 0] - 2.0 * X[:, 3] + rng.standard_normal(150)
    rf = TreeConfig(min_samples_leaf=5, features_per_node=4, seed=seed)
    boost = TreeConfig(max_depth=3, feature_subset=tuple(rng.choice(10, 4, replace=False).tolist()))
    return X, y, (rf, boost)


def test_grown_and_joined_forests_are_read_only():
    """``fit_tree``, ``fit_stage``, ``join`` and ``fit_rf`` return forests whose
    arrays are read-only, as ``forest_from_dict``'s are."""
    X, y, (rf, boost) = invariant_case(0)
    tree = fit_tree(X, y, rf)
    forests = {"fit_tree": tree, "fit_stage": fit_stage(X, y, [[0, 3], [1, 2, 5]], 3, 1)[0],
               "join": join([tree, fit_tree(X, y, boost)]),
               "fit_rf": fit_rf(RFConfig(n_trees=3), X, y, list(range(10)), seed=0).trees}
    for how, forest in forests.items():
        for name in (*FOREST_COLUMNS, "sizes", "split_feature", "left", "right", "root"):
            assert not getattr(forest, name).flags.writeable, (how, name)


def test_forest_holds_the_columns_it_writes():
    """A forest in memory is the block ``forest_to_dict`` writes: however it was
    made, each node column equals its decoded entry, in dtype and bytes."""
    X, y, (rf, boost) = invariant_case(1)
    tree = fit_tree(X, y, rf)
    forests = {"fit_tree": fit_tree(X, y, boost), "fit_tree_per_node": tree,
               "fit_stage": fit_stage(X, y, [[0, 3], [1, 2, 5], [4]], 3, 1)[0],
               "fit_rf": fit_rf(RFConfig(n_trees=3), X, y, list(range(10)), seed=0).trees,
               "join": join([tree, fit_tree(X, y, boost)]),
               "json": forest_from_dict(json.loads(json.dumps(forest_to_dict(tree))))}
    for how, forest in forests.items():
        payload = forest_to_dict(forest)
        for name, dtype in FOREST_COLUMNS.items():
            column = getattr(forest, name)
            stored = decode(payload[name], np.dtype(dtype).kind, 1)
            assert column.dtype == stored.dtype, (how, name)
            assert column.tobytes() == stored.tobytes(), (how, name)


def test_reference_growth_puts_each_left_child_next():
    """The layout the node columns rely on: as the reference grower appends a
    split's left child it records that link, and it is always the split's index + 1."""
    splits = 0
    for seed in range(8):
        X, y, cfgs = invariant_case(seed)
        for cfg in cfgs:
            nodes = reference_fit_tree(X, y, cfg)
            internal = [i for i, node in enumerate(nodes) if "feature" in node]
            assert [nodes[i]["left"] for i in internal] == [i + 1 for i in internal], (seed, cfg)
            splits += len(internal)
    assert splits > 200


def test_fit_tree_stage_and_forest_route_like_the_reference():
    """A stage, a random forest, single trees and all of them joined route every
    row as each of their trees, cut out through ``sizes``, does alone."""
    for seed in range(4):
        X, y, (rf, boost) = invariant_case(seed)
        rng = np.random.default_rng(seed)
        queries = np.vstack([X, rng.standard_normal((60, 10))])
        subsets = [boost.feature_subset] + [rng.choice(10, 4, replace=False).tolist()
                                            for _ in range(7)]
        forests = [fit_tree(X, y, rf), fit_tree(X, y, boost), fit_stage(X, y, subsets, 3, 1)[0],
                   fit_rf(RFConfig(n_trees=5), X, y, list(range(10)), seed=seed).trees]
        for forest in [*forests, join(forests)]:
            got = leaf_values(forest, queries)
            want = np.stack([reference_predict(tree, queries) for tree in trees_of(forest)])
            assert got.tobytes() == want.tobytes(), seed


def test_routing_reads_any_layout_of_the_queries_like_the_reference():
    """Routing reads each pair's cell by its flat index in a C-ordered copy, so a
    Fortran-ordered, strided, integer, one-row or empty query matrix routes as
    each tree, walked row by row, does alone."""
    X, y, (rf, boost) = invariant_case(7)
    forest = join([fit_tree(X, y, rf), fit_tree(X, y, boost),
                   fit_rf(RFConfig(n_trees=4), X, y, list(range(10)), seed=7).trees])
    wide = np.random.default_rng(7).standard_normal((30, 20))
    for queries in (np.asfortranarray(wide[:, :10]), wide[::2, ::2],
                    np.rint(3.0 * wide[:, 5:15]).astype(int), wide[:1, 10:], np.empty((0, 10))):
        got = leaf_values(forest, queries)
        want = np.stack([reference_predict(tree, queries) for tree in trees_of(forest)])
        assert got.shape == (len(forest.sizes), len(queries))
        assert got.tobytes() == want.tobytes()


def test_reader_derives_the_grower_links_and_routes_bit_for_bit():
    """The JSON round trip of trees from ``fit_tree``, ``fit_stage`` and ``fit_rf``,
    joined: read back, they hold the grown forest's node arrays in the same dtypes
    and bytes, and route every row to the same leaf value, bit for bit.

    Both sides take ``right`` from the one constructor, so this does not check
    the links themselves; ``test_fit_tree_matches_per_feature_reference`` and
    ``test_fit_stage_matches_reference_tree_by_tree`` do, against the links
    the reference grower records."""
    for seed in range(6):
        X, y, (rf, boost) = invariant_case(seed)
        rng = np.random.default_rng(seed)
        subsets = [rng.choice(10, int(rng.integers(1, 11)), replace=False).tolist()
                   for _ in range(6)]
        forest = join([
            fit_tree(X, y, rf), fit_tree(X, y, boost), fit_tree(X, np.full(150, 2.0)),
            fit_stage(X, y, subsets, 1 + seed % 4, 1 + seed % 3)[0],
            fit_rf(RFConfig(n_trees=8, min_samples_leaf=1 + seed % 3), X, y, list(range(10)),
                   seed=seed).trees,
        ])
        clone = forest_from_dict(json.loads(json.dumps(forest_to_dict(forest))))
        for name in ("feature", "threshold", "right", "value", "n", "sizes"):
            grown, read = getattr(forest, name), getattr(clone, name)
            assert (read.dtype, read.tobytes()) == (grown.dtype, grown.tobytes()), (seed, name)
        assert clone.n_features == forest.n_features == 10
        queries = np.vstack([X, rng.standard_normal((60, 10))])
        assert leaf_values(clone, queries).tobytes() == leaf_values(forest, queries).tobytes()
