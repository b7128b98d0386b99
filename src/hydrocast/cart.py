"""Binary regression tree with squared-error splits.

The weak learner behind both the boosted feature selector and the random
forest. Growth is greedy, top-down, depth-first and left-first: at every
node each candidate feature is scanned at the midpoints between
consecutive distinct sorted values, and the split minimizing the summed
squared error of the two children wins. Ties go to the lowest feature
index, then the smallest threshold, so fitting is deterministic. A
candidate whose best SSE is NaN or +inf (overflow on huge targets) never
wins. Routing sends ``value <= threshold`` to the left child.

The search is exact, in the presort form of XGBoost's exact greedy
algorithm (Chen & Guestrin 2016): each tree stable-sorts its allowed
columns once, and every split hands each child the rows of that order
that route to it, which keeps the order sorted with tied values in
ascending row order. A node then scores all its candidate features
together with one cumulative sum per statistic. When ``features_per_node``
is set, each node draws its candidates from the tree's seeded generator
just before its own search, so the draws follow the node order above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NonFiniteInput, ShapeMismatch


@dataclass(frozen=True)
class TreeConfig:
    """Growth limits and feature sampling for one tree.

    ``feature_subset`` statically restricts the candidate features for the
    whole tree (boosting uses this). ``features_per_node`` draws that many
    candidates fresh at every node from the allowed set (forests use this).
    ``max_depth=None`` grows until the leaf minimum stops it.
    """

    max_depth: int | None = None
    min_samples_leaf: int = 1
    feature_subset: tuple[int, ...] | None = None
    features_per_node: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.features_per_node is not None and self.features_per_node < 1:
            raise ValueError("features_per_node must be >= 1 or None")
        if self.feature_subset is not None:
            object.__setattr__(self, "feature_subset", tuple(sorted(set(self.feature_subset))))


class Leaf:
    __slots__ = ("value", "n")

    def __init__(self, value: float, n: int):
        self.value = value
        self.n = n


class Internal:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature: int, threshold: float, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


class RegressionTree:
    """A fitted tree; immutable and safe to share across threads."""

    def __init__(self, root, n_features: int):
        self.root = root
        self.n_features = n_features

    def predict(self, x) -> float:
        """Route one feature vector to its leaf value."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ShapeMismatch(
                f"expected feature vector of length {self.n_features}, got {x.shape}"
            )
        node = self.root
        while isinstance(node, Internal):
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def predict_batch(self, X) -> np.ndarray:
        """Vectorized prediction for an (n, d) matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ShapeMismatch(
                f"expected (n, {self.n_features}) matrix, got {X.shape}"
            )
        out = np.empty(X.shape[0], dtype=np.float64)
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if isinstance(node, Leaf):
                out[idx] = node.value
            else:
                left = X[idx, node.feature] <= node.threshold
                stack.append((node.left, idx[left]))
                stack.append((node.right, idx[~left]))
        return out

    def features_used(self) -> set[int]:
        """Features appearing in at least one internal node."""
        used: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Internal):
                used.add(node.feature)
                stack.extend((node.left, node.right))
        return used

    def node_feature_counts(self) -> dict[int, int]:
        """Feature -> number of internal nodes splitting on it."""
        counts: dict[int, int] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Internal):
                counts[node.feature] = counts.get(node.feature, 0) + 1
                stack.extend((node.left, node.right))
        return counts

    def depth(self) -> int:
        def walk(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def n_leaves(self) -> int:
        def walk(node):
            if isinstance(node, Leaf):
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root)

    # Serialization: a flat node list with child links by list index, root
    # at index 0. Stable format; see README.
    def to_dict(self) -> dict:
        nodes: list[dict] = []

        def emit(node) -> int:
            slot = len(nodes)
            nodes.append(None)
            if isinstance(node, Leaf):
                nodes[slot] = {"value": node.value, "n": node.n}
            else:
                left = emit(node.left)
                right = emit(node.right)
                nodes[slot] = {
                    "feature": node.feature,
                    "threshold": node.threshold,
                    "left": left,
                    "right": right,
                }
            return slot

        emit(self.root)
        return {"n_features": self.n_features, "nodes": nodes}

    @classmethod
    def from_dict(cls, payload: dict) -> "RegressionTree":
        nodes = payload["nodes"]

        def build(i: int):
            spec = nodes[i]
            if "value" in spec:
                return Leaf(float(spec["value"]), int(spec["n"]))
            return Internal(
                int(spec["feature"]),
                float(spec["threshold"]),
                build(spec["left"]),
                build(spec["right"]),
            )

        return cls(build(0), int(payload["n_features"]))


def fit_tree(X, y, cfg: TreeConfig = TreeConfig()) -> RegressionTree:
    """Grow a squared-error CART tree on ``(X, y)``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.size == 0 or y.size == 0:
        raise EmptyInput("cannot fit a tree on empty input")
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"X {X.shape} incompatible with y {y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFiniteInput("training data must be finite")

    n_features = X.shape[1]
    if cfg.feature_subset is not None:
        allowed = cfg.feature_subset
        if allowed and (allowed[0] < 0 or allowed[-1] >= n_features):
            raise ShapeMismatch(f"feature_subset out of range for {n_features} features")
    else:
        allowed = tuple(range(n_features))

    # The one sort of the tree: row j of ``order`` lists the sample rows by
    # their value of feature allowed[j], ties in ascending row order, and
    # ``values`` holds those sorted values. Nodes only partition the two.
    columns = np.ascontiguousarray(X[:, list(allowed)].T)
    order = np.argsort(columns, axis=1, kind="stable")
    values = np.take_along_axis(columns, order, axis=1)
    grower = _Grower(columns, y, np.asarray(allowed, dtype=np.intp), cfg)
    root = grower.grow(np.arange(X.shape[0]), order, values, 0)
    return RegressionTree(root, n_features)


class _Grower:
    """Depth-first, left-first growth of one tree over its presorted columns."""

    def __init__(self, columns, y, allowed, cfg: TreeConfig):
        self.columns = columns
        self.y = y
        self.allowed = allowed
        self.cfg = cfg
        self.draw = cfg.features_per_node is not None and cfg.features_per_node < allowed.size
        self.rng = np.random.default_rng(cfg.seed)

    def may_split(self, n, depth) -> bool:
        cfg = self.cfg
        return n >= 2 * cfg.min_samples_leaf and (cfg.max_depth is None or depth < cfg.max_depth)

    def grow(self, idx, order, values, depth):
        """Subtree over the rows ``idx`` (ascending), given their sorted columns.

        ``order`` and ``values`` may be None for a node that ``may_split``
        rules out, which is a leaf.
        """
        y_node = self.y[idx]
        n = idx.size
        if not self.may_split(n, depth) or y_node.max() == y_node.min():
            return Leaf(float(y_node.mean()), int(n))

        rows = None
        if self.draw:
            picked = self.rng.choice(self.allowed.size, size=self.cfg.features_per_node, replace=False)
            rows = np.sort(picked)
        best = _best_split(
            self.y,
            y_node.mean(),
            order if rows is None else order[rows],
            values if rows is None else values[rows],
            self.cfg.min_samples_leaf,
        )
        if best is None:
            return Leaf(float(y_node.mean()), int(n))

        row, threshold = best
        if rows is not None:
            row = int(rows[row])
        go_left = self.columns[row] <= threshold
        left_rows = go_left[idx]
        in_left = go_left[order]
        children = []
        for child_idx, in_child in ((idx[left_rows], in_left), (idx[~left_rows], ~in_left)):
            m = child_idx.size
            if self.may_split(m, depth + 1):
                # Boolean selection keeps each row of order/values in its
                # sorted order, so the child needs no sort of its own.
                k = order.shape[0]
                children.append(self.grow(
                    child_idx, order[in_child].reshape(k, m), values[in_child].reshape(k, m), depth + 1
                ))
            else:
                children.append(self.grow(child_idx, None, None, depth + 1))
        return Internal(int(self.allowed[row]), threshold, *children)


def _best_split(y, mean, order, values, min_leaf):
    """Best (row of ``order``, threshold) over all candidates, or None.

    Scores every cut of every candidate at once. Cuts inside a run of tied
    values, or leaving fewer than ``min_leaf`` rows on a side, score +inf.
    The winner is the first candidate row holding the lowest per-row
    minimum and, within it, the smallest threshold. A row whose minimum is
    NaN or +inf (overflowing SSE) never wins.
    """
    k, n = order.shape
    if k == 0:
        return None
    ys = y[order] - mean  # SSE is shift-invariant; centering helps precision
    c1 = np.cumsum(ys, axis=1)
    c2 = np.cumsum(ys * ys, axis=1)
    # Cut p puts the rows at sorted positions 0..p on the left.
    lo, hi = min_leaf - 1, n - min_leaf
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    n_right = n - n_left
    sum_left = c1[:, lo:hi]
    sq_left = c2[:, lo:hi]
    sse = (sq_left - sum_left * sum_left / n_left) + (
        (c2[:, -1:] - sq_left) - (c1[:, -1:] - sum_left) ** 2 / n_right
    )
    sse[values[:, lo + 1:hi + 1] == values[:, lo:hi]] = np.inf
    per_row = sse.min(axis=1)
    per_row[np.isnan(per_row)] = np.inf
    row = int(per_row.argmin())
    if per_row[row] == np.inf:
        return None
    cut = lo + int(sse[row].argmin())
    return row, float((values[row, cut] + values[row, cut + 1]) / 2.0)


def training_mse(tree: RegressionTree, X, y) -> float:
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean((y - tree.predict_batch(X)) ** 2))
