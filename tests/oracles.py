"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (python
loops, direct formulas) so the tests never share code paths with the
implementations they verify.
"""

import base64
import math
from types import SimpleNamespace

import numpy as np

#: A forest's node columns in memory, in the order ``Forest`` takes them.
_COLUMNS = ("feature", "threshold", "right", "value", "n")
#: The node columns of a serialized forest, in the order the file lists them.
_BLOCK = ("feature", "threshold", "value", "n")


def pearson_direct(a, p):
    n = len(a)
    ma = sum(a) / n
    mp = sum(p) / n
    cov = sum((a[i] - ma) * (p[i] - mp) for i in range(n)) / (n - 1)
    va = sum((a[i] - ma) ** 2 for i in range(n)) / (n - 1)
    vp = sum((p[i] - mp) ** 2 for i in range(n)) / (n - 1)
    return cov / math.sqrt(va * vp)


def mae_direct(a, p):
    return sum(abs(a[i] - p[i]) for i in range(len(a))) / len(a)


def error_std_direct(a, p):
    errs = [abs(a[i] - p[i]) for i in range(len(a))]
    m = sum(errs) / len(errs)
    return math.sqrt(sum((e - m) ** 2 for e in errs) / (len(errs) - 1))


def knn_direct(train_z, train_y, k, z):
    """Mean target of the k training rows nearest to one standardized query.

    Distances are sorted stably, so ties go to the earlier training row.
    """
    dist = np.sqrt(np.sum((train_z - z) ** 2, axis=1))
    order = np.argsort(dist, kind="stable")
    return float(train_y[order[:k]].mean())


def all_depth1_splits(X, y, min_leaf=1):
    """Every admissible (feature, midpoint threshold) with its exact SSE.

    Returns a list of (sse, feature, lo, hi, threshold) tuples where the
    threshold is the midpoint of (lo, hi), consecutive distinct values.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    out = []
    for f in range(X.shape[1]):
        xs = np.sort(np.unique(X[:, f]))
        for lo, hi in zip(xs, xs[1:]):
            thr = (lo + hi) / 2.0
            left = X[:, f] <= thr
            nl = int(left.sum())
            nr = len(y) - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            yl, yr = y[left], y[~left]
            sse = float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())
            out.append((sse, f, float(lo), float(hi), thr))
    return out


def best_depth1_splits(X, y, min_leaf=1, tol=1e-9):
    """The set of optimal depth-1 splits within ``tol`` of the minimum SSE."""
    splits = all_depth1_splits(X, y, min_leaf)
    if not splits:
        return None, []
    best = min(s[0] for s in splits)
    scale = max(1.0, abs(best))
    return best, [s for s in splits if s[0] <= best + tol * scale]


def reference_fit_tree(X, y, cfg):
    """The CART growth rule one feature and one node at a time.

    Each node argsorts every candidate column afresh and scans its cut
    positions on its own. Returns the flat node list (a list of dicts,
    pre-order, root first), which must equal ``node_list(cart.fit_tree(...))``.
    Takes valid, finite input only.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_features = X.shape[1]
    allowed = cfg.feature_subset if cfg.feature_subset is not None else tuple(range(n_features))
    rng = np.random.default_rng(cfg.seed)
    nodes = []

    def grow(idx, depth):
        y_node = y[idx]
        n = idx.size
        if (
            n < 2 * cfg.min_samples_leaf
            or (cfg.max_depth is not None and depth >= cfg.max_depth)
            or y_node.max() == y_node.min()
        ):
            nodes.append({"value": float(y_node.mean()), "n": int(n)})
            return
        candidates = allowed
        if cfg.features_per_node is not None and cfg.features_per_node < len(allowed):
            picked = rng.choice(len(allowed), size=cfg.features_per_node, replace=False)
            candidates = tuple(allowed[i] for i in sorted(picked.tolist()))
        best = best_split(idx, y_node, candidates)
        if best is None:
            nodes.append({"value": float(y_node.mean()), "n": int(n)})
            return
        feature, threshold = best
        node = {"feature": feature, "threshold": threshold}
        nodes.append(node)
        left_mask = X[idx, feature] <= threshold
        node["left"] = len(nodes)
        grow(idx[left_mask], depth + 1)
        node["right"] = len(nodes)
        grow(idx[~left_mask], depth + 1)

    def best_split(idx, y_node, candidates):
        # Ties on SSE keep the first (lowest) feature; np.argmin keeps the
        # smallest threshold within a feature.
        n = y_node.size
        min_leaf = cfg.min_samples_leaf
        yc = y_node - y_node.mean()
        best_sse = np.inf
        best = None
        positions = np.arange(1, n)
        for feature in candidates:
            x = X[idx, feature]
            order = np.argsort(x, kind="stable")
            xs = x[order]
            ys = yc[order]
            valid = xs[1:] > xs[:-1]
            if min_leaf > 1:
                valid &= (positions >= min_leaf) & (n - positions >= min_leaf)
            cut = np.nonzero(valid)[0]
            if cut.size == 0:
                continue
            c1 = np.cumsum(ys)
            c2 = np.cumsum(ys * ys)
            n_left = cut + 1.0
            n_right = n - n_left
            sum_left = c1[cut]
            sq_left = c2[cut]
            sse = (sq_left - sum_left * sum_left / n_left) + (
                (c2[-1] - sq_left) - (c1[-1] - sum_left) ** 2 / n_right
            )
            j = int(np.argmin(sse))
            if sse[j] < best_sse:
                best_sse = sse[j]
                lo, hi = float(xs[cut[j]]), float(xs[cut[j] + 1])
                mid = (lo + hi) / 2.0
                # a midpoint that rounds up to hi or overflows falls back to lo
                best = (feature, mid if lo <= mid < hi else lo)
        return best

    grow(np.arange(X.shape[0]), 0)
    return nodes


def node_list(tree):
    """One tree as a flat list of node dicts: a leaf is ``{"value", "n"}`` and a
    split ``{"feature", "threshold", "left", "right"}``, the layout
    ``reference_fit_tree`` returns.

    ``tree`` is a ``Forest`` of one tree or one tree of ``trees_of``, whose five
    node columns are read node by node (a negative ``feature`` is a leaf, and
    ``left`` is the next node, ``i + 1``), or one tree of a serialized forest
    (``forest_trees``), whose nodes are read one at a time in pre-order: a split
    takes the next entry of ``threshold`` and then its left and right subtrees,
    a leaf the next entries of ``value`` and ``n``.
    """
    if not isinstance(tree, dict):
        assert len(getattr(tree, "sizes", [0])) == 1, "cut a forest of several trees with trees_of"
        columns = {name: getattr(tree, name).tolist() for name in _COLUMNS}
        return [{"value": columns["value"][i], "n": columns["n"][i]} if feature < 0 else
                {"feature": feature, "threshold": columns["threshold"][i], "left": i + 1,
                 "right": columns["right"][i]}
                for i, feature in enumerate(columns["feature"])]
    features, thresholds = iter(tree["feature"]), iter(tree["threshold"])
    leaves = zip(tree["value"], tree["n"])
    nodes = []

    def read():
        feature = next(features)
        if feature < 0:
            value, n = next(leaves)
            nodes.append({"value": value, "n": n})
            return
        node = {"feature": feature, "threshold": next(thresholds), "left": len(nodes) + 1}
        nodes.append(node)
        read()
        node["right"] = len(nodes)
        read()

    read()
    return nodes


def node_columns(nodes, n_features):
    """The inverse of ``node_list``: a forest of one tree in the five node columns
    that ``Forest`` holds, built from node dicts; ``sparse_block`` turns it into
    what the file stores.

    A leaf's unused fields hold -1 (right link, feature) or 0.0 (threshold),
    and an internal node's hold 0.0 (value) or 0 (n). An internal node's
    ``left`` must be the next node, which the columns imply and do not store.
    """
    forest = {"n_features": n_features, "sizes": [len(nodes)],
              **{name: [] for name in _COLUMNS}}
    for i, node in enumerate(nodes):
        leaf = "value" in node
        if not leaf and node["left"] != i + 1:
            raise ValueError(f"node {i}: a left child must be the next node, not {node['left']}")
        forest["feature"].append(-1 if leaf else node["feature"])
        forest["threshold"].append(0.0 if leaf else node["threshold"])
        forest["right"].append(-1 if leaf else node["right"])
        forest["value"].append(node["value"] if leaf else 0.0)
        forest["n"].append(node["n"] if leaf else 0)
    return forest


def sparse_block(forest):
    """A forest (or one tree) in the five node columns, as the file stores it:
    ``right`` dropped, ``threshold`` kept at the splits only, and ``value`` and
    ``n`` at the leaves only. Other keys are kept, and a node column the input
    lacks stays out; each kept column is read against ``feature`` entry by entry,
    so a column shorter than ``feature`` stays short."""
    split = [feature >= 0 for feature in forest["feature"]]
    at_splits = {"threshold": True, "value": False, "n": False}
    return {**{key: v for key, v in forest.items() if key not in _COLUMNS},
            "feature": forest["feature"],
            **{name: [v for v, s in zip(forest[name], split) if s == want]
               for name, want in at_splits.items() if name in forest}}


def full_columns(tree):
    """One tree of a serialized forest (``forest_trees``) in the five node
    columns, through its node dicts; the inverse of ``sparse_block``."""
    forest = node_columns(node_list(tree), tree["n_features"])
    del forest["sizes"]
    return forest


def forest_trees(forest):
    """A serialized forest's trees, each as its own columns in a dict (with
    ``n_features``), cut from the block through ``sizes``: each tree takes its
    ``sizes`` entries of ``feature``, one entry of ``threshold`` per split among
    them, and one of ``value`` and ``n`` per leaf."""
    trees, at = [], {name: 0 for name in _BLOCK}
    for size in forest["sizes"]:
        feature = forest["feature"][at["feature"]:at["feature"] + size]
        splits = sum(f >= 0 for f in feature)
        counts = {"feature": size, "threshold": splits, "value": size - splits,
                  "n": size - splits}
        tree = {"n_features": forest["n_features"]}
        for name in _BLOCK:
            tree[name] = forest[name][at[name]:at[name] + counts[name]]
            at[name] += counts[name]
        trees.append(tree)
    return trees


def forest_block(trees):
    """The inverse of ``forest_trees``: per-tree column dicts laid end to end as a
    serialized forest. A column that some tree lacks is left out of the block,
    and a tree's five node columns stay five."""
    return {"n_features": trees[0]["n_features"], "sizes": [len(tree["feature"]) for tree in trees],
            **{name: [v for tree in trees for v in tree[name]]
               for name in _COLUMNS if all(name in tree for tree in trees)}}


def packed(values, dtype=None):
    """``values`` as an encoded array, ``{"dtype", "shape", "data"}`` with ``data`` the
    base64 of their bytes in ``dtype``: by default ``<f8`` for floats and the
    narrowest of ``<i1`` ... ``<i8`` that holds integers. Any other numpy dtype
    may be named, to spell an array the reader must refuse."""
    array = np.asarray(values)
    if dtype is None and array.dtype.kind == "f":
        dtype = "<f8"
    elif dtype is None:
        low, high = (int(array.min()), int(array.max())) if array.size else (0, 0)
        dtype = next(f"<i{width}" for width in (1, 2, 4, 8)
                     if -(2 ** (8 * width - 1)) <= low and high < 2 ** (8 * width - 1))
    return {"dtype": dtype, "shape": list(array.shape),
            "data": base64.b64encode(array.astype(dtype).tobytes()).decode("ascii")}


def unpacked(value):
    """``value`` with every encoded array in it, however deep, read back into
    (nested) JSON lists straight from its base64 bytes."""
    if isinstance(value, dict) and set(value) == {"dtype", "shape", "data"}:
        raw = base64.b64decode(value["data"])
        return np.frombuffer(raw, dtype=value["dtype"]).reshape(value["shape"]).tolist()
    if isinstance(value, dict):
        return {key: unpacked(v) for key, v in value.items()}
    if isinstance(value, list):
        return [unpacked(v) for v in value]
    return value


#: The dtype an empty node column is written in.
_EMPTY = {"feature": "<i1", "threshold": "<f8", "value": "<f8", "n": "<i1"}


def encoded(forest):
    """A serialized forest whose node columns are lists (``unpacked``, the layout
    earlier versions wrote) with each column encoded again, as the file stores
    it. An integer column holding a fraction is written as floats."""
    return {key: packed(v, None if np.size(v) else _EMPTY[key]) if key in _BLOCK else v
            for key, v in forest.items()}


def trees_of(forest):
    """A ``Forest``'s trees, cut from its block through ``sizes``: each its own five
    node columns as arrays, with ``n_features``, and its right links counted from
    its own root."""
    trees, start = [], 0
    for size in forest.sizes.tolist():
        tree = SimpleNamespace(n_features=forest.n_features, **{
            name: getattr(forest, name)[start:start + size].copy() for name in _COLUMNS})
        tree.right[tree.feature >= 0] -= start
        trees.append(tree)
        start += size
    return trees


def features_used(tree):
    """The features one tree splits on, each once."""
    return {node["feature"] for node in node_list(tree) if "feature" in node}


def depth(tree):
    """The number of splits on one tree's longest path from the root to a leaf."""
    nodes = node_list(tree)

    def below(i):
        node = nodes[i]
        return 0 if "value" in node else 1 + max(below(node["left"]), below(node["right"]))

    return below(0)


def reference_predict(tree, X):
    """One tree's prediction for every row of X, each row walked down from the
    root on its own.

    ``tree`` is a ``Forest`` of one tree or one tree of ``trees_of``. A split
    sends ``x[feature] <= threshold`` to the next node, its left child in
    pre-order, and the rest to node ``right``; a node with a negative
    ``feature`` is a leaf.
    """
    feature, threshold, right, value = (tree.feature.tolist(), tree.threshold.tolist(),
                                        tree.right.tolist(), tree.value.tolist())
    out = []
    for x in np.asarray(X, dtype=np.float64).tolist():
        i = 0
        while feature[i] >= 0:
            i = i + 1 if x[feature[i]] <= threshold[i] else right[i]
        out.append(value[i])
    return np.array(out, dtype=np.float64)


def reference_tree_sum(forest, X):
    """A ``Forest``'s tree predictions added one tree at a time, in tree order."""
    total = np.zeros(np.asarray(X).shape[0])
    for tree in trees_of(forest):
        total += reference_predict(tree, X)
    return total


def reference_fit_svr(cfg, X, y, seed):
    """The linear epsilon-SVR's averaged-iterate SGD as numpy vector steps.

    The same standardization, seeded permutations, step sizes and updates
    as ``learners.svm.fit_svr``, with each step's dot product summed left to
    right in Python so the result does not rest on the BLAS. Returns
    ``(weights, bias)``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    std = X.std(axis=0)
    Z = (X - X.mean(axis=0)) / np.where(std == 0.0, 1.0, std)
    n, d = Z.shape
    lam = 1.0 / (cfg.c * n)
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    b = float(y.mean())
    w_acc = np.zeros(d)
    b_acc = 0.0
    acc = 0
    t = 0
    for epoch in range(cfg.epochs):
        for i in rng.permutation(n):
            t += 1
            eta = cfg.step / np.sqrt(t)
            dot = 0.0
            for j in range(d):
                dot += Z[i, j] * w[j]
            r = y[i] - dot - b
            if abs(r) > cfg.epsilon:
                s = 1.0 if r > 0 else -1.0
                w += eta * (s * Z[i] - lam * w)
                b += eta * s
            else:
                w -= eta * lam * w
            if epoch >= cfg.epochs // 2:
                w_acc += w
                b_acc += b
                acc += 1
    if acc:
        return w_acc / acc, float(b_acc / acc)
    return w, float(b)
