"""Binary regression tree with squared-error splits.

The weak learner behind both the boosted feature selector and the random
forest. Growth is greedy, top-down, depth-first and left-first: at every
node each candidate feature is scanned at the midpoints between
consecutive distinct sorted values, and the split minimizing the summed
squared error of the two children wins. Ties go to the lowest feature
index, then the smallest threshold, so fitting is deterministic. A
candidate whose best SSE is NaN or +inf (overflow on huge targets) never
wins, and its overflow prints no warning. Routing sends ``value <=
threshold`` to the left child. When the midpoint of two neighbouring
values ``a < b`` fails ``a <= t < b`` (adjacent floats, or an overflow
past 1.8e308), the threshold is ``a``.

A boosting stage, a random forest and a single tree are each one
``Forest``, one block of node columns. Growth appends each node as it
visits it, so a split's left child is always the next node, and no link
is recorded. A full binary tree in pre-order is fixed by which nodes
split (Jacobson, "Space-efficient static trees and graphs", FOCS 1989),
so one constructor, ``_forest``, checks that shape and derives every
split's right link, for grown, joined and read forests alike;
``forest_to_dict`` writes no links. The forest in memory is the file's
block plus its right links. Prediction moves every (tree, row) pair of a
forest down one level per vectorized step.

The search is exact, in the presort form of XGBoost's exact greedy
algorithm (Chen & Guestrin 2016): a stage stable-sorts its trees' columns
once, or takes their rows of a presort that its caller shares across
stages. Every split hands each child the rows of that order that route to
it, which keeps the order sorted with tied values in ascending row order.
A node then scores all its candidate features together with one
cumulative sum per statistic, working in place on the arrays it gathers.
When ``features_per_node`` is set, each node draws its candidates from the
tree's seeded generator just before its own search, so the draws follow
the node order above.

One grower does all growth, and ``fit_tree`` is a stage of one tree.
``fit_stage`` grows a boosting stage's trees together: they fit one target
on one matrix, each on its own column subset, so many of their nodes hold
the same rows (all of them share the root). Row sets are visited
depth-first, each with the trees that reach it by the same splits. Several
trees score their set once over the union of their subsets, and each takes
the first lowest-scoring column of its own subset. One tree scores its own
columns, or the ones it draws, so every stage tree equals its ``fit_tree``
twin node for node. A child's sorted rows are built for its own trees'
columns only and dropped once its subtree is grown. Each leaf also writes
its value at its rows, so the stage's output on its training rows comes
with the trees, without routing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DamagedArtifact, EmptyInput, NonFiniteInput, ShapeMismatch, TooFewSamples
from .typed import at_least, decode, encode, fits

#: A forest block's node columns and each one's dtype, in the order ``forest_to_dict``
#: writes them: ``feature`` has an entry per node, ``threshold`` per split, ``value`` and
#: ``n`` per leaf.
FOREST_COLUMNS = {"feature": np.intp, "threshold": np.float64, "value": np.float64,
                  "n": np.int64}


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
        at_least(self, 1, "max_depth", "min_samples_leaf", "features_per_node")
        if self.feature_subset is not None:
            object.__setattr__(self, "feature_subset", tuple(sorted(set(self.feature_subset))))


@dataclass(frozen=True, eq=False)
class Forest:
    """Fitted trees as one block of node columns, the trees laid end to end in order.

    Tree ``t`` holds the next ``sizes[t]`` nodes, in pre-order, root first.
    Node ``i`` is a leaf when ``feature[i] < 0``; it then predicts ``value[i]``
    and was fitted on ``n[i]`` rows. Otherwise it sends ``x[feature[i]] <=
    threshold[i]`` to node ``i + 1``, the next node, and the rest to node
    ``right[i]`` of the block. The unused fields hold -1 or 0. Every forest the
    module returns comes from ``_forest``, which derives ``right`` and makes
    the arrays read-only.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    sizes: np.ndarray
    n_features: int

    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature < 0))


def join(forests) -> Forest:
    """The forests' trees laid end to end, in list order, as one forest."""
    return _forest(*(np.concatenate([getattr(forest, name) for forest in forests])
                     for name in (*FOREST_COLUMNS, "sizes")), forests[0].n_features)


def _forest(feature, threshold, value, n, sizes, n_features) -> Forest:
    """The read-only forest of node-indexed columns, whose trees hold ``sizes`` nodes.

    Each tree's split and leaf flags must form one full binary tree in
    pre-order, or ``ShapeMismatch`` is raised. Each split's right link is then
    derived from the flags: this is the one place links are computed.
    """
    feature, threshold, value, n, sizes = (np.asarray(column, dtype=dtype) for column, dtype
                                           in zip((feature, threshold, value, n, sizes),
                                                  (*FOREST_COLUMNS.values(), np.intp)))
    # A full binary tree in pre-order: its count of open subtrees (+1 per split,
    # -1 per leaf, after each node) stays at 0 or above until its last node and
    # is -1 there. Each tree before it leaves -1 in the block's running sum.
    step = np.where(feature < 0, -1, 1)
    count = np.cumsum(step) + np.repeat(np.arange(sizes.size), sizes)
    if (count[np.cumsum(sizes) - 1] != -1).any() or np.count_nonzero(count < 0) != sizes.size:
        raise ShapeMismatch("tree columns: each tree's splits and leaves must form one full "
                            "binary tree in pre-order")
    # A split's right child is the node after its left subtree: the next node
    # whose count before it equals the split's. A stable sort of those counts
    # lists each count's nodes in node order; in the smallest dtype that holds
    # them (the tree depth bounds them), numpy sorts them by radix.
    before = count - step
    order = np.argsort(before.astype(np.min_scalar_type(before.max())), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(feature.size)
    split = np.flatnonzero(feature >= 0)
    right = np.full(feature.size, -1, dtype=np.intp)
    right[split] = order[rank[split] + 1]
    for column in (feature, threshold, right, value, n, sizes):
        column.flags.writeable = False
    return Forest(feature, threshold, right, value, n, sizes, n_features)


def forest_to_dict(forest: Forest) -> dict:
    """A forest as one block: ``n_features``, each tree's node count in ``sizes``,
    then the node columns as encoded arrays (``typed.encode``), each holding only
    the nodes that use it. See README."""
    split = forest.feature >= 0
    return {"n_features": forest.n_features, "sizes": forest.sizes.tolist(),
            "feature": encode(forest.feature), "threshold": encode(forest.threshold[split]),
            "value": encode(forest.value[~split]), "n": encode(forest.n[~split])}


def forest_from_dict(payload: dict) -> Forest:
    """The read-only forest of a ``forest_to_dict`` block.

    Each column is decoded once, and every node of every tree is checked in
    one vectorized pass: a damaged file raises, and never yields a tree that
    routing could not walk to a leaf. A column that is not an encoded array of
    its kind raises ``ShapeMismatch``, and one written by an earlier version
    ``DamagedArtifact``. The sparse columns are spread out to one entry per
    node, and ``_forest``, which builds grown forests too, checks the tree
    shapes and derives the right links.
    """
    if not isinstance(payload, dict):  # earlier versions wrote a list of trees
        raise DamagedArtifact("forest in a layout of earlier versions; rerun train")
    try:
        feature, threshold, value, n = (decode(payload[name], np.dtype(dtype).kind, 1)
                                        for name, dtype in FOREST_COLUMNS.items())
    except TypeError as exc:
        raise ShapeMismatch(f"tree columns: {exc}") from None
    if not fits(payload["n_features"], int):
        raise ShapeMismatch("tree columns: n_features must be an integer")
    if not feature.size:
        raise ShapeMismatch("tree columns: feature must not be empty")
    total = feature.size
    sizes = payload["sizes"]
    # Summed in Python before any array is built from them, so that a crafted
    # size cannot make the reader allocate past the columns the file holds.
    if not (isinstance(sizes, list) and sizes and all(type(size) is int for size in sizes)
            and min(sizes) > 0 and sum(sizes) == total):
        raise ShapeMismatch("forest sizes must be positive integers that add up to the "
                            "feature column's length")
    split, leaves = np.flatnonzero(feature >= 0), np.flatnonzero(feature < 0)
    if threshold.size != split.size or not value.size == n.size == leaves.size:
        raise ShapeMismatch("tree columns: threshold must hold one entry per split, value and "
                            "n one per leaf")
    # A split whose feature was damaged to a negative number would read as a leaf.
    if feature.min() < -1:
        raise ShapeMismatch("tree columns: a leaf's feature must be -1")
    if (feature[split] >= payload["n_features"]).any():
        raise ShapeMismatch("tree columns: a split feature must lie in [0, n_features)")
    if (n < 1).any():
        raise ShapeMismatch("tree columns: n must be at least 1 at every leaf")
    block = (feature, np.zeros(total), np.zeros(total), np.zeros(total, dtype=np.int64))
    block[1][split] = threshold
    block[2][leaves] = value
    block[3][leaves] = n
    return _forest(*block, sizes, payload["n_features"])


def leaf_values(forest: Forest, X) -> np.ndarray:
    """Every tree's prediction for every row of an (n, d) matrix, as a (trees, n) array.

    One vectorized step moves every (tree, row) pair that is still at a split
    down one level: to the next node, its left child, or to its right link.
    Each pair reads its cell of X by flat index (its row's first cell plus the
    node's feature), with ``take`` rather than 2-d fancy indexing. A tree is
    shallower than its node count, so a pair still at a split after the
    largest tree's node count of steps is caught in links that cycle, and
    ``DamagedArtifact`` is raised.
    """
    X = np.asarray(X, dtype=np.float64, order="C")
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ShapeMismatch(f"expected (n, {forest.n_features}) matrix, got {X.shape}")
    n, feature, cells = X.shape[0], forest.feature, X.ravel()
    node = np.repeat(np.cumsum(forest.sizes) - forest.sizes, n)  # pair t * n + r: tree t, row r
    row = np.tile(np.arange(n) * X.shape[1], forest.sizes.size)  # the pair's row's first cell
    live = np.flatnonzero(feature.take(node) >= 0)
    for _ in range(forest.sizes.max()):
        if not live.size:
            break
        at = node.take(live)
        go_left = cells.take(row.take(live) + feature.take(at)) <= forest.threshold.take(at)
        node[live] = np.where(go_left, at + 1, forest.right.take(at))
        live = live[feature.take(node.take(live)) >= 0]
    if live.size:
        raise DamagedArtifact("tree links form a cycle: routing reached no leaf")
    return forest.value[node].reshape(forest.sizes.size, n)


def tree_sum(forest: Forest, X) -> np.ndarray:
    """The sum of the trees' predictions, added one tree at a time in tree order."""
    return _sum_in_order(leaf_values(forest, X))


def _sum_in_order(rows) -> np.ndarray:
    """The sum of a 2-d array's rows, added one row at a time from the first."""
    total = np.zeros(rows.shape[1])
    for row in rows:  # this loop, not numpy's reduction strategy, fixes the order
        total += row
    return total


def presort(X) -> tuple[np.ndarray, np.ndarray]:
    """Each column's stable argsort and its sorted values, as two (d, n) arrays.

    Row j of the order lists the sample rows by their value of column j,
    ties in ascending row order.
    """
    columns = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    order = np.argsort(columns, axis=1, kind="stable")
    return order, np.take_along_axis(columns, order, axis=1)


def _training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as float arrays, under the one rule for training input that trees,
    boosting and every learner share. In this order: an X that is not 2-d, a y that is
    not a vector of X's rows, or an X with no column raises ``ShapeMismatch``; no rows
    raise ``EmptyInput``; one row raises ``TooFewSamples``; a value that is not finite
    raises ``NonFiniteInput``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != X.shape[:1] or X.shape[1] < 1:
        raise ShapeMismatch(f"X {X.shape} incompatible with y {y.shape}")
    if X.shape[0] == 0:
        raise EmptyInput("cannot fit on empty input")
    if X.shape[0] == 1:
        raise TooFewSamples("need at least 2 training samples")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFiniteInput("training data must be finite")
    return X, y


def fit_tree(X, y, cfg: TreeConfig = TreeConfig()) -> Forest:
    """Grow a squared-error CART tree on ``(X, y)``, as a forest of one tree: a stage
    of one tree, over ``cfg.feature_subset`` or every column."""
    X, y = _training_data(X, y)
    subset = range(X.shape[1]) if cfg.feature_subset is None else cfg.feature_subset
    return _grow_stage(X, y, [subset], cfg, None)[0]


def fit_stage(X, residual, subsets, tree_depth: int, min_samples_leaf: int,
              presorted=None) -> tuple[Forest, np.ndarray]:
    """Grow one boosting stage: a forest of a tree per column subset, all on ``(X, residual)``.

    Tree ``t`` equals ``fit_tree(X, residual, TreeConfig(max_depth=tree_depth,
    min_samples_leaf=min_samples_leaf, feature_subset=subsets[t]))`` node for
    node. Returns the forest and ``tree_sum(forest, X)``, the sum of its outputs
    on the training rows, which each leaf fills in for its rows as it is written.
    """
    X, y = _training_data(X, residual)
    if not subsets:
        raise EmptyInput("a stage needs at least one column subset")
    cfg = TreeConfig(max_depth=tree_depth, min_samples_leaf=min_samples_leaf)
    forest, outputs = _grow_stage(X, y, subsets, cfg, presorted)
    return forest, _sum_in_order(outputs)


def _grow_stage(X, y, subsets, cfg: TreeConfig, presorted):
    """The forest of the trees over ``subsets`` grown together on checked ``(X, y)``,
    and each tree's outputs on those rows as a (trees, rows) array."""
    n_rows, n_features = X.shape
    allowed = np.zeros((len(subsets), n_features), dtype=bool)
    for t, subset in enumerate(subsets):
        subset = sorted(set(subset))
        if subset and (subset[0] < 0 or subset[-1] >= n_features):
            raise ShapeMismatch(f"feature_subset out of range for {n_features} features")
        allowed[t, subset] = True

    # The one sort of the stage, row j for column union[j]. Row sets only
    # partition it.
    union = np.flatnonzero(allowed.any(axis=0))
    if presorted is None:
        order, values = presort(X[:, union])
    elif any(part.shape != (n_features, n_rows) for part in presorted):
        raise ShapeMismatch(f"presort does not match X {X.shape}")
    else:
        order, values = presorted[0][union], presorted[1][union]
    stage = _StageGrower(np.ascontiguousarray(X.T), y, allowed, cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing score never wins
        stage.grow(list(range(len(subsets))), np.arange(n_rows), union, order, values, 0)
    columns = zip(*(node for nodes in stage.nodes for node in nodes))
    return _forest(*columns, [len(nodes) for nodes in stage.nodes], n_features), stage.outputs


class _StageGrower:
    """Depth-first growth of a stage's trees, one row set at a time, as the module
    docstring describes. A tree's nodes are appended to its own list as it
    visits them, as (feature, threshold, value, n), so each list comes out in
    pre-order: a split's left child is the next node, and its right child
    follows the left subtree. A leaf also writes its value into its tree's row
    of ``outputs`` at its rows.
    """

    def __init__(self, columns, y, allowed, cfg: TreeConfig):
        self.columns = columns
        self.y = y
        self.allowed = allowed
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.counts = np.arange(y.size + 1, dtype=np.float64)
        self.nodes: list[list[tuple]] = [[] for _ in range(allowed.shape[0])]
        self.outputs = np.empty((allowed.shape[0], y.size))

    def leaf(self, trees, idx, mean) -> None:
        leaf = (-1, 0.0, float(mean), idx.size)
        for t in trees:
            self.nodes[t].append(leaf)
            self.outputs[t][idx] = mean

    def grow(self, trees, idx, union, order, values, depth) -> None:
        """Append the node over the rows ``idx`` (ascending) to each tree in ``trees``.

        ``order`` and ``values`` are the sorted rows of the columns ``union``
        over ``idx``; they may be None where ``_may_split`` rules the node out.
        """
        y_node = self.y[idx]
        mean = np.add.reduce(y_node) / idx.size  # y_node.mean(), bit for bit, without its wrapper
        cfg = self.cfg
        if not (union.size and _may_split(cfg, idx.size, depth)
                and np.count_nonzero(y_node != y_node[0])):  # constant targets make a leaf
            return self.leaf(trees, idx, mean)
        if len(trees) == 1:  # union is the tree's own subset
            drawn = None
            scored = (order, values)
            if cfg.features_per_node is not None and cfg.features_per_node < union.size:
                drawn = self.rng.choice(union.size, size=cfg.features_per_node, replace=False)
                drawn.sort()
                scored = (order.take(drawn, axis=0), values.take(drawn, axis=0))
            best = _best_split(self.y, mean, *scored, cfg.min_samples_leaf, self.counts)
            if best is None:
                return self.leaf(trees, idx, mean)
            row, cut = best
            if drawn is not None:
                row = int(drawn[row])
            return self.split(trees, idx, union, order, values, depth, row, cut, None)

        per_row, cuts = _split_scores(self.y, mean, order, values, cfg.min_samples_leaf,
                                      self.counts)
        member = self.allowed[trees][:, union]
        scores = np.where(member, per_row, np.inf)
        pick = scores.argmin(axis=1)  # the first lowest column of each tree's subset
        splits = scores.min(axis=1) < np.inf
        groups: dict[int, list[int]] = {}  # row of union -> positions in trees that split on it
        leaves = []
        for pos, (t, row, split) in enumerate(zip(trees, pick.tolist(), splits.tolist())):
            if split:
                groups.setdefault(row, []).append(pos)
            else:
                leaves.append(t)
        if leaves:
            self.leaf(leaves, idx, mean)
        for row in sorted(groups):
            sub = member[groups[row]].any(axis=0).nonzero()[0]  # rows of the group's columns
            self.split([trees[pos] for pos in groups[row]], idx, union, order, values, depth,
                       row, int(cuts[row]), None if sub.size == union.size else sub)

    def split(self, trees, idx, union, order, values, depth, row, cut, sub) -> None:
        """Append to each tree in ``trees`` a split of ``idx`` at sorted position ``cut`` of
        column ``union[row]``, then its two subtrees, whose row sets carry the rows ``sub``
        of ``union`` (all of them when None)."""
        threshold = _threshold(values[row], cut)
        feature = int(union[row])
        for t in trees:
            self.nodes[t].append((feature, threshold, 0.0, 0))
        go_left = self.columns[feature] <= threshold
        left_rows = go_left[idx]
        children = (idx[left_rows], idx[~left_rows])
        (left_order, left_values), (right_order, right_values) = _child_rows(
            self.cfg, order, values, go_left, children, depth + 1, sub)
        if sub is not None:
            union = union[sub]
        self.grow(trees, children[0], union, left_order, left_values, depth + 1)
        self.grow(trees, children[1], union, right_order, right_values, depth + 1)


def _may_split(cfg: TreeConfig, n, depth) -> bool:
    """Whether the growth limits let a node of ``n`` rows at ``depth`` split."""
    return n >= 2 * cfg.min_samples_leaf and (cfg.max_depth is None or depth < cfg.max_depth)


def _child_rows(cfg: TreeConfig, order, values, go_left, children, depth, rows=None):
    """Each child's sorted rows: those of ``order`` and ``values`` (of their ``rows``
    only, when given) that route to it, or (None, None) where ``_may_split`` rules
    the child out."""
    may = [_may_split(cfg, child.size, depth) for child in children]
    if not any(may):
        return [(None, None)] * 2
    if rows is not None:
        order, values = order.take(rows, axis=0), values.take(rows, axis=0)
    in_left = go_left[order].ravel()
    out = []
    for child, ok, keep in zip(children, may, (in_left, None)):
        if not ok:
            out.append((None, None))
            continue
        if keep is None:
            keep = ~in_left
        # Flat positions in ascending order keep each row of order/values in
        # its sorted order, so the child needs no sort of its own. (Taking
        # them is several times faster than a 2-d boolean index.)
        at = keep.nonzero()[0]
        shape = (order.shape[0], child.size)
        out.append((order.take(at).reshape(shape), values.take(at).reshape(shape)))
    return out


def _cut_scores(y, mean, order, values, min_leaf, counts):
    """The split SSE of every allowed cut of every candidate row, and the first cut ``lo``.

    Column c of the (rows, n - 2 * min_leaf + 1) result is cut ``lo + c``,
    which puts the rows at sorted positions 0..lo + c on the left. Cuts
    inside a run of tied values score +inf; cuts leaving fewer than
    ``min_leaf`` rows on a side are not scored. ``counts[i]`` is ``float(i)``
    for every ``i`` up to the row count.
    """
    n = order.shape[1]
    lo, hi = min_leaf - 1, n - min_leaf
    s1 = y[order]
    s1 -= mean  # SSE is shift-invariant; centering helps precision
    s2 = s1 * s1
    np.add.accumulate(s1, axis=1, out=s1)
    np.add.accumulate(s2, axis=1, out=s2)
    sum_left, sq_left = s1[:, lo:hi], s2[:, lo:hi]
    # (sq_left - sum_left**2 / n_left) + ((sq_all - sq_left) - (sum_all - sum_left)**2 / n_right),
    # one operation at a time, in place where the operand is a temporary.
    left = sum_left * sum_left
    left /= counts[lo + 1:hi + 1]
    np.subtract(sq_left, left, out=left)
    right = s1[:, -1:] - sum_left
    right *= right
    right /= counts[n - lo - 1:n - hi - 1:-1]
    sse = s2[:, -1:] - sq_left
    sse -= right
    sse += left
    np.putmask(sse, values[:, lo + 1:hi + 1] == values[:, lo:hi], np.inf)
    return sse, lo


def _split_scores(y, mean, order, values, min_leaf, counts):
    """Each candidate row's lowest split SSE and the cut that reaches it.

    Scores every cut of every candidate at once (``_cut_scores``); a NaN
    anywhere in a row (overflowing SSE) makes its minimum +inf. Each row's
    cut is its first lowest one, so the smallest threshold.
    """
    sse, lo = _cut_scores(y, mean, order, values, min_leaf, counts)
    per_row = sse.min(axis=1)
    per_row[np.isnan(per_row)] = np.inf
    return per_row, lo + sse.argmin(axis=1)


def _threshold(sorted_values, cut) -> float:
    """The midpoint between sorted positions ``cut`` and ``cut + 1``, or the lower value
    when the midpoint fails ``a <= t < b`` (adjacent floats round up to b; huge ones
    overflow)."""
    a, b = float(sorted_values[cut]), float(sorted_values[cut + 1])
    threshold = (a + b) / 2.0
    return threshold if a <= threshold < b else a


def _best_split(y, mean, order, values, min_leaf, counts):
    """Best (row of ``order``, cut) over all candidates, or None.

    The winner is the first candidate row holding the lowest score of
    ``_split_scores``; a row scoring +inf never wins.
    """
    sse, lo = _cut_scores(y, mean, order, values, min_leaf, counts)
    # Without NaNs, the first lowest cut in row-major order is the first
    # lowest cut of the first lowest row.
    row, cut = divmod(int(sse.argmin()), sse.shape[1])
    score, cut = sse[row, cut], lo + cut
    if math.isnan(score):  # argmin stops at the first NaN; rank the rows without it
        per_row, cuts = _split_scores(y, mean, order, values, min_leaf, counts)
        row = int(per_row.argmin())
        score, cut = per_row[row], int(cuts[row])
    return None if score == np.inf else (row, cut)
