"""Real-dataset pipeline: CSV ingestion, seeded sampling, weighted decision
trees, and dataset-driven boosting runs.

The tree learner is greedy: best-first growth, splitting on weighted
misclassification so that tree selection aligns with edge maximization.
Split scores are computed in floats even for exact-mode runs; only the
weight/edge arithmetic of the trace follows the numeric mode.

The sort order of each feature never depends on the weights, so it is
computed once per dataset (`Dataset.presort`, SLIQ-style attribute lists:
Mehta, Agrawal & Rissanen, EDBT 1996). Every open leaf carries its members
in ascending index order plus, per feature, its member ids in stable sorted
order. A split partitions those lists with one boolean test per point; a
stable sort restricted to an ascending subset is the stable sort of that
subset, so each child's lists are exactly what a stable argsort of its
members would give.

Both children of a split are scored in one pass. Their lists are padded on
the right to the larger child with an id whose weighted label is a
trailing 0.0, and stacked into one (2m x K) array; one cumulative sum
along it, one |L| + |T - L| and one row maximum score every cut of both
children, and the root is scored the same way as a batch of one. A (3, 4)
tree so takes 3 scoring passes, where scoring each leaf on its own took 5.
Cumulative sums add the same terms in the same order as a per-feature
sort-then-cumsum, padding only adds 0.0 after the last real term, and the
unsplit sum of each child still sums its members in index order (one sum
per child, also kept for its label), so scores, gains and thresholds are
bit-identical to that reference. Ties break to the lowest feature, then the
lowest threshold, then the lowest leaf id. A leaf's best split depends only
on its members and the weights, so it is computed once per leaf.

The children's lists, and the mask of their valid cuts, depend only on the
dataset and on the split (the path to the node split, feature, threshold),
never on the weights. So `run_on_dataset` memoizes them for the run, keyed
by the split, in an LRU map (`_SplitMemo`) that counts the bytes of the
arrays it holds: at most _MEMO_ROOTS = 128 times the root's bytes, or
_MEMO_BYTES = 64 MiB when that is less, and one split when a single split
is larger. A split takes about 9 bytes per padded slot (8 for the id, 1
for the mask) plus 8 per member, so the root takes about (8 + 9m) * n
bytes and the bound is 0.84 MB on Iris, about what a memo of 256 single
nodes held there. A cycling run re-grows the same trees: 87.9% of the
splits of 1000 Iris versicolor steps come from the memo. Each step's
dichotomy is read off the final leaves (leaf labels, the sign flip, then
y * pred) without building a tree; `train_tree` grows its tree with the
same code (`_grow`) and a memo of its own.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .engine import BoostTrace, Optimal, boost
from .simplex import (
    HypothesisPool,
    MistakeDichotomy,
    Scalar,
    WeightVector,
    uniform_weights,
)


@dataclass(frozen=True)
class Dataset:
    """Numeric feature matrix with ±1 labels and loading provenance.

    `x` is stored as a read-only float64 copy, so values derived from it
    (the presort) can never go stale. Every feature value must be finite.
    """

    x: np.ndarray  # (n, m) float64
    y: Tuple[int, ...]
    feature_names: Tuple[str, ...]
    provenance: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != len(self.y):
            raise ValueError("feature matrix and labels disagree")
        if not np.isfinite(x).all():
            raise ValueError("feature values must be finite")
        if any(label not in (1, -1) for label in self.y):
            raise ValueError("labels must be +1 or -1")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    @cached_property
    def presort(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-feature stable sort, built on first use: an (m, n) array of
        point ids in ascending order of each feature, and the (m, n) array
        of the matching values. Both are read-only."""
        order = np.ascontiguousarray(np.argsort(self.x, axis=0, kind="stable").T)
        vals = self.x[order, np.arange(self.m)[:, None]]
        order.flags.writeable = False
        vals.flags.writeable = False
        return order, vals

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]


def load_csv(path: str, label_column: str, positive: str) -> Dataset:
    """Load a comma-separated file with a header row.

    Rows whose feature cells fail numeric parsing or are not finite (nan,
    inf) are dropped (the count is recorded in provenance); a column with no
    finite cell is rejected outright.
    Labels become +1 when the label cell equals `positive`, else -1. The
    file is read as UTF-8; a leading byte-order mark is dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    if label_column not in header:
        raise ValueError(f"{path}: no column named {label_column!r} in header")
    label_idx = header.index(label_column)
    feature_idx = [i for i in range(len(header)) if i != label_idx]
    if not feature_idx:
        raise ValueError(f"{path}: no feature columns besides the label")

    bad_by_column = {i: 0 for i in feature_idx}
    kept_x: List[List[float]] = []
    kept_y: List[int] = []
    dropped = 0
    for row in rows:
        if len(row) != len(header):
            dropped += 1
            continue
        feats = []
        ok = True
        for i in feature_idx:
            try:
                value = float(row[i])
            except ValueError:
                value = math.nan
            if math.isfinite(value):
                feats.append(value)
            else:
                bad_by_column[i] += 1
                ok = False
        if not ok:
            dropped += 1
            continue
        kept_x.append(feats)
        kept_y.append(1 if row[label_idx].strip() == positive else -1)

    for i, bad in bad_by_column.items():
        if rows and bad == len(rows):
            raise ValueError(f"{path}: feature column {header[i]!r} is not numeric")
    if not kept_x:
        raise ValueError(f"{path}: no usable rows")
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} rows with unusable cells", stacklevel=2)
    if len(set(kept_y)) < 2:
        raise ValueError(
            f"{path}: single-class dataset for positive={positive!r}; nothing to learn"
        )
    return Dataset(
        x=np.asarray(kept_x, dtype=np.float64),
        y=tuple(kept_y),
        feature_names=tuple(header[i] for i in feature_idx),
        provenance={
            "path": path,
            "label_column": label_column,
            "positive": positive,
            "dropped_rows": dropped,
            "n_rows": len(kept_x),
        },
    )


def sample(ds: Dataset, size: int, seed: int) -> Dataset:
    """Uniform sample without replacement, deterministic per seed (PCG64).

    Row order of the original dataset is preserved. A sample that holds
    one class only is rejected, as `load_csv` rejects such a file.
    """
    if size > ds.n:
        raise ValueError(f"sample size {size} exceeds dataset size {ds.n}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(ds.n, size=size, replace=False))
    if len({ds.y[i] for i in idx}) < 2:
        raise ValueError(f"sample of {size} rows with seed {seed} is single-class; nothing to learn")
    provenance = dict(ds.provenance)
    provenance.update({"sample_size": size, "seed": seed})
    return Dataset(
        x=ds.x[idx],
        y=tuple(ds.y[i] for i in idx),
        feature_names=ds.feature_names,
        provenance=provenance,
    )


@dataclass(frozen=True)
class TreeNode:
    """Internal split (feature, threshold, children) or a ±1 leaf."""

    label: Optional[int] = None
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


@dataclass(frozen=True)
class TreeHypothesis:
    """A bounded binary decision tree over numeric features."""

    root: TreeNode
    depth: int
    n_leaves: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape[0], dtype=np.int64)

        def fill(node: TreeNode, mask: np.ndarray) -> None:
            if node.is_leaf:
                out[mask] = node.label
                return
            go_left = mask & (x[:, node.feature] <= node.threshold)
            fill(node.left, go_left)
            fill(node.right, mask & ~go_left)

        fill(self.root, np.ones(x.shape[0], dtype=bool))
        return out


# A run's memo holds at most _MEMO_BYTES, and at most the bytes of
# _MEMO_ROOTS entries the size of the root.
_MEMO_ROOTS = 128
_MEMO_BYTES = 64 << 20

# the weighted label of the padding id n
_PAD = np.zeros(1)


class _Children:
    """The lists of a split's two children (or of the root alone), laid out
    to be scored in one pass.

    `members` holds each child's points in ascending order. Row c * m + f of
    `ids` holds child c's ids in stable sorted order of feature f, padded
    on the right to the larger child with the id n, whose weighted label is
    the trailing 0.0 of the padded `wy`. `cut` masks the cuts between
    consecutive distinct values of a row. It is built from `vals`, the
    values of `ids` with -inf at the padding, which is not kept, so it is
    False at the last column and at every padded position; it is None when
    no row has a cut."""

    __slots__ = ("members", "ids", "cut", "nbytes")

    def __init__(self, members: Tuple[np.ndarray, ...], ids: np.ndarray, vals: np.ndarray) -> None:
        cut = np.zeros(ids.shape, dtype=bool)
        np.less(vals[:, :-1], vals[:, 1:], out=cut[:, :-1])
        self.members, self.ids = members, ids
        self.cut = cut if cut.any() else None
        self.nbytes = sum(a.nbytes for a in members) + ids.nbytes + (cut.nbytes if self.cut is not None else 0)

    def lists(self, c: int) -> Tuple[np.ndarray, np.ndarray]:
        """Child c's members and sorted ids, without the padding."""
        members = self.members[c]
        m = len(self.ids) // len(self.members)
        return members, self.ids[c * m : (c + 1) * m, : len(members)]


class _SplitMemo:
    """Split children memoized by split, least recently used out first.

    A split is keyed by (path, feature, threshold), the path of the node it
    splits being () for the root, else (the key of its parent's split,
    side), side 0 holding the parent's points at or below the threshold.
    The children's lists are a function of the dataset and the key alone,
    never of the weights, so one memo serves every tree of a run. The memo
    counts the bytes of the arrays it holds, and evicts down to `budget`.
    """

    def __init__(self, ds: Dataset) -> None:
        self.ds = ds
        self.root = _Children((np.arange(ds.n),), *ds.presort)
        self.budget = min(_MEMO_ROOTS * self.root.nbytes, _MEMO_BYTES)
        self.nbytes = 0
        self.splits: "OrderedDict[tuple, _Children]" = OrderedDict()
        # value of point i in feature f at [f, i]; the padding id n reads -inf
        self.values = np.concatenate((ds.x.T, np.full((ds.m, 1), -np.inf)), axis=1)
        self.features = np.tile(np.arange(ds.m), 2)[:, None]  # the feature of each row of two children

    def split(self, path: tuple, node: _Children, c: int, feature: int, threshold: float) -> Tuple[tuple, _Children]:
        """The key and children of the split of the node at `path`, which
        is child c of `node`."""
        key = (path, feature, threshold)
        found = self.splits.get(key)
        if found is not None:
            self.splits.move_to_end(key)
            return key, found
        members, order = node.lists(c)
        m = self.ds.m
        go = self.ds.x[:, feature] <= threshold
        inside, below = go[members], go[order]
        size = int(np.count_nonzero(inside))
        ids = np.full((2 * m, max(size, len(members) - size)), self.ds.n)
        ids[:m, :size] = order[below].reshape(m, size)
        ids[m:, : len(members) - size] = order[~below].reshape(m, -1)
        found = _Children((members[inside], members[~inside]), ids, self.values[self.features, ids])
        self.splits[key] = found
        self.nbytes += found.nbytes
        while self.nbytes > self.budget and len(self.splits) > 1:
            self.nbytes -= self.splits.popitem(last=False)[1].nbytes
        return key, found


# A scored leaf: the signed sum of its weighted labels, and its best split
# (score gain, feature, threshold), None when no cut improves.
Scored = Tuple[float, Optional[Tuple[float, int, float]]]


def _score(wy: np.ndarray, padded_wy: np.ndarray, node: _Children, x: np.ndarray) -> List[Scored]:
    """Score every child of `node` in one pass over its padded lists.

    Score of a split is |sum wy left| + |sum wy right|; the gain is measured
    against the unsplit |sum wy|, one sum over the members in index order.
    Candidate thresholds are midpoints between consecutive distinct sorted
    values (the lower value when no float lies strictly between them). Ties
    break to the lowest feature index, then the lowest threshold.

    The padding only appends 0.0 to each row, so every real prefix sum is
    bit for bit a sum over the child's own list, and the last column is
    each row's total up to the sign of a zero, which |T - L| drops.
    """
    sums = [float(wy[members].sum()) for members in node.members]
    if node.cut is None:
        return [(total, None) for total in sums]
    prefix = np.add.accumulate(padded_wy[node.ids], axis=1)
    scores = np.abs(prefix[:, -1:] - prefix)
    scores += np.abs(prefix)
    scores = np.where(node.cut, scores, -np.inf)
    cuts = scores.argmax(axis=1)  # first max: lowest threshold wins ties
    gains = scores[np.arange(len(cuts)), cuts].reshape(len(sums), -1)
    gains -= np.array([[abs(total)] for total in sums])
    m = gains.shape[1]
    found: List[Scored] = []
    for c, (total, f) in enumerate(zip(sums, gains.argmax(axis=1).tolist())):  # first max: lowest feature wins ties
        gain = float(gains[c, f])
        if not gain > 0:
            found.append((total, None))
            continue
        row = c * m + f
        p = int(cuts[row])
        lo, hi = float(x[node.ids[row, p], f]), float(x[node.ids[row, p + 1], f])
        # (lo + hi) / 2 rounded, without its overflow (halving is exact above
        # the subnormals); between adjacent floats it rounds to hi, and the
        # split sends x <= threshold left, so it needs lo <= threshold < hi
        threshold = lo / 2 + hi / 2
        if not lo <= threshold < hi:
            threshold = lo
        found.append((total, (gain, f, threshold)))
    return found


def _grow(
    wy: np.ndarray, memo: _SplitMemo, max_depth: int, max_leaves: int
) -> Tuple[Dict[int, Tuple[int, float, int, int]], Dict[int, int], np.ndarray]:
    """Grow a tree greedily on the weighted labels `wy`, always applying the
    split with the largest gain (ties to the lowest leaf id), until the
    depth/leaf bounds bind or no split improves. Returns the splits (node id
    -> (feature, threshold, left id, right id)), the leaves' labels and the
    tree's prediction at every point, both sign-flipped when the tree's edge
    would be negative."""
    splits: Dict[int, Tuple[int, float, int, int]] = {}
    padded_wy = np.concatenate((wy, _PAD))
    next_id = 1
    leaves = {0: (0, (), memo.root, 0)}  # leaf id -> (depth, path, its split's children, side)
    scored: Dict[int, Scored] = {}  # only leaves that may still split are scored
    if max_leaves > 1:
        scored[0] = _score(wy, padded_wy, memo.root, memo.ds.x)[0]

    while len(leaves) < max_leaves:
        best_leaf = None
        best_split = None
        for leaf_id in sorted(leaves):
            found = scored[leaf_id][1] if leaf_id in scored else None
            if found is not None and (best_split is None or found[0] > best_split[0]):
                best_leaf, best_split = leaf_id, found
        if best_leaf is None:
            break
        _, feature, threshold = best_split
        depth, path, node, c = leaves.pop(best_leaf)
        key, children = memo.split(path, node, c, feature, threshold)
        for side in (0, 1):
            leaves[next_id + side] = (depth + 1, (key, side), children, side)
        if len(leaves) < max_leaves and depth + 1 < max_depth:
            scored[next_id], scored[next_id + 1] = _score(wy, padded_wy, children, memo.ds.x)
        splits[best_leaf] = (feature, threshold, next_id, next_id + 1)
        next_id += 2

    # The leaves partitioned the points with the same tests predict applies,
    # so their labels are the unflipped tree's predictions.
    preds = np.empty(len(wy), dtype=np.int64)
    labels = {}
    for leaf_id, (_, _, node, c) in leaves.items():
        members = node.members[c]
        total = scored[leaf_id][0] if leaf_id in scored else wy[members].sum()
        labels[leaf_id] = 1 if total >= 0 else -1
        preds[members] = labels[leaf_id]
    if float(np.dot(wy, preds)) < 0:
        return splits, {leaf_id: -label for leaf_id, label in labels.items()}, -preds
    return splits, labels, preds


def _check_bounds(max_depth: int, max_leaves: int) -> None:
    if max_depth < 1 or max_leaves < 1:
        raise ValueError("tree bounds must be at least 1")


def train_tree(
    ds: Dataset,
    w: Union[WeightVector, np.ndarray, Sequence[float]],
    max_depth: int,
    max_leaves: int,
) -> TreeHypothesis:
    """Grow a tree greedily, always applying the split with the largest
    weighted-accuracy gain, until the depth/leaf bounds bind or no split
    improves. Deterministic for identical inputs.

    The first split applied is exactly the best decision stump, so the
    returned tree never scores below it. If the finished tree somehow had a
    negative edge it would be sign-flipped, keeping the edge nonnegative.
    Weights must be finite and nonnegative, with a sum a double holds; zero
    weights are allowed.
    """
    _check_bounds(max_depth, max_leaves)
    weights = np.asarray(
        w.components if isinstance(w, WeightVector) else w, dtype=np.float64
    )
    if weights.shape != (ds.n,):
        raise ValueError("weight vector does not match dataset size")
    if not (np.isfinite(weights) & (weights >= 0)).all():
        raise ValueError("weights must be finite and nonnegative")
    with np.errstate(over="ignore"):  # an overflowing sum is rejected, not warned about
        if not np.isfinite(weights.sum()):
            raise ValueError("weights must have a finite sum")
    splits, labels, _ = _grow(weights * np.asarray(ds.y, dtype=np.float64), _SplitMemo(ds), max_depth, max_leaves)

    def build(node_id: int) -> TreeNode:
        if node_id in splits:
            feature, threshold, left_id, right_id = splits[node_id]
            return TreeNode(feature=feature, threshold=threshold, left=build(left_id), right=build(right_id))
        return TreeNode(label=labels[node_id])

    def tree_depth(node_id: int) -> int:
        if node_id in splits:
            _, _, l, r = splits[node_id]
            return 1 + max(tree_depth(l), tree_depth(r))
        return 0

    return TreeHypothesis(build(0), tree_depth(0), len(labels))


def dichotomy_of(h: TreeHypothesis, ds: Dataset) -> MistakeDichotomy:
    """eta_i = y_i * h(x_i): +1 where the tree agrees with the label."""
    return MistakeDichotomy(tuple((np.asarray(ds.y) * h.predict(ds.x)).tolist()))


def run_on_dataset(
    ds: Dataset,
    max_depth: int,
    max_leaves: int,
    t_max: int,
    mode: str = "float",
) -> BoostTrace:
    """Boost over freshly trained trees: each iteration fits a tree to the
    current weights, reads its dichotomy off the tree's leaves, and applies
    the rational weight update (the `engine.boost` loop). The trees are the
    ones `train_tree` returns; the run's node lists are memoized.

    The trace's pool collects the distinct dichotomies of the steps taken,
    in order of first use, so every analysis that works on synthetic-pool
    traces works here too. Halts with a recorded reason by `boost`'s rule:
    when the edge leaves (0, 1), and in float mode also when it is within
    SCREEN_MARGIN * n of 0, or of 1 on a tree that misclassifies no point.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    _check_bounds(max_depth, max_leaves)
    initial = uniform_weights(ds.n, mode)
    exact = mode == "exact"
    y = np.asarray(ds.y, dtype=np.int64)
    memo = _SplitMemo(ds)
    chosen: Dict[bytes, int] = {}  # eta bytes -> row
    pool_rows: List[np.ndarray] = []  # the int8 signs of each row, in order of first use

    def choose(w: np.ndarray, t: int) -> Tuple[int, np.ndarray, Scalar]:
        # a lattice point's weights a_i / D, each correctly rounded
        weights = np.asarray(w[1:] / w[0], dtype=np.float64) if exact else w
        _, _, preds = _grow(weights * y, memo, max_depth, max_leaves)
        eta = y * preds
        row = chosen.setdefault(eta.tobytes(), len(chosen))
        if row == len(pool_rows):
            pool_rows.append(eta.astype(np.int8))
        signs = pool_rows[row]
        if exact:
            return row, signs, signs @ w[1:]  # the edge's numerator over D
        return row, signs, float(np.dot(w, signs))

    rows, states, halt = boost(choose, initial, t_max)
    # rows are numbered in order of first use; a dichotomy met only on the
    # halting step is not in the trace, unless no step was taken at all.
    # The rows are distinct, and each has a +1 (a tree's edge is not
    # negative), so the matrix needs no check.
    used = int(rows.max()) + 1 if len(rows) else 1
    pool = HypothesisPool.from_matrix(np.array(pool_rows[:used]), origin="learned")
    return BoostTrace(mode, pool, Optimal(), initial, rows, states, halt)
