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
order and the matching values. A split partitions those lists with one
boolean test per point; a stable sort restricted to an ascending subset is
the stable sort of that subset, so each child's lists are exactly what a
stable argsort of its members would give. A node is scored for all
features at once from the cumulative sums of the weighted labels along its
lists. Cumulative sums add the same terms in the same order as a
per-feature sort-then-cumsum, and the unsplit sum and leaf labels still sum
the members in index order, so scores, gains and thresholds are
bit-identical to that reference. Ties break to the lowest feature, then the
lowest threshold, then the lowest leaf id. A leaf's best split depends only
on its members and the weights, so it is computed once per leaf.
"""

from __future__ import annotations

import csv
import math
import warnings
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
    Labels become +1 when the label cell equals `positive`, else -1.
    """
    with open(path, newline="") as fh:
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

    Row order of the original dataset is preserved.
    """
    if size > ds.n:
        raise ValueError(f"sample size {size} exceeds dataset size {ds.n}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(ds.n, size=size, replace=False))
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


def _score_node(
    wy: np.ndarray, members: np.ndarray, order: np.ndarray, vals: np.ndarray
) -> Optional[Tuple[float, int, float]]:
    """Best (score gain, feature, threshold) for one node, from its members
    (ascending) and its (m, n_node) attribute lists `order` and `vals`.

    Score of a split is |sum wy left| + |sum wy right|; the gain is measured
    against the unsplit |sum wy|. Candidate thresholds are midpoints between
    consecutive distinct sorted values (the lower value when no float lies
    strictly between them). Ties break to the lowest feature
    index, then the lowest threshold. Returns None when no cut improves.
    """
    cut = vals[:, :-1] < vals[:, 1:]
    if not cut.any():
        return None
    base = abs(float(wy[members].sum()))
    prefix = wy[order].cumsum(axis=1)
    left = prefix[:, :-1]
    scores = np.where(cut, np.abs(left) + np.abs(prefix[:, -1:] - left), -np.inf)
    gains = scores.max(axis=1) - base
    f = int(gains.argmax())  # first max: lowest feature wins ties
    if not gains[f] > 0:
        return None
    p = int(scores[f].argmax())  # first max: lowest threshold wins ties
    lo, hi = float(vals[f, p]), float(vals[f, p + 1])
    # (lo + hi) / 2 rounded, without its overflow (halving is exact above the
    # subnormals); between adjacent floats it rounds to hi, and the split
    # sends x <= threshold left, so it needs lo <= threshold < hi
    threshold = lo / 2 + hi / 2
    if not lo <= threshold < hi:
        threshold = lo
    return float(gains[f]), f, threshold


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
    """
    if max_depth < 1 or max_leaves < 1:
        raise ValueError("tree bounds must be at least 1")
    weights = np.asarray(
        w.components if isinstance(w, WeightVector) else w, dtype=np.float64
    )
    if weights.shape[0] != ds.n:
        raise ValueError("weight vector does not match dataset size")
    y = np.asarray(ds.y, dtype=np.float64)
    wy = weights * y

    splits: Dict[int, Tuple[int, float, int, int]] = {}  # leaf id -> (feature, thr, left id, right id)
    next_id = 1
    # leaf id -> (depth, members, per-feature sorted ids, matching values)
    ids = {0: (0, np.arange(ds.n), *ds.presort)}
    candidates: Dict[int, Optional[Tuple[float, int, float]]] = {}  # leaf id -> its best split

    while len(ids) < max_leaves:
        best_leaf = None
        best_split = None
        for leaf_id in sorted(ids):
            depth, members, order, vals = ids[leaf_id]
            if depth >= max_depth:
                continue
            if leaf_id not in candidates:
                candidates[leaf_id] = _score_node(wy, members, order, vals)
            found = candidates[leaf_id]
            if found is None:
                continue
            if best_split is None or found[0] > best_split[0]:
                best_leaf, best_split = leaf_id, found
        if best_leaf is None:
            break
        _, feature, threshold = best_split
        depth, members, order, vals = ids.pop(best_leaf)
        go = ds.x[:, feature] <= threshold
        go_members, go_lists = go[members], go[order]
        left_id, right_id = next_id, next_id + 1
        next_id += 2
        for child, in_members, in_lists in (
            (left_id, go_members, go_lists),
            (right_id, ~go_members, ~go_lists),
        ):
            ids[child] = (
                depth + 1,
                members[in_members],
                order[in_lists].reshape(ds.m, -1),
                vals[in_lists].reshape(ds.m, -1),
            )
        splits[best_leaf] = (feature, threshold, left_id, right_id)

    def build(node_id: int, flip: int) -> TreeNode:
        if node_id in splits:
            feature, threshold, left_id, right_id = splits[node_id]
            return TreeNode(
                feature=feature,
                threshold=threshold,
                left=build(left_id, flip),
                right=build(right_id, flip),
            )
        return TreeNode(label=flip * labels[node_id])

    def tree_depth(node_id: int) -> int:
        if node_id in splits:
            _, _, l, r = splits[node_id]
            return 1 + max(tree_depth(l), tree_depth(r))
        return 0

    # The leaves partitioned the points with the same tests predict applies,
    # so their labels are the unflipped tree's predictions.
    preds = np.empty(ds.n, dtype=np.int64)
    labels = {}
    for leaf_id, (_, members, _, _) in ids.items():
        labels[leaf_id] = 1 if wy[members].sum() >= 0 else -1
        preds[members] = labels[leaf_id]
    raw_edge = float(np.dot(wy, preds))
    return TreeHypothesis(build(0, -1 if raw_edge < 0 else 1), tree_depth(0), len(ids))


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
    current weights, converts it to a dichotomy, and applies the rational
    weight update (the `engine.boost` loop).

    The trace's pool collects the distinct dichotomies of the steps taken,
    in order of first use, so every analysis that works on synthetic-pool
    traces works here too. Halts with a recorded reason when the edge
    leaves (0, 1).
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    initial = uniform_weights(ds.n, mode)
    chosen: Dict[Tuple[int, ...], Tuple[int, MistakeDichotomy]] = {}  # entries -> (row, dichotomy)

    def choose(w: np.ndarray, t: int) -> Tuple[int, np.ndarray, Scalar]:
        exact = w.dtype == object
        # a lattice point's weights a_i / D, each correctly rounded
        eta = dichotomy_of(train_tree(ds, w[1:] / w[0] if exact else w, max_depth, max_leaves), ds)
        row, _ = chosen.setdefault(eta.entries, (len(chosen), eta))
        if exact:
            signs = np.array(eta.entries, dtype=object)
            return row, signs, signs @ w[1:]  # the edge's numerator over D
        signs = np.array(eta.entries, dtype=np.float64)
        return row, signs, float(np.dot(w, signs))

    rows, signs, states, halt = boost(choose, initial, t_max)
    # rows are numbered in order of first use; a dichotomy met only on the
    # halting step is not in the trace, unless no step was taken at all
    used = int(rows.max()) + 1 if len(rows) else 1
    pool = HypothesisPool(tuple(eta for _, eta in list(chosen.values())[:used]), origin="learned")
    return BoostTrace.from_columns(mode, pool, Optimal(), initial, rows, signs, states, halt)
