import random
import weakref
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from boostcycles import (
    BoostTrace,
    Dataset,
    HypothesisPool,
    Optimal,
    WeightVector,
    detect_cycle,
    dichotomy_of,
    edge_dot,
    load_csv,
    run_on_dataset,
    sample,
    train_tree,
    uniform_weights,
)
from boostcycles import engine, learners
from boostcycles.learners import TreeHypothesis, TreeNode
from boostcycles.traceio import dumps_trace

DATA = resources.files("boostcycles") / "data"
IRIS = str(DATA / "iris.csv")
SYNTH3 = str(DATA / "synthetic3.csv")


def make_dataset(x_rows, y):
    return Dataset(
        x=np.asarray(x_rows, dtype=np.float64),
        y=tuple(y),
        feature_names=tuple(f"f{i}" for i in range(len(x_rows[0]))),
    )


def uniform(n):
    return WeightVector(tuple(Fraction(1, n) for _ in range(n)))


def brute_force_best_stump_accuracy(ds, weights):
    """Independent oracle: exhaustive stump search over midpoints and signs,
    plus the two constant hypotheses."""
    w = np.asarray(weights, dtype=np.float64)
    y = np.asarray(ds.y, dtype=np.float64)
    best = max(float(np.sum(w[y == 1])), float(np.sum(w[y == -1])))
    for f in range(ds.m):
        values = sorted(set(ds.x[:, f]))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2
            for sign in (1, -1):
                pred = np.where(ds.x[:, f] <= thr, sign, -sign)
                best = max(best, float(np.sum(w[pred == y])))
    return best


def tree_accuracy(tree, ds, weights):
    w = np.asarray(weights, dtype=np.float64)
    y = np.asarray(ds.y, dtype=np.float64)
    return float(np.sum(w[tree.predict(ds.x) == y]))


def reference_best_split(x, wy, idx):
    """The learner's split search before presorting, kept as the reference:
    every feature of the node re-sorted, cut scores from a per-feature
    cumulative sum. Ties to the lowest feature, then the lowest threshold."""
    node_wy = wy[idx]
    base = abs(float(node_wy.sum()))
    best = None
    for f in range(x.shape[1]):
        vals = x[idx, f]
        order = np.argsort(vals, kind="stable")
        v_sorted = vals[order]
        cuts = np.nonzero(v_sorted[:-1] < v_sorted[1:])[0]
        if cuts.size == 0:
            continue
        prefix = np.cumsum(node_wy[order])
        total = prefix[-1]
        scores = np.abs(prefix[cuts]) + np.abs(total - prefix[cuts])
        pbest = int(np.argmax(scores))
        gain = float(scores[pbest]) - base
        if gain <= 0:
            continue
        p = int(cuts[pbest])
        threshold = float((v_sorted[p] + v_sorted[p + 1]) / 2.0)
        if best is None or gain > best[0]:
            best = (gain, f, threshold)
    return best


def reference_train_tree(ds, w, max_depth, max_leaves):
    """The learner before presorting: every open leaf re-searched each round,
    ties to the lowest leaf id, sign flip on a negative edge."""
    if max_depth < 1 or max_leaves < 1:
        raise ValueError("tree bounds must be at least 1")
    weights = np.asarray(w.components if isinstance(w, WeightVector) else w, dtype=np.float64)
    wy = weights * np.asarray(ds.y, dtype=np.float64)
    splits = {}
    next_id = 1
    ids = {0: (0, np.arange(ds.n))}
    while len(ids) < max_leaves:
        best_leaf = best_split = None
        for leaf_id in sorted(ids):
            depth, idx = ids[leaf_id]
            if depth >= max_depth:
                continue
            found = reference_best_split(ds.x, wy, idx)
            if found is not None and (best_split is None or found[0] > best_split[0]):
                best_leaf, best_split = leaf_id, found
        if best_leaf is None:
            break
        _, feature, threshold = best_split
        depth, idx = ids.pop(best_leaf)
        go_left = ds.x[idx, feature] <= threshold
        ids[next_id] = (depth + 1, idx[go_left])
        ids[next_id + 1] = (depth + 1, idx[~go_left])
        splits[best_leaf] = (feature, threshold, next_id, next_id + 1)
        next_id += 2

    def build(node_id, flip):
        if node_id in splits:
            feature, threshold, left_id, right_id = splits[node_id]
            return TreeNode(
                feature=feature,
                threshold=threshold,
                left=build(left_id, flip),
                right=build(right_id, flip),
            )
        return TreeNode(label=flip * (1 if wy[ids[node_id][1]].sum() >= 0 else -1))

    def tree_depth(node_id):
        if node_id in splits:
            _, _, left_id, right_id = splits[node_id]
            return 1 + max(tree_depth(left_id), tree_depth(right_id))
        return 0

    tree = TreeHypothesis(build(0, 1), tree_depth(0), len(ids))
    if float(np.dot(wy, tree.predict(ds.x))) < 0:
        tree = TreeHypothesis(build(0, -1), tree.depth, tree.n_leaves)
    return tree


def reference_run_on_dataset(ds, max_depth, max_leaves, t_max, mode):
    """The dataset run before its node lists were memoized: every step fits
    `reference_train_tree` to the weights and reads its dichotomy with
    `dichotomy_of`, in the same `engine.boost` loop."""
    initial = uniform_weights(ds.n, mode)
    chosen = {}  # entries -> (row, dichotomy)

    def choose(w, t):
        exact = w.dtype == object
        eta = dichotomy_of(reference_train_tree(ds, w[1:] / w[0] if exact else w, max_depth, max_leaves), ds)
        row, _ = chosen.setdefault(eta.entries, (len(chosen), eta))
        signs = np.array(eta.entries, dtype=object if exact else np.float64)
        return row, signs, signs @ w[1:] if exact else float(np.dot(w, signs))

    rows, signs, states, halt = engine.boost(choose, initial, t_max)
    used = int(rows.max()) + 1 if len(rows) else 1
    pool = HypothesisPool(tuple(eta for _, eta in list(chosen.values())[:used]), origin="learned")
    return BoostTrace(mode, pool, Optimal(), initial, rows, signs, states, halt)


class ReferenceNodeMemo:
    """The learner's node memo before both children of a split were scored
    in one pass, kept as the reference with `reference_grow`: a node's
    lists, keyed by its split path, with no bound."""

    def __init__(self, ds):
        self.ds = ds
        self.root = reference_node_lists(np.arange(ds.n), *ds.presort)
        self.lists = {}

    def child(self, path, parent, feature, threshold, side):
        key = (path, feature, threshold, side)
        if key not in self.lists:
            members, order, vals, _ = parent
            go = self.ds.x[:, feature] <= threshold
            if side:
                go = ~go
            in_lists = go[order]
            m = self.ds.m
            self.lists[key] = reference_node_lists(
                members[go[members]], order[in_lists].reshape(m, -1), vals[in_lists].reshape(m, -1)
            )
        return key, self.lists[key]


def reference_node_lists(members, order, vals):
    cut = vals[:, :-1] < vals[:, 1:]
    return members, order, vals, cut if cut.any() else None


def reference_score_node(wy, members, order, vals, cut):
    """One node scored on its own: the learner's `_score_node` before the
    batched pass."""
    if cut is None:
        return None
    base = abs(float(wy[members].sum()))
    prefix = wy[order].cumsum(axis=1)
    left = prefix[:, :-1]
    scores = np.where(cut, np.abs(left) + np.abs(prefix[:, -1:] - left), -np.inf)
    gains = scores.max(axis=1) - base
    f = int(gains.argmax())
    if not gains[f] > 0:
        return None
    p = int(scores[f].argmax())
    lo, hi = float(vals[f, p]), float(vals[f, p + 1])
    threshold = lo / 2 + hi / 2
    if not lo <= threshold < hi:
        threshold = lo
    return float(gains[f]), f, threshold


def reference_grow(wy, memo, max_depth, max_leaves):
    """The learner's `_grow` before the batched pass: every open leaf scored
    on its own, the first time it is a candidate."""
    splits = {}
    next_id = 1
    leaves = {0: (0, (), memo.root)}
    candidates = {}
    while len(leaves) < max_leaves:
        best_leaf = None
        best_split = None
        for leaf_id in sorted(leaves):
            depth, _, lists = leaves[leaf_id]
            if depth >= max_depth:
                continue
            if leaf_id not in candidates:
                candidates[leaf_id] = reference_score_node(wy, *lists)
            found = candidates[leaf_id]
            if found is None:
                continue
            if best_split is None or found[0] > best_split[0]:
                best_leaf, best_split = leaf_id, found
        if best_leaf is None:
            break
        _, feature, threshold = best_split
        depth, path, lists = leaves.pop(best_leaf)
        for side in (0, 1):
            leaves[next_id + side] = (depth + 1, *memo.child(path, lists, feature, threshold, side))
        splits[best_leaf] = (feature, threshold, next_id, next_id + 1)
        next_id += 2
    preds = np.empty(len(wy), dtype=np.int64)
    labels = {}
    for leaf_id, (_, _, (members, *_)) in leaves.items():
        labels[leaf_id] = 1 if wy[members].sum() >= 0 else -1
        preds[members] = labels[leaf_id]
    if float(np.dot(wy, preds)) < 0:
        return splits, {leaf_id: -label for leaf_id, label in labels.items()}, -preds
    return splits, labels, preds


def assert_same_growth(grown, expected, case=None):
    """Equal splits (thresholds bit for bit), labels and predictions."""
    (splits, labels, preds), (ref_splits, ref_labels, ref_preds) = grown, expected
    assert splits == ref_splits and labels == ref_labels, case
    assert preds.dtype == ref_preds.dtype and np.array_equal(preds, ref_preds), case
    for (_, threshold, *_), (_, ref_threshold, *_) in zip(splits.values(), ref_splits.values()):
        assert np.float64(threshold).tobytes() == np.float64(ref_threshold).tobytes(), case


@pytest.fixture()
def memos(monkeypatch):
    """Watches every split memo: weak references to the memos made, and the
    counts of lookups and evictions. After every lookup, a memo's byte
    count must be the bytes of the arrays it holds, and within its budget
    unless it holds a single split."""
    watch = {"made": [], "lookups": 0, "evictions": 0}
    init, split = learners._SplitMemo.__init__, learners._SplitMemo.split

    def tracked_init(self, ds):
        init(self, ds)
        watch["made"].append(weakref.ref(self))

    def checked_split(self, *args):
        oldest = next(iter(self.splits), None)
        found = split(self, *args)
        assert self.nbytes == held_bytes(self)
        assert self.nbytes <= self.budget or len(self.splits) == 1
        watch["lookups"] += 1
        watch["evictions"] += oldest is not None and oldest not in self.splits
        return found

    monkeypatch.setattr(learners._SplitMemo, "__init__", tracked_init)
    monkeypatch.setattr(learners._SplitMemo, "split", checked_split)
    return watch


def held_bytes(memo):
    """The bytes of the arrays a split memo holds."""
    return sum(
        a.nbytes for children in memo.splits.values() for a in (*children.members, children.ids, children.cut) if a is not None
    )


def released(watch):
    """True when no memo the watch saw is still referenced."""
    return all(ref() is None for ref in watch["made"])


def random_weights(rng, n):
    """Float weights as a plain list, or an exact Fraction WeightVector;
    uniform now and then, so that cut scores tie."""
    kind = rng.randrange(3)
    if kind == 0:
        return uniform(n)
    if kind == 1:
        raw = [rng.randint(1, 20) for _ in range(n)]
        total = sum(raw)
        return WeightVector(tuple(Fraction(v, total) for v in raw))
    raw = [rng.random() + 0.01 for _ in range(n)]
    total = sum(raw)
    return [v / total for v in raw]


class TestLoadCsv:
    def test_iris_shape(self):
        ds = load_csv(IRIS, "species", "setosa")
        assert (ds.n, ds.m) == (150, 4)
        assert sum(1 for label in ds.y if label == 1) == 50
        assert ds.feature_names == (
            "sepal_length",
            "sepal_width",
            "petal_length",
            "petal_width",
        )
        assert ds.provenance["dropped_rows"] == 0

    def test_missing_label_column(self):
        with pytest.raises(ValueError, match="no column"):
            load_csv(IRIS, "flavor", "setosa")

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single-class"):
            load_csv(IRIS, "species", "rose")

    def test_bad_rows_dropped_and_counted(self, tmp_path):
        path = tmp_path / "holes.csv"
        path.write_text("a,b,label\n1,2,x\n1,oops,y\n3,4,y\n")
        with pytest.warns(UserWarning, match="dropped 1 rows"):
            ds = load_csv(str(path), "label", "x")
        assert ds.n == 2
        assert ds.provenance["dropped_rows"] == 1

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = tmp_path / "words.csv"
        path.write_text("a,b,label\nred,2,x\nblue,4,y\n")
        with pytest.raises(ValueError, match="not numeric"):
            load_csv(str(path), "label", "x")

    def test_non_finite_cells_dropped(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a,b,label\n1,2,x\ninf,3,y\n2,nan,y\n3,-inf,x\n4,5,y\n")
        with pytest.warns(UserWarning, match="dropped 3 rows"):
            ds = load_csv(str(path), "label", "x")
        assert ds.x.tolist() == [[1.0, 2.0], [4.0, 5.0]]
        assert ds.provenance["dropped_rows"] == 3

    def test_all_nan_column_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("a,b,label\n1,nan,x\n2,NaN,y\n")
        with pytest.raises(ValueError, match="'b' is not numeric"):
            load_csv(str(path), "label", "x")

    def test_byte_order_mark_label_column(self, tmp_path):
        # "CSV UTF-8" as spreadsheet programs save it: a byte-order mark,
        # then the header's first cell
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufefflabel,x\nb,1\na,2\nb,3\n".encode("utf-8"))
        ds = load_csv(str(path), "label", "b")
        assert ds.y == (1, -1, 1) and ds.feature_names == ("x",)

    def test_byte_order_mark_feature_name(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffx,label\n1,b\n2,a\n".encode("utf-8"))
        ds = load_csv(str(path), "label", "b")
        assert ds.feature_names == ("x",) and ds.x.tolist() == [[1.0], [2.0]]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(str(path), "label", "x")


class TestSample:
    def test_size_and_determinism(self):
        ds = load_csv(IRIS, "species", "versicolor")
        a = sample(ds, 50, seed=42)
        b = sample(ds, 50, seed=42)
        assert a.n == 50
        assert np.array_equal(a.x, b.x) and a.y == b.y
        assert a.provenance["sample_size"] == 50 and a.provenance["seed"] == 42

    def test_different_seed_differs(self):
        ds = load_csv(IRIS, "species", "versicolor")
        a = sample(ds, 50, seed=1)
        b = sample(ds, 50, seed=2)
        assert not np.array_equal(a.x, b.x)

    def test_full_size_identity(self):
        ds = load_csv(IRIS, "species", "versicolor")
        full = sample(ds, ds.n, seed=0)
        assert np.array_equal(full.x, ds.x) and full.y == ds.y

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_single_class_sample_rejected(self, seed):
        # two rows of Iris versicolor draw two negatives with these seeds
        ds = load_csv(IRIS, "species", "versicolor")
        with pytest.raises(ValueError, match="single-class"):
            sample(ds, 2, seed=seed)

    def test_oversample_rejected(self):
        ds = load_csv(IRIS, "species", "versicolor")
        with pytest.raises(ValueError, match="exceeds"):
            sample(ds, ds.n + 1, seed=0)


class TestTrainTree:
    def test_separable_single_feature_stump(self):
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [-1, -1, 1, 1])
        tree = train_tree(ds, uniform(4), max_depth=3, max_leaves=4)
        assert tree.depth == 1 and tree.n_leaves == 2
        assert tree_accuracy(tree, ds, [0.25] * 4) == pytest.approx(1.0)
        assert tree.root.threshold == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (1.0000000000000002, 1.0000000000000004),  # adjacent: (lo + hi) / 2 rounds to hi
            (1e308, 1.5e308),  # lo + hi overflows to inf
        ],
    )
    def test_threshold_separates_the_cut(self, lo, hi):
        ds = make_dataset([[lo], [hi]], [1, -1])
        tree = train_tree(ds, uniform(2), max_depth=1, max_leaves=2)
        assert lo <= tree.root.threshold < hi
        assert dichotomy_of(tree, ds).entries == (1, 1)

    def test_stump_bounds(self):
        ds = make_dataset([[0.0], [1.0], [2.0]], [1, -1, 1])
        tree = train_tree(ds, uniform(3), max_depth=1, max_leaves=2)
        assert tree.n_leaves <= 2 and tree.depth <= 1

    def test_concentrated_weight_point_classified(self):
        rng = random.Random(21)
        for _ in range(25):
            n = 6
            x = [[rng.random(), rng.random()] for _ in range(n)]
            y = [rng.choice((1, -1)) for _ in range(n)]
            if len(set(y)) == 1:
                continue
            heavy = rng.randrange(n)
            w = [Fraction(1, 100)] * n
            w[heavy] = Fraction(1) - Fraction(n - 1, 100)
            ds = make_dataset(x, y)
            weights = WeightVector(tuple(w))
            tree = train_tree(ds, weights, max_depth=2, max_leaves=4)
            assert int(tree.predict(ds.x)[heavy]) == y[heavy]
            floats = np.asarray(weights.components, dtype=np.float64)
            acc = tree_accuracy(tree, ds, floats)
            assert acc >= brute_force_best_stump_accuracy(ds, floats) - 1e-12

    def test_deterministic(self):
        ds = load_csv(IRIS, "species", "versicolor")
        w = uniform(ds.n)
        assert train_tree(ds, w, 3, 4) == train_tree(ds, w, 3, 4)

    def test_never_below_best_stump_fuzz(self):
        rng = random.Random(22)
        for _ in range(20):
            n = rng.randint(4, 12)
            m = rng.randint(1, 3)
            x = [[rng.randint(0, 5) for _ in range(m)] for _ in range(n)]
            y = [rng.choice((1, -1)) for _ in range(n)]
            raw = [rng.random() + 0.01 for _ in range(n)]
            total = sum(raw)
            weights = [v / total for v in raw]
            ds = make_dataset(x, y)
            tree = train_tree(ds, weights, max_depth=3, max_leaves=4)
            assert (
                tree_accuracy(tree, ds, weights)
                >= brute_force_best_stump_accuracy(ds, weights) - 1e-12
            )

    def test_degenerate_features_constant(self):
        ds = make_dataset([[1.0], [1.0], [1.0]], [1, -1, 1])
        tree = train_tree(ds, uniform(3), max_depth=3, max_leaves=4)
        assert tree.n_leaves == 1
        assert list(tree.predict(ds.x)) == [1, 1, 1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1e-300])
    def test_weights_validated(self, bad):
        ds = load_csv(IRIS, "species", "versicolor")
        with pytest.raises(ValueError, match="finite and nonnegative"):
            train_tree(ds, [bad] * ds.n, 3, 4)
        weights = [1 / ds.n] * ds.n
        weights[7] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            train_tree(ds, weights, 3, 4)

    @pytest.mark.parametrize("weight", [1e308, 1e307, 2e306])
    def test_weights_whose_sum_overflows(self, weight):
        # 150 finite weights summing past the largest double (3e308 for
        # 2e306) are rejected, and without a numpy overflow warning
        ds = load_csv(IRIS, "species", "versicolor")
        with pytest.raises(ValueError, match="finite sum"):
            train_tree(ds, [weight] * ds.n, 3, 4)

    def test_large_weights_with_a_finite_sum(self):
        # 150 weights of 1e306 sum to 1.5e308 and grow the usual tree
        ds = load_csv(IRIS, "species", "versicolor")
        weights = [1e306] * ds.n
        tree = train_tree(ds, weights, 3, 4)
        assert tree.n_leaves == 4
        assert tree == reference_train_tree(ds, weights, 3, 4)

    def test_zero_weights_allowed(self):
        # float runs underflow to 0.0; -0.0 is zero too
        ds = make_dataset([[0.0], [1.0], [2.0], [3.0]], [1, -1, 1, -1])
        tree = train_tree(ds, [0.5, 0.0, 0.5, -0.0], 1, 2)
        assert tree == reference_train_tree(ds, [0.5, 0.0, 0.5, -0.0], 1, 2)

    def test_bounds_validated(self):
        ds = make_dataset([[0.0], [1.0]], [1, -1])
        with pytest.raises(ValueError):
            train_tree(ds, uniform(2), 0, 2)


class TestDichotomyOf:
    def test_perfect_classifier(self):
        ds = make_dataset([[0.0], [1.0]], [-1, 1])
        tree = train_tree(ds, uniform(2), 1, 2)
        assert dichotomy_of(tree, ds).entries == (1, 1)

    def test_all_wrong_hypothesis_rejected(self):
        # a dichotomy with no correct point is not representable; flip the tree
        ds = make_dataset([[0.0], [1.0]], [-1, 1])
        wrong = TreeHypothesis(
            TreeNode(feature=0, threshold=0.5, left=TreeNode(label=1), right=TreeNode(label=-1)),
            1,
            2,
        )
        with pytest.raises(ValueError, match="at least one"):
            dichotomy_of(wrong, ds)
        # one mistake, one hit is fine
        half = make_dataset([[0.0], [1.0]], [1, 1])
        lopsided = TreeHypothesis(
            TreeNode(feature=0, threshold=0.5, left=TreeNode(label=-1), right=TreeNode(label=1)),
            1,
            2,
        )
        assert dichotomy_of(lopsided, half).entries == (-1, 1)

    def test_edge_nonnegative_fuzz(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(3, 10)
            x = [[rng.random()] for _ in range(n)]
            y = [rng.choice((1, -1)) for _ in range(n)]
            if len(set(y)) == 1:
                continue
            raw = [rng.random() + 0.01 for _ in range(n)]
            total = sum(raw)
            w = WeightVector(tuple(v / total for v in raw))
            ds = make_dataset(x, y)
            tree = train_tree(ds, w, rng.randint(1, 3), rng.randint(2, 5))
            assert edge_dot(w, dichotomy_of(tree, ds)) >= 0


class TestRunOnDataset:
    def test_synthetic3_reproduces_golden_cycle(self):
        ds = load_csv(SYNTH3, "label", "a")
        trace = run_on_dataset(ds, 1, 2, 400, "float")
        assert trace.halt is None and len(trace) == 400
        report = detect_cycle(trace, tol=1e-9, min_repeats=3)
        assert report is not None
        assert report.edge_period == 1
        assert abs(float(report.edge_values[0]) - 0.6180339887498949) < 1e-9
        assert report.periodic_learning_holds

    def test_synthetic3_deeper_tree_is_perfect(self):
        # at uniform weights no split improves, but one boosting step later the
        # depth-2 tree shatters the three values and the run halts
        ds = load_csv(SYNTH3, "label", "a")
        trace = run_on_dataset(ds, 3, 4, 10, "float")
        assert trace.halt == "perfect_classification"
        assert len(trace) == 1

    def test_single_iteration(self):
        ds = load_csv(IRIS, "species", "versicolor")
        trace = run_on_dataset(ds, 3, 4, 1, "float")
        assert len(trace) == 1
        assert detect_cycle(trace, min_repeats=3) is None

    def test_pool_accumulates_distinct_rows(self):
        ds = load_csv(SYNTH3, "label", "a")
        trace = run_on_dataset(ds, 1, 2, 50, "float")
        rows = {s.eta.entries for s in trace.steps}
        assert {row.entries for row in trace.pool.rows} == rows
        for s in trace.steps:
            assert trace.pool[s.row] == s.eta

    def test_exact_mode_runs(self):
        ds = load_csv(SYNTH3, "label", "a")
        trace = run_on_dataset(ds, 1, 2, 8, "exact")
        assert trace.mode == "exact"
        assert all(isinstance(s.edge, Fraction) for s in trace.steps)
        assert sum(trace.steps[-1].weights_after) == 1

    def test_setosa_separable_halts(self):
        ds = load_csv(IRIS, "species", "setosa")
        trace = run_on_dataset(ds, 3, 4, 5, "float")
        assert trace.halt == "perfect_classification"


class TestDataset:
    def test_x_is_a_read_only_copy(self):
        source = np.array([[0.0], [1.0]])
        ds = Dataset(x=source, y=(1, -1), feature_names=("f0",))
        source[0, 0] = 5.0
        assert ds.x[0, 0] == 0.0
        assert not ds.x.flags.writeable
        with pytest.raises(ValueError):
            ds.x[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_feature_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            make_dataset([[1.0], [bad], [2.0]], [1, -1, 1])

    def test_presort_is_the_stable_argsort(self):
        ds = make_dataset([[2.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 1.0]], [1, -1, 1, -1])
        order, vals = ds.presort
        assert order.tolist() == [[3, 1, 0, 2], [2, 0, 1, 3]]
        assert vals.tolist() == [[0.0, 1.0, 2.0, 2.0], [0.0, 1.0, 1.0, 1.0]]
        assert ds.presort[0] is order
        assert sample(ds, 3, seed=0).presort[0].shape == (2, 3)


class TestPresortedLearnerMatchesReference:
    """The presorted learner must return the very tree the per-node sorting
    reference returns: same features, thresholds and labels, bit for bit."""

    def test_random_datasets(self):
        rng = random.Random(31)
        for case in range(600):
            n = rng.randint(1, 60)
            m = rng.randint(1, 5)
            if case % 2:
                x = [[rng.randint(0, 4) for _ in range(m)] for _ in range(n)]
            else:
                x = [[rng.uniform(-3, 3) for _ in range(m)] for _ in range(n)]
            ds = make_dataset(x, [rng.choice((1, -1)) for _ in range(n)])
            w = random_weights(rng, n)
            depth, leaves = rng.randint(1, 5), rng.randint(1, 16)
            tree = train_tree(ds, w, depth, leaves)
            reference = reference_train_tree(ds, w, depth, leaves)
            assert tree == reference, case
            assert np.array_equal(tree.predict(ds.x), reference.predict(ds.x))

    def test_sign_flip_on_rounding(self):
        # one leaf whose weighted labels cancel exactly except for rounding:
        # its label comes from one sum and the flip from a dot product over
        # another summation order, so on some cases (which depend on the
        # numpy build) the tree is flipped
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(8, 40)
            y = [rng.choice((1, -1)) for _ in range(n - 1)]
            w = [rng.random() + 0.01 for _ in range(n - 1)]
            s = sum(wi * yi for wi, yi in zip(w, y))
            ds = make_dataset([[0.0]] * n, y + [-1 if s > 0 else 1])
            w.append(abs(s))
            assert train_tree(ds, w, 1, 2) == reference_train_tree(ds, w, 1, 2)

    @pytest.mark.parametrize(
        "path, label, positive, bounds, iters",
        [(IRIS, "species", "versicolor", (3, 4), 1000), (SYNTH3, "label", "a", (1, 2), 400)],
        ids=["iris", "synthetic3"],
    )
    def test_boosting_trace_identical(self, path, label, positive, bounds, iters):
        ds = load_csv(path, label, positive)
        expected = dumps_trace(reference_run_on_dataset(ds, *bounds, iters, "float"))
        assert dumps_trace(run_on_dataset(ds, *bounds, iters, "float")) == expected


class TestBatchedScorerMatchesReference:
    """`_grow` scores both children of a split in one padded pass and keeps
    each scored leaf's sum for its label. It must return what the
    node-at-a-time reference returns: the same splits, labels and
    predictions, bit for bit, also when one memo serves many weights."""

    @staticmethod
    def weight_vectors(rng, y):
        """Positive weights; uniform ones (tied cut scores); zero weights
        on the y = -1 points (weighted labels of -0.0); subnormal ones."""
        n = len(y)
        raw = np.array([rng.random() + 0.01 for _ in range(n)])
        zeroed = np.where(y < 0, 0.0, raw)
        subnormal = np.array([rng.randint(1, 9) * 5e-324 for _ in range(n)])
        mixed = np.where(raw > 0.5, raw / raw.sum(), subnormal)
        return [raw / raw.sum(), np.full(n, 1 / n), zeroed, subnormal, mixed]

    @staticmethod
    def child_kinds(memo):
        """Which kinds of child the memo's splits made: of one point, and
        with no cut beside a sibling that has one."""
        kinds = set()
        m = memo.ds.m
        for children in memo.splits.values():
            sizes = [len(members) for members in children.members]
            kinds.update("one point" for size in sizes if size == 1)
            if children.cut is not None:
                has_cut = [children.cut[c * m : (c + 1) * m].any() for c in (0, 1)]
                kinds.update("no cut" for c in (0, 1) if not has_cut[c] and sizes[c] > 1)
        return kinds

    def test_random_datasets(self):
        rng = random.Random(51)
        kinds = set()
        for case in range(250):
            n, m = rng.randint(1, 40), rng.randint(1, 4)
            if case % 3 == 0:  # few distinct values: tied values, children with no cut
                x = [[rng.randint(0, 2) for _ in range(m)] for _ in range(n)]
            elif case % 3 == 1:
                x = [[rng.uniform(-3, 3) for _ in range(m)] for _ in range(n)]
            else:  # one far point per feature, so that a child holds it alone
                x = [[rng.uniform(0, 1) if i else 50.0 for _ in range(m)] for i in range(n)]
            ds = make_dataset(x, [rng.choice((1, -1)) for _ in range(n)])
            y = np.asarray(ds.y, dtype=np.float64)
            depth, leaves = rng.randint(1, 5), rng.randint(1, 12)
            memo, reference = learners._SplitMemo(ds), ReferenceNodeMemo(ds)
            for w in self.weight_vectors(rng, y):
                expected = reference_grow(w * y, reference, depth, leaves)
                assert_same_growth(learners._grow(w * y, memo, depth, leaves), expected, case)
            kinds |= self.child_kinds(memo)
        assert kinds == {"one point", "no cut"}

    def test_child_with_no_cut(self):
        # the split at 0.75 leaves {0, 0.5} with a cut and four equal values
        # with none
        ds = make_dataset([[0.0], [0.5], [1.0], [1.0], [1.0], [1.0]], [1, 1, -1, -1, -1, -1])
        memo = learners._SplitMemo(ds)
        wy = np.full(ds.n, 1 / 6) * np.asarray(ds.y, dtype=np.float64)
        grown = learners._grow(wy, memo, 3, 4)
        assert_same_growth(grown, reference_grow(wy, ReferenceNodeMemo(ds), 3, 4))
        assert grown[0] == {0: (0, 0.75, 1, 2)} and self.child_kinds(memo) == {"no cut"}

    def test_fraction_weights_through_train_tree(self, monkeypatch):
        grown = []

        def spy(wy, memo, max_depth, max_leaves):
            grown.append((wy, grow(wy, memo, max_depth, max_leaves)))
            return grown[-1][1]

        grow = learners._grow
        monkeypatch.setattr(learners, "_grow", spy)
        rng = random.Random(53)
        for case in range(60):
            n, m = rng.randint(2, 30), rng.randint(1, 3)
            ds = make_dataset([[rng.randint(0, 4) for _ in range(m)] for _ in range(n)], [rng.choice((1, -1)) for _ in range(n)])
            if case % 2:  # a plain sequence may hold zero weights
                raw = [rng.randint(0, 9) for _ in range(n)]
                raw[0] += 1
                weights = [Fraction(v, sum(raw)) for v in raw]
            else:
                raw = [rng.randint(1, 9) for _ in range(n)]
                weights = WeightVector(tuple(Fraction(v, sum(raw)) for v in raw))
            depth, leaves = rng.randint(1, 4), rng.randint(2, 8)
            tree = train_tree(ds, weights, depth, leaves)
            wy, result = grown[-1]
            floats = [float(v) for v in (weights.components if case % 2 == 0 else weights)]
            assert np.array_equal(wy, np.array(floats) * np.asarray(ds.y))
            assert_same_growth(result, reference_grow(wy, ReferenceNodeMemo(ds), depth, leaves), case)
            assert tree == reference_train_tree(ds, weights, depth, leaves), case


class TestMemoizedLoopMatchesReference:
    """`run_on_dataset` grows each step's tree from node lists memoized over
    the run and reads the dichotomy off its leaves. Its traces must dump to
    the bytes of the reference loop's, which fits `reference_train_tree` and
    calls `dichotomy_of` at every step."""

    @pytest.mark.parametrize("bounds", [(1, 2), (2, 3), (3, 4), (4, 8)])
    def test_random_datasets(self, bounds, memos):
        rng = random.Random(41)
        full_runs = 0
        for case in range(8):
            n, m = rng.randint(6, 40), rng.randint(1, 4)
            if case % 2:  # integer features: tied values, and points no tree separates
                x = [[rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
            else:
                x = [[rng.uniform(-3, 3) for _ in range(m)] for _ in range(n)]
            ds = make_dataset(x, [rng.choice((1, -1)) for _ in range(n)])
            trace = run_on_dataset(ds, *bounds, 300, "float")
            assert dumps_trace(trace) == dumps_trace(reference_run_on_dataset(ds, *bounds, 300, "float")), case
            full_runs += len(trace) == 300
        assert full_runs > 0
        assert len(memos["made"]) == 8 and memos["lookups"] > 0 and released(memos)

    def test_iris_virginica_evicts(self, memos):
        # virginica's trees split on more distinct paths than the memo holds
        ds = load_csv(IRIS, "species", "virginica")
        trace = run_on_dataset(ds, 3, 4, 3000, "float")
        assert trace.halt is None and len(trace) == 3000
        assert len(memos["made"]) == 1 and memos["evictions"] > 0 and released(memos)
        assert dumps_trace(trace) == dumps_trace(reference_run_on_dataset(ds, 3, 4, 3000, "float"))

    def test_iris_exact(self, memos):
        ds = load_csv(IRIS, "species", "versicolor")
        text = dumps_trace(run_on_dataset(ds, 3, 4, 12, "exact"))
        assert text == dumps_trace(reference_run_on_dataset(ds, 3, 4, 12, "exact"))
        assert len(memos["made"]) == 1 and released(memos)

    def test_bound_caps_the_bytes(self, monkeypatch):
        # the budget is 256 roots' bytes, or 64 MiB when that is less
        small = learners._SplitMemo(load_csv(IRIS, "species", "versicolor"))
        assert small.budget == learners._MEMO_ROOTS * small.root.nbytes
        rng = np.random.default_rng(0)
        large = learners._SplitMemo(make_dataset(rng.random((20000, 8)), [1, -1] * 10000))
        assert large.budget == learners._MEMO_BYTES < learners._MEMO_ROOTS * large.root.nbytes
        # filled past its budget, a memo evicts the oldest splits down to it
        monkeypatch.setattr(learners, "_MEMO_BYTES", 2 << 20)
        ds = make_dataset(rng.random((1000, 4)), [1, -1] * 500)
        memo = learners._SplitMemo(ds)
        assert memo.budget == 2 << 20
        keys = []
        for k in range(40):
            key, children = memo.split((), memo.root, 0, k % 4, 0.02 * (k + 1))
            keys.append(key)
            assert memo.nbytes == held_bytes(memo) <= memo.budget
            assert [len(members) for members in children.members] == [
                int(np.count_nonzero(ds.x[:, k % 4] <= 0.02 * (k + 1))),
                int(np.count_nonzero(ds.x[:, k % 4] > 0.02 * (k + 1))),
            ]
        assert list(memo.splits) == keys[-len(memo.splits) :] and len(memo.splits) < 40

    def test_one_split_beyond_the_budget_is_kept(self, monkeypatch):
        monkeypatch.setattr(learners, "_MEMO_BYTES", 1)
        ds = load_csv(IRIS, "species", "versicolor")
        memo = learners._SplitMemo(ds)
        for feature in range(ds.m):
            key, _ = memo.split((), memo.root, 0, feature, 3.0)
            assert list(memo.splits) == [key] and memo.nbytes == held_bytes(memo) > memo.budget
        wy = np.full(ds.n, 1 / ds.n) * np.asarray(ds.y, dtype=np.float64)
        assert_same_growth(learners._grow(wy, memo, 3, 4), reference_grow(wy, ReferenceNodeMemo(ds), 3, 4))
