import random
from fractions import Fraction

import pytest

from boostcycles import (
    HypothesisPool,
    MistakeDichotomy,
    MistakeLattice,
    WeightVector,
    check_periodic_learning,
    edge_dot,
    uniform_weights,
)
from boostcycles.simplex import DimensionMismatch


def F(p, q=1):
    return Fraction(p, q)


def wv(*values):
    return WeightVector(tuple(Fraction(v) for v in values))


def eta(*signs):
    return MistakeDichotomy(tuple(signs))


class TestWeightVector:
    def test_exact_must_sum_to_one(self):
        wv("1/2", "1/4", "1/4")
        with pytest.raises(ValueError, match="sum"):
            wv("1/2", "1/4", "1/8")

    def test_strict_positivity(self):
        with pytest.raises(ValueError, match="positive"):
            WeightVector((Fraction(0), Fraction(1)))
        with pytest.raises(ValueError):
            WeightVector((0.5, -0.1, 0.6))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WeightVector((float("nan"), 0.5, 0.5))
        with pytest.raises(ValueError, match="sum"):
            WeightVector((float("inf"), 0.5, 0.5))

    def test_float_tolerance(self):
        WeightVector((0.5, 0.25, 0.25 + 1e-13))
        with pytest.raises(ValueError):
            WeightVector((0.5, 0.25, 0.25 + 1e-9))

    def test_uniform(self):
        assert uniform_weights(3, "exact").components == (F(1, 3),) * 3
        assert uniform_weights(4, "float").components == (0.25,) * 4
        with pytest.raises(ValueError):
            uniform_weights(3, "decimal")


class TestMistakeDichotomy:
    def test_entries_validated(self):
        with pytest.raises(ValueError):
            eta(1, 0, -1)
        with pytest.raises(ValueError, match="at least one"):
            eta(-1, -1, -1)
        assert eta(1, 1, 1).entries == (1, 1, 1)

    def test_string_round_trip(self):
        d = MistakeDichotomy.from_string("+--+")
        assert d.entries == (1, -1, -1, 1)
        assert d.to_string() == "+--+"
        assert d.misclassified() == (1, 2)
        with pytest.raises(ValueError):
            MistakeDichotomy.from_string("+x-")


class TestHypothesisPool:
    def test_dedup_keeps_first_occurrence(self):
        pool = HypothesisPool.from_signs([(1, -1, 1), (1, 1, -1), (1, -1, 1)])
        assert len(pool) == 2
        assert pool[0].entries == (1, -1, 1)
        assert pool[1].entries == (1, 1, -1)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            HypothesisPool.from_signs([(1, -1), (1, 1, -1)])

    def test_matrix_cached_read_only(self):
        pool = HypothesisPool.from_signs([(1, -1, 1), (1, -1, 1), (-1, 1, 1)])
        m = pool.matrix
        assert m is pool.matrix
        assert m.dtype.name == "float64" and m.tolist() == [[1, -1, 1], [-1, 1, 1]]
        with pytest.raises(ValueError):
            m[0, 0] = -1.0

    def test_n_points(self):
        pool = HypothesisPool.from_signs([(-1, 1, 1)])
        assert pool.n_points == 3


class TestEdge:
    def test_dot_examples(self):
        assert edge_dot(wv("1/3", "1/3", "1/3"), eta(1, 1, -1)) == F(1, 3)
        assert edge_dot(wv("1/2", "1/4", "1/4"), eta(1, 1, 1)) == 1
        assert edge_dot(wv("1/2", "1/4", "1/4"), eta(-1, 1, 1)) == 0

    def test_dot_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            edge_dot(wv("1/2", "1/2"), eta(1, 1, -1))


def random_weights(rng, n):
    raw = [rng.randint(1, 50) for _ in range(n)]
    total = sum(raw)
    return WeightVector(tuple(Fraction(v, total) for v in raw))


def test_edge_formulas_agree_exactly_fuzz():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(1, 9)
        w = random_weights(rng, n)
        signs = tuple(rng.choice((1, -1)) for _ in range(n - 1)) + (1,)
        d = MistakeDichotomy(signs)
        assert edge_dot(w, d) == 1 - 2 * sum(w[j] for j in d.misclassified())


def test_edge_dot_antisymmetric_fuzz():
    rng = random.Random(12)
    for _ in range(1000):
        n = rng.randint(2, 9)
        w = random_weights(rng, n)
        # both signs present so the flip is also a valid dichotomy
        signs = [rng.choice((1, -1)) for _ in range(n - 2)] + [1, -1]
        rng.shuffle(signs)
        d = MistakeDichotomy(tuple(signs))
        flipped = MistakeDichotomy(tuple(-s for s in signs))
        assert edge_dot(w, flipped) == -edge_dot(w, d)


class TestNabla:
    def test_minimal_example_lattice_holds(self):
        # the 3-point lattice whose columns rotate through the three
        # one-mistake dichotomies
        cols = [(1, 1, -1), (1, -1, 1), (-1, 1, 1)] * 2
        lattice = MistakeLattice(tuple(MistakeDichotomy(c) for c in cols))
        assert check_periodic_learning(lattice) is None

    def test_double_mistake_reported(self):
        cols = [(1, 1, -1), (1, -1, 1), (1, -1, 1), (-1, 1, 1)]
        lattice = MistakeLattice(tuple(MistakeDichotomy(c) for c in cols))
        assert check_periodic_learning(lattice) == (1, 1)

    def test_repeated_column(self):
        lattice = MistakeLattice(
            (MistakeDichotomy((-1, 1, 1)), MistakeDichotomy((-1, 1, 1)))
        )
        assert check_periodic_learning(lattice) == (0, 0)

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            check_periodic_learning(MistakeLattice((MistakeDichotomy((1, -1)),)))

    def test_earliest_violation_order(self):
        # two violations: row 2 at t=0 and row 0 at t=1; earliest iteration wins
        cols = [(1, 1, -1), (-1, 1, -1), (-1, 1, 1)]
        lattice = MistakeLattice(tuple(MistakeDichotomy(c) for c in cols))
        assert check_periodic_learning(lattice) == (2, 0)
