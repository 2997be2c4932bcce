import importlib
import math
import random
from fractions import Fraction

import pytest

from boostcycles import (
    GOLDEN,
    FareyWord,
    MoebiusMatrix,
    QuadraticIrrational,
    cf_expansion,
    enumerate_orbits,
    farey,
    gauss,
    inv_L,
    inv_R,
    necklaces,
    orbit_values,
    periodic_point,
    word_matrix,
)
from boostcycles.cli import main
from boostcycles.farey import (
    DegenerateWord,
    L_MATRIX,
    R_MATRIX,
    OrbitRecord,
    apply_word,
    square_free_decompose,
)

QI = QuadraticIrrational
SQRT2_MINUS_1 = QI(Fraction(-1), Fraction(1), 2)
INV_SQRT2 = QI(Fraction(0), Fraction(1, 2), 2)


def W(text):
    return FareyWord.from_string(text)


class TestSquareFree:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1, 1)), (4, (2, 1)), (8, (2, 2)), (12, (2, 3)), (45, (3, 5)), (49, (7, 1)), (0, (0, 1))],
    )
    def test_decompose(self, n, expected):
        assert square_free_decompose(n) == expected

    def test_fuzz_reconstruction(self):
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randint(1, 10**6)
            s, d = square_free_decompose(n)
            assert s * s * d == n
            for p in range(2, 40):
                assert d % (p * p) != 0


class TestQuadraticIrrational:
    def test_canonicalization(self):
        assert QI(Fraction(1), Fraction(1), 12) == QI(Fraction(1), Fraction(2), 3)
        assert QI(Fraction(1, 2), Fraction(3), 1) == QI(Fraction(7, 2), Fraction(0), 1)
        assert QI(Fraction(2, 3), Fraction(0), 7) == Fraction(2, 3)

    def test_arithmetic_golden(self):
        # x^2 + x - 1 = 0 for the golden fixed point
        assert GOLDEN * GOLDEN + GOLDEN - 1 == 0
        assert 1 / GOLDEN == GOLDEN + 1

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError, match="radicand"):
            QI(Fraction(0), Fraction(1), 2) + QI(Fraction(0), Fraction(1), 3)

    def test_rational_mixes_with_anything(self):
        assert QI(Fraction(1), Fraction(0), 3) + SQRT2_MINUS_1 == QI(Fraction(0), Fraction(1), 2)

    def test_exact_comparisons(self):
        assert GOLDEN > Fraction(1, 2)
        assert GOLDEN < 1
        assert SQRT2_MINUS_1 < Fraction(1, 2)
        # sign analysis with opposite-sign parts either way
        assert QI(Fraction(-7, 5), Fraction(1), 2).sign() == 1
        assert QI(Fraction(3, 2), Fraction(-1), 2).sign() == 1
        assert QI(Fraction(7, 5), Fraction(-1), 2).sign() == -1
        assert QI(Fraction(-3, 2), Fraction(1), 2).sign() == -1

    def test_floor(self):
        assert math.floor(GOLDEN) == 0
        assert math.floor(1 / GOLDEN) == 1
        assert math.floor(QI(Fraction(3, 2), Fraction(1, 2), 5)) == 2
        assert math.floor(-GOLDEN) == -1

    def test_division_and_inverse(self):
        x = QI(Fraction(2, 3), Fraction(1, 5), 7)
        assert x * x.inverse() == 1
        assert (x / x) == 1
        with pytest.raises(ZeroDivisionError):
            QI(Fraction(0), Fraction(0), 5).inverse()

    def test_str_and_decimal(self):
        assert str(GOLDEN) == "(-1/2+1/2*sqrt(5))"
        assert str(QI(Fraction(3, 4), Fraction(0), 5)) == "3/4"
        assert GOLDEN.decimal(20).startswith("0.6180339887498948482")
        assert len(GOLDEN.decimal(50).replace("0.", "")) == 50

    def test_comparison_matches_sign_of_difference(self):
        # comparisons take the sign straight from the parts of the
        # difference; the reference builds the difference and takes its sign
        rng = random.Random(5)

        def draw(d):
            frac = lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 12))  # noqa: E731
            return QI(frac(), frac() if rng.random() < 0.8 else 0, d)

        for _ in range(3000):
            d = rng.choice((2, 3, 5, 8, 12))
            x, y = draw(d), draw(d)
            other = y if rng.random() < 0.8 else y.a
            ref = (x - other).sign()
            assert (x < other, x <= other, x > other, x >= other) == (ref < 0, ref <= 0, ref > 0, ref >= 0)
        x = QI(Fraction(1, 3), Fraction(1, 2), 5)
        assert x < x + QI.sqrt(5) * Fraction(1, 10**30) and not x < x
        with pytest.raises(ValueError, match="mixed radicands"):
            QI.sqrt(2) < QI.sqrt(3)

    def test_decimal_matches_direct_sqrt(self):
        import decimal

        for d in (2, 5, 7, 13):
            x = QI(Fraction(-3, 7), Fraction(5, 11), d)
            for digits in (5, 30, 50):
                with decimal.localcontext() as ctx:
                    ctx.prec = digits + 10
                    val = decimal.Decimal(-3) / 7 + decimal.Decimal(5) / 11 * decimal.Decimal(d).sqrt()
                    ctx.prec = digits
                    assert x.decimal(digits) == str(+val)

    def test_hash_consistency(self):
        assert hash(QI(Fraction(1, 2), Fraction(0), 7)) == hash(Fraction(1, 2))
        assert len({GOLDEN, QI(Fraction(-1, 2), Fraction(1, 2), 5)}) == 1


class TestMaps:
    def test_farey_branches(self):
        assert farey(Fraction(0)) == 0
        assert farey(Fraction(1, 2)) == 1  # boundary belongs to the right branch
        assert farey(Fraction(1, 4)) == Fraction(1, 3)
        assert farey(Fraction(3, 4)) == Fraction(1, 3)
        with pytest.raises(ValueError):
            farey(Fraction(5, 4))

    def test_farey_fixes_golden_exactly(self):
        assert farey(GOLDEN) == GOLDEN

    def test_gauss_fixes_golden_exactly(self):
        assert gauss(GOLDEN) == GOLDEN

    def test_gauss_at_half_and_domain(self):
        assert gauss(Fraction(1, 2)) == 0
        with pytest.raises(ValueError):
            gauss(Fraction(0))
        with pytest.raises(ValueError):
            gauss(Fraction(1))

    def test_gauss_equals_farey_on_right_branch(self):
        rng = random.Random(5)
        for _ in range(300):
            x = Fraction(rng.randint(1, 999), 1000)
            if not Fraction(1, 2) < x < 1:
                continue
            assert gauss(x) == farey(x)

    def test_inverse_identities_fuzz(self):
        rng = random.Random(6)
        for _ in range(1000):
            x = Fraction(rng.randint(0, 1000), 1000)
            assert farey(inv_L(x)) == x
            assert farey(inv_R(x)) == x

    def test_inv_R_examples(self):
        assert inv_R(Fraction(1)) == Fraction(1, 2)
        x = 1.0
        for _ in range(60):
            x = inv_R(x)
        assert abs(x - float(GOLDEN)) < 1e-12

    def test_two_cycle_inverses_exact(self):
        assert inv_L(INV_SQRT2) == SQRT2_MINUS_1
        assert inv_R(SQRT2_MINUS_1) == INV_SQRT2

    def test_inv_R_contraction(self):
        rng = random.Random(9)
        for _ in range(300):
            x = Fraction(rng.randint(1, 1000), 1000)
            y = Fraction(rng.randint(1, 1000), 1000)
            if x == y:
                continue
            assert abs(inv_R(x) - inv_R(y)) < abs(x - y)


class TestWords:
    def test_validation(self):
        with pytest.raises(ValueError):
            FareyWord(())
        with pytest.raises(ValueError):
            W("RLX")

    def test_canonical_rotation(self):
        assert str(W("RL").canonical()) == "LR"
        assert str(W("RRL").canonical()) == "LRR"
        assert str(W("LLR").canonical()) == "LLR"

    def test_degenerate_and_primitive(self):
        assert W("LLL").degenerate
        assert not W("LRL").degenerate
        assert W("RLRL").primitive_root() == W("RL")
        assert not W("RLRL").primitive
        assert W("RLL").primitive


class TestWordMatrix:
    def test_generators(self):
        assert L_MATRIX == MoebiusMatrix(1, 0, 1, 1)
        assert R_MATRIX == MoebiusMatrix(0, 1, 1, 1)

    def test_single_letters(self):
        assert word_matrix(W("R")) == MoebiusMatrix(0, 1, 1, 1)
        assert word_matrix(W("L")) == MoebiusMatrix(1, 0, 1, 1)

    def test_composition_order(self):
        # apply R then L: matrix product L*R computed by hand
        assert word_matrix(W("RL")) == MoebiusMatrix(0, 1, 1, 2)
        assert word_matrix(W("LR")) == MoebiusMatrix(1, 1, 2, 1)

    def test_all_L_lower_triangular(self):
        m = word_matrix(W("LLLL"))
        assert m.b == 0 and m.a == 1 and m.d == 1 and m.c == 4

    def test_determinant_and_positivity_fuzz(self):
        rng = random.Random(10)
        for _ in range(300):
            k = rng.randint(1, 12)
            word = FareyWord(tuple(rng.choice("LR") for _ in range(k)))
            m = word_matrix(word)
            assert m.det() in (1, -1)
            assert min(m.a, m.b, m.c, m.d) >= 0

    def test_matrix_matches_function_composition(self):
        rng = random.Random(13)
        for _ in range(200):
            k = rng.randint(1, 8)
            word = FareyWord(tuple(rng.choice("LR") for _ in range(k)))
            x = Fraction(rng.randint(1, 99), 100)
            assert word_matrix(word).apply(x) == apply_word(word, x)


class TestPeriodicPoint:
    def test_golden_fixed_point(self):
        assert periodic_point(W("R")) == GOLDEN

    def test_two_cycle(self):
        x = periodic_point(W("RL"))
        assert x == SQRT2_MINUS_1
        assert inv_R(x) == INV_SQRT2
        assert inv_L(INV_SQRT2) == x

    def test_power_word_collapses(self):
        assert periodic_point(W("RR")) == GOLDEN
        assert len(W("RR").primitive_root()) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateWord):
            periodic_point(W("LLL"))

    def test_orbit_closure_and_conjugate_fuzz(self):
        rng = random.Random(14)
        for _ in range(150):
            k = rng.randint(1, 6)
            letters = tuple(rng.choice("LR") for _ in range(k))
            word = FareyWord(letters)
            if word.degenerate:
                continue
            x = periodic_point(word)
            assert 0 < x <= 1
            conj = x.conjugate()
            assert not (conj > 0 and conj <= 1)
            assert apply_word(word, x) == x


def rotation_classes_bruteforce(k):
    """Independent enumeration oracle: canonical rotations via raw strings."""
    classes = set()
    for bits in range(2**k):
        word = "".join("R" if (bits >> i) & 1 else "L" for i in range(k))
        canon = min(word[i:] + word[:i] for i in range(k))
        classes.add(canon)
    return classes


def is_power_bruteforce(word):
    n = len(word)
    return any(n % p == 0 and word[:p] * (n // p) == word for p in range(1, n))


class TestEnumeration:
    def test_k1(self):
        records = enumerate_orbits(1)
        assert [str(r.word) for r in records] == ["L", "R"]
        assert records[0].degenerate and records[0].values == (QI(Fraction(0), Fraction(0), 1),)
        assert records[1].values == (GOLDEN,)

    def test_k2_single_primitive_orbit(self):
        records = enumerate_orbits(2)
        primitive = [r for r in records if r.primitive and not r.degenerate]
        assert len(primitive) == 1
        assert set(primitive[0].values) == {SQRT2_MINUS_1, INV_SQRT2}
        powers = [r for r in records if not r.degenerate and not r.primitive]
        assert len(powers) == 1 and powers[0].primitive_period == 1

    def test_k3_two_primitive_classes(self):
        records = enumerate_orbits(3)
        primitive = [r for r in records if r.primitive and not r.degenerate]
        assert sorted(str(r.word) for r in primitive) == ["LLR", "LRR"]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_bruteforce_classes(self, k):
        records = enumerate_orbits(k)
        assert {str(r.word) for r in records} == rotation_classes_bruteforce(k)
        for r in records:
            assert r.primitive != is_power_bruteforce(str(r.word))
            if r.primitive and not r.degenerate:
                assert len(set(r.values)) == k
                assert apply_word(r.word, r.values[0]) == r.values[0]

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_orbits(0)
        with pytest.raises(ValueError):
            enumerate_orbits(21)

    def test_values_rational_only_when_degenerate(self):
        for k in range(1, 7):
            for rec in enumerate_orbits(k):
                for v in rec.values:
                    assert (not v.is_rational) or (rec.degenerate and v == 0)


def reference_orbit(word):
    """periodic_point(word), then the inverse branch of each letter but the last."""
    values = [periodic_point(word)]
    for letter in word.letters[:-1]:
        values.append((inv_L if letter == "L" else inv_R)(values[-1]))
    return tuple(values)


def reference_enumerate_orbits(k):
    """The enumeration before necklaces: canonicalise every word of {L,R}^k,
    keep the first of each class, step its orbit through the inverse
    branches from periodic_point, sort by word."""
    seen = set()
    records = []
    for bits in range(2**k):
        letters = tuple("R" if (bits >> i) & 1 else "L" for i in range(k))
        canon = FareyWord(letters).canonical()
        if canon.letters in seen:
            continue
        seen.add(canon.letters)
        if canon.degenerate:
            records.append(OrbitRecord(canon, (QI.from_rational(0),), 1, True))
            continue
        root = canon.primitive_root()
        records.append(OrbitRecord(canon, reference_orbit(canon), len(root), False))
    records.sort(key=lambda rec: rec.word.letters)
    return records


def reference_enumerate_stdout(k, exact):
    """`farey enumerate` output rendered from the reference records."""
    lines = []
    for rec in reference_enumerate_orbits(k):
        if rec.degenerate:
            status = "degenerate (fixed point 0)"
        elif not rec.primitive:
            status = f"power word, primitive period {rec.primitive_period}"
        else:
            status = "primitive"
        lines.append(f"{rec.word}: {status}")
        for v in rec.values:
            lines.append(f"  {v} = {v.decimal(50)}" if exact else f"  {v.decimal(50)}")
    return "\n".join(lines) + "\n"


def necklace_count(k):
    """(1/k) * sum over d | k of phi(d) * 2^(k/d)."""

    def phi(d):
        return sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)

    return sum(phi(d) * 2 ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


class TestNecklaceEnumeration:
    @pytest.mark.parametrize("k", range(1, 14))
    def test_records_equal_reference(self, k):
        assert enumerate_orbits(k) == reference_enumerate_orbits(k)

    @pytest.mark.parametrize("k", range(1, 17))
    def test_necklaces_are_the_rotation_classes(self, k):
        found = list(necklaces(k))
        assert len(found) == necklace_count(k)
        words = [letters for letters, _ in found]
        assert words == sorted(set(words))
        for letters, period in found:
            word = FareyWord(letters)
            assert word.canonical() == word
            assert period == len(word.primitive_root())

    def test_necklaces_reject_empty_length(self):
        with pytest.raises(ValueError):
            list(necklaces(0))

    def test_orbit_values_match_inverse_branches_fuzz(self):
        rng = random.Random(16)
        for _ in range(200):
            k = rng.randint(1, 10)
            word = FareyWord(tuple(rng.choice("LR") for _ in range(k)))
            if word.degenerate:
                continue
            assert orbit_values(word) == reference_orbit(word)

    def test_orbit_values_rejects_the_degenerate_word(self):
        with pytest.raises(DegenerateWord):
            orbit_values(W("LLL"))

    def test_enumerate_solves_no_periodic_point(self, monkeypatch, capsys):
        # each orbit is read off its conjugated word matrices alone
        calls = []
        module = importlib.import_module("boostcycles.farey")  # `boostcycles.farey` is the map
        solve = module.periodic_point
        monkeypatch.setattr(module, "periodic_point", lambda word: calls.append(word) or solve(word))
        assert main(["farey", "enumerate", "--k", "12", "--exact"]) == 0
        assert capsys.readouterr().out and calls == []

    @pytest.mark.parametrize("exact", [False, True])
    def test_cli_enumerate_matches_reference(self, capsys, exact):
        assert main(["farey", "enumerate", "--k", "8"] + (["--exact"] if exact else [])) == 0
        assert capsys.readouterr().out == reference_enumerate_stdout(8, exact)

    def test_cli_orbit_matches_reference(self, capsys):
        assert main(["farey", "orbit", "--word", "RRLRL", "--exact"]) == 0
        values = reference_orbit(W("RRLRL"))
        assert capsys.readouterr().out == "".join(f"{v} = {v.decimal(50)}\n" for v in values)


def cf_euclid(x: Fraction):
    """Continued fraction of a rational in (0,1) by the Euclidean algorithm."""
    terms = []
    p, q = x.numerator, x.denominator
    # x = 0 + 1/(q/p + ...)
    while p:
        terms.append(q // p)
        p, q = q % p, p
    return terms


class TestContinuedFractions:
    def test_golden_all_ones(self):
        assert cf_expansion(GOLDEN, 12) == [1] * 12

    def test_sqrt2_minus_1_all_twos(self):
        assert cf_expansion(SQRT2_MINUS_1, 10) == [2] * 10

    def test_rational_examples(self):
        assert cf_expansion(Fraction(2, 5)) == [2, 2]
        rng = random.Random(15)
        for _ in range(200):
            x = Fraction(rng.randint(1, 99), rng.randint(100, 999))
            if not 0 < x < 1:
                continue
            assert cf_expansion(x, 50) == cf_euclid(x)

    def test_domain(self):
        with pytest.raises(ValueError):
            cf_expansion(Fraction(3, 2))
