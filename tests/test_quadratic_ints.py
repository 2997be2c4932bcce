"""The integer QuadraticIrrational against the Fraction-based reference,
plus the costs the integer form removes: Fraction and matrix objects on the
enumeration path, and the floor's float search."""

import copy
import importlib
import math
import pickle
import random
import signal
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from boostcycles import (
    FareyWord,
    MoebiusMatrix,
    QuadraticIrrational,
    cf_expansion,
    enumerate_orbits,
    orbit_values,
    word_matrix,
)
from boostcycles.cli import main
from reference_quadratic import QuadraticIrrational as RefQI
from reference_quadratic import exact_decimal

farey_module = importlib.import_module("boostcycles.farey")  # `boostcycles.farey` is the map

# a*a - 2*b*b = -1: a + b*sqrt(2) is about -4.47e-24, so its floor is -1,
# while float(a) + float(b)*sqrt(2) is -16777216.0
PELL_A, PELL_B = 111760107268250945908601, -79026329715516201199301


def within_one_second(fn):
    def expire(signum, frame):
        raise TimeoutError("took longer than 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reference_float(x, digits=100):
    """float of a + b*sqrt(d) rounded once from 100 digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        a, b = (Decimal(p.numerator) / p.denominator for p in (Fraction(x.a), Fraction(x.b)))
        return float(a + b * Decimal(x.d).sqrt())


def sqrt_convergents(d, count):
    """Convergents p/q of sqrt(d), d not a square: p - q*sqrt(d) shrinks
    like 1/q, so p and -q nearly cancel."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    out = [(p, q)]
    for _ in range(count):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append((p, q))
    return out


def draw_parts(rng, d):
    """(a, b) for a + b*sqrt(d): small fractions, a rational one time in
    five, and nearly cancelling convergent pairs one time in four."""
    frac = lambda: Fraction(rng.randint(-60, 60), rng.randint(1, 24))  # noqa: E731
    roll = rng.random()
    if roll < 0.2:
        return frac(), Fraction(0)
    if roll < 0.45 and math.isqrt(d) ** 2 != d:
        p, q = rng.choice(sqrt_convergents(d, 14))
        scale = Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2, 5)))
        return p * scale + rng.choice((0, 0, Fraction(1, 7))), -q * scale
    return frac(), frac()


def same(new, ref):
    """The integer value and the reference value are the same element."""
    return (new.a, new.b, new.d) == (ref.a, ref.b, ref.d) and str(new) == str(ref)


class TestAgainstFractionReference:
    RADICANDS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 18, 45)

    def pairs(self, seed, n):
        rng = random.Random(seed)
        for _ in range(n):
            d = rng.choice(self.RADICANDS)
            parts = [draw_parts(rng, d) for _ in range(2)]
            yield [(QuadraticIrrational(a, b, d), RefQI(a, b, d)) for a, b in parts]

    def test_construction_and_accessors(self):
        for (x, rx), _ in self.pairs(1, 1500):
            assert same(x, rx)
            assert repr(x) == repr(rx)
            assert x.is_rational == rx.is_rational

    def test_field_operations(self):
        for (x, rx), (y, ry) in self.pairs(2, 1500):
            assert same(x + y, rx + ry)
            assert same(x - y, rx - ry)
            assert same(x * y, rx * ry)
            assert same(-x, -rx) and same(x.conjugate(), rx.conjugate())
            assert same(x + y.a, rx + ry.a) and same(y.a - x, ry.a - rx) and same(3 * x, 3 * rx)
            if ry.a == 0 and ry.b == 0:
                with pytest.raises(ZeroDivisionError):
                    y.inverse()
                continue
            assert same(y.inverse(), ry.inverse())
            assert same(x / y, rx / ry)
            assert same(1 / y, 1 / ry)

    def test_order_and_equality(self):
        for (x, rx), (y, ry) in self.pairs(3, 2000):
            assert x.sign() == rx.sign()
            assert (x < y, x <= y, x > y, x >= y) == (rx < ry, rx <= ry, rx > ry, rx >= ry)
            assert (x == y) == (rx == ry)
            assert (x == y.a) == (rx == ry.a) and (x < y.a) == (rx < ry.a)
            assert x == x + 0 and not x < x

    def test_hash(self):
        for (x, rx), (y, _) in self.pairs(4, 1000):
            if rx.is_rational:
                assert hash(x) == hash(rx) == hash(rx.a)
            z = (x + y) - y
            assert z == x and hash(z) == hash(x)
        assert hash(QuadraticIrrational(1, 1, 12)) == hash(QuadraticIrrational(1, 2, 3))

    def test_floor_float_str_decimal(self):
        for (x, rx), _ in self.pairs(5, 1500):
            assert math.floor(x) == math.floor(rx)
            assert str(x) == str(rx)
            assert x.decimal(50) == rx.decimal(50)
            assert float(x) == reference_float(rx)

    def test_copy_and_pickle(self):
        for (x, _), _ in self.pairs(7, 200):
            assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
        records = enumerate_orbits(5)
        assert pickle.loads(pickle.dumps(records)) == records

    def test_cf_expansion(self):
        for (x, rx), _ in self.pairs(6, 300):
            if x.is_rational:
                continue
            frac, rfrac = x - math.floor(x), rx - math.floor(rx)
            assert cf_expansion(frac, 12) == cf_expansion(rfrac, 12)


class TestIntegerFloor:
    def test_pell_floor_and_float(self):
        x = QuadraticIrrational(PELL_A, PELL_B, 2)
        assert within_one_second(lambda: math.floor(x)) == -1
        value = within_one_second(lambda: float(x))
        assert value == reference_float(x) == -4.473868290049871e-24
        assert math.floor(-x) == 0 and math.floor(x.conjugate()) == 2 * PELL_A

    def test_decimal_where_the_parts_cancel(self):
        # every digit used to cancel: the Pell element printed 0.000000
        x = QuadraticIrrational(PELL_A, PELL_B, 2)
        assert within_one_second(lambda: x.decimal(20)) == "-4.4738682900498708302E-24"
        assert exact_decimal(PELL_A, PELL_B, 1, 2, 20) == "-4.4738682900498708302E-24"
        for d in (2, 3, 5, 7, 13, 61):
            for p, q in sqrt_convergents(d, 30):
                for a, b, c in ((p, -q, 1), (-p, q, 3), (p, -q, 7 * q)):
                    for digits in (5, 20, 50):
                        value = QuadraticIrrational(Fraction(a, c), Fraction(b, c), d)
                        assert value.decimal(digits) == exact_decimal(a, b, c, d, digits), (a, b, c, d, digits)

    def test_floor_of_rationals_and_exact_roots(self):
        for num in range(-20, 21):
            for den in range(1, 7):
                assert math.floor(QuadraticIrrational(Fraction(num, den), 0, 3)) == num // den
        assert math.floor(QuadraticIrrational(Fraction(1, 2), Fraction(3, 2), 4)) == 3


class TestIntegerPath:
    def test_enumerate_builds_few_fractions(self, monkeypatch, capsys):
        built = []
        construct = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return construct(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        Fraction(1, 2)
        assert len(built) == 1
        built.clear()
        assert main(["farey", "enumerate", "--k", "12", "--exact"]) == 0
        assert capsys.readouterr().out.count("\n") == 4565
        assert len(built) < 100

    def test_orbit_values_builds_no_matrix(self, monkeypatch):
        built = []
        init = MoebiusMatrix.__init__
        monkeypatch.setattr(MoebiusMatrix, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        word_matrix(FareyWord.from_string("RL"))
        assert built == [(0, 1, 1, 2)]
        built.clear()
        rng = random.Random(17)
        for _ in range(200):
            word = FareyWord(tuple(rng.choice("LR") for _ in range(rng.randint(1, 12))))
            if not word.degenerate:
                orbit_values(word)
        assert built == []

    @pytest.mark.parametrize("entries", [(3, 1, 1, 0), (0, -1, 1, 3)])
    def test_orbit_values_checks_point_zero(self, monkeypatch, entries):
        # larger roots (3 + sqrt(13))/2 > 1 and (-3 + sqrt(5))/2 <= 0
        monkeypatch.setattr(farey_module, "_word_entries", lambda letters: entries)
        with pytest.raises(AssertionError, match=r"no root of R in \(0, 1\]"):
            orbit_values(FareyWord.from_string("R"))
