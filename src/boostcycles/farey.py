"""Continued-fraction dynamics on [0,1]: the piecewise map, its two inverse
branches L and R, exact periodic-orbit solving in quadratic fields, and
orbit enumeration by word length.

Values live in Q(sqrt(d)) for a fixed square-free d; all comparisons are
resolved by exact sign analysis, never through floats. Words over {L, R}
are written in application order: the word "RL" means apply R first, then L.

Enumeration lists each rotation class once, as its least rotation: the
binary necklaces of length k (L < R) come from the FKM algorithm (Ruskey,
Savage & Wang, J. Algorithms 1992) already in lexicographic order. The
orbit of a word is read off word matrices. Rotating the word left by one
letter conjugates its matrix by that letter's generator, M -> G M G^-1, so
tr^2 - 4 det, the discriminant of every rotation's fixed-point equation, is
the same for the whole orbit and is factored once. Point j of the orbit is
the root in (0, 1] of the j-th rotation's equation; it is the same field
element as the inverse-branch image of point j - 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Tuple, Union

Number = Union[int, Fraction, float]


class DegenerateWord(ValueError):
    """The all-L word: its only periodic point is the fixed point 0."""


@functools.lru_cache(maxsize=4096)
def square_free_decompose(n: int) -> Tuple[int, int]:
    """Write n = s*s*d with d square-free; returns (s, d). Requires n >= 0."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 1
    s, d, rem = 1, 1, n
    f = 2
    while f * f <= rem:
        if rem % f == 0:
            e = 0
            while rem % f == 0:
                rem //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1
    if rem > 1:
        d *= rem
    return s, d


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d), d square-free."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a*a against b*b*d
    lhs, rhs = a * a, b * b * d
    if a > 0:  # b < 0
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return 1 if rhs > lhs else (-1 if rhs < lhs else 0)


@functools.lru_cache(maxsize=256)
def _decimal_sqrt(d: int, precision: int):
    """sqrt(d) as a Decimal to the given precision; the values of an orbit
    share d, so each is computed once."""
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = precision
        return decimal.Decimal(d).sqrt()


@dataclass(frozen=True)
class QuadraticIrrational:
    """Exact element a + b*sqrt(d) of Q(sqrt(d)), d square-free and positive.

    Rational values are canonicalized to b = 0, d = 1, so equality and
    hashing work across fields. Mixed arithmetic between two genuinely
    irrational values of different d is rejected.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.d < 1:
            raise ValueError("radicand must be a positive integer")
        s, d0 = square_free_decompose(self.d)
        if s * s * d0 != self.d:
            raise AssertionError("square-free decomposition failed")
        if d0 != self.d:
            object.__setattr__(self, "b", self.b * s)
            object.__setattr__(self, "d", d0)
        if self.d == 1:
            object.__setattr__(self, "a", self.a + self.b)
            object.__setattr__(self, "b", Fraction(0))
        if self.b == 0:
            object.__setattr__(self, "d", 1)

    @classmethod
    def from_rational(cls, q: Number) -> "QuadraticIrrational":
        return cls(Fraction(q), Fraction(0), 1)

    @classmethod
    def sqrt(cls, n: int) -> "QuadraticIrrational":
        return cls(Fraction(0), Fraction(1), n)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def conjugate(self) -> "QuadraticIrrational":
        return QuadraticIrrational(self.a, -self.b, self.d)

    def _coerce(self, other: Union["QuadraticIrrational", Number]) -> "QuadraticIrrational":
        if isinstance(other, QuadraticIrrational):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticIrrational.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    def _common_d(self, other: "QuadraticIrrational") -> int:
        if self.is_rational:
            return other.d
        if other.is_rational:
            return self.d
        if self.d != other.d:
            raise ValueError(f"mixed radicands {self.d} and {other.d}")
        return self.d

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._common_d(o)
        return QuadraticIrrational(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticIrrational(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._common_d(o)
        return QuadraticIrrational(
            self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticIrrational":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("zero element of the quadratic field")
        return QuadraticIrrational(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d) via sign analysis, no floats."""
        return _sign(self.a, self.b, self.d)

    def _cmp(self, other) -> int:
        """Sign of self - other, taken from the parts of the difference
        without building it."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return _sign(self.a - o.a, self.b - o.b, self._common_d(o))

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadraticIrrational.from_rational(other)
        if not isinstance(other, QuadraticIrrational):
            return NotImplemented
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __floor__(self) -> int:
        """Exact floor: float estimate corrected by exact comparisons."""
        est = math.floor(float(self))
        while self < est:
            est -= 1
        while self >= est + 1:
            est += 1
        return est

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        return f"({self.a}+{self.b}*sqrt({self.d}))"

    def decimal(self, digits: int = 50) -> str:
        """Decimal expansion to the given number of significant digits."""
        import decimal

        with decimal.localcontext() as ctx:
            ctx.prec = digits + 10
            val = (
                decimal.Decimal(self.a.numerator) / decimal.Decimal(self.a.denominator)
                + decimal.Decimal(self.b.numerator)
                / decimal.Decimal(self.b.denominator)
                * _decimal_sqrt(self.d, ctx.prec)
            )
            ctx.prec = digits
            return str(+val)


GOLDEN = QuadraticIrrational(Fraction(-1, 2), Fraction(1, 2), 5)

Value = Union[int, Fraction, float, QuadraticIrrational]


def farey(x: Value) -> Value:
    """The piecewise map x/(1-x) on [0, 1/2), (1-x)/x on [1/2, 1].

    The branch point 1/2 belongs to the right branch. Fixes 0 and the
    golden ratio minus one.
    """
    half = Fraction(1, 2)
    if x < 0 or x > 1:
        raise ValueError(f"{x!r} outside [0, 1]")
    if x < half:
        return x / (1 - x)
    return (1 - x) / x


def gauss(x: Value) -> Value:
    """The continued-fraction shift 1/x mod 1; equals farey on [1/2, 1)."""
    if x <= 0 or x >= 1:
        raise ValueError(f"{x!r} outside (0, 1)")
    y = 1 / x
    return y - math.floor(y)


def inv_L(x: Value) -> Value:
    """Left inverse branch x -> x/(x+1), landing in [0, 1/2]."""
    return x / (x + 1)


def inv_R(x: Value) -> Value:
    """Right inverse branch x -> 1/(x+1), landing in [1/2, 1]; contraction
    whose fixed point is the golden ratio minus one."""
    return 1 / (x + 1)


_LETTER_FUNCS = {"L": inv_L, "R": inv_R}


@dataclass(frozen=True)
class MoebiusMatrix:
    """Integer matrix of x -> (a x + b)/(c x + d)."""

    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other: "MoebiusMatrix") -> "MoebiusMatrix":
        return MoebiusMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, x: Value) -> Value:
        return (self.a * x + self.b) / (self.c * x + self.d)


L_MATRIX = MoebiusMatrix(1, 0, 1, 1)
R_MATRIX = MoebiusMatrix(0, 1, 1, 1)
# letter -> (generator, its inverse), for conjugating a word matrix
_CONJUGATORS = {
    "L": (L_MATRIX, MoebiusMatrix(1, 0, -1, 1)),
    "R": (R_MATRIX, MoebiusMatrix(-1, 1, 1, 0)),
}


@dataclass(frozen=True)
class FareyWord:
    """A nonempty word over {L, R}, in application order (first letter first).

    Orbits are rotation classes; canonical() picks the lexicographically
    minimal rotation. The all-L word is degenerate (fixed point 0 only).
    """

    letters: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("empty word")
        if any(ch not in ("L", "R") for ch in self.letters):
            raise ValueError("letters must be 'L' or 'R'")

    @classmethod
    def from_string(cls, text: str) -> "FareyWord":
        return cls(tuple(text))

    def __str__(self) -> str:
        return "".join(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def degenerate(self) -> bool:
        return "R" not in self.letters

    def canonical(self) -> "FareyWord":
        s = self.letters
        return FareyWord(min(s[i:] + s[:i] for i in range(len(s))))

    def primitive_root(self) -> "FareyWord":
        """Shortest word u with self = u repeated; self when already primitive."""
        n = len(self.letters)
        for p in range(1, n):
            if n % p == 0 and self.letters[:p] * (n // p) == self.letters:
                return FareyWord(self.letters[:p])
        return self

    @property
    def primitive(self) -> bool:
        return len(self.primitive_root()) == len(self)


def word_matrix(word: FareyWord) -> MoebiusMatrix:
    """Matrix of the composite map: letters apply left to right, so the
    matrix product runs last letter to first."""
    m = MoebiusMatrix(1, 0, 0, 1)
    for letter in word.letters:
        gen = L_MATRIX if letter == "L" else R_MATRIX
        m = gen * m
    return m


def apply_word(word: FareyWord, x: Value) -> Value:
    y = x
    for letter in word.letters:
        y = _LETTER_FUNCS[letter](y)
    return y


def periodic_point(word: FareyWord) -> QuadraticIrrational:
    """The unique fixed point in (0, 1] of the word's composite map: point 0
    of its periodic orbit (see orbit_values). Power words collapse to their
    primitive root's point; the all-L word is rejected as degenerate
    (DegenerateWord).
    """
    return orbit_values(word)[0]


def _discriminant(m: MoebiusMatrix) -> int:
    """(d - a)^2 + 4bc = tr^2 - 4 det: invariant under conjugation."""
    return (m.d - m.a) ** 2 + 4 * m.b * m.c


def _upper_root(m: MoebiusMatrix, s: int, d0: int) -> QuadraticIrrational:
    """The larger root of c x^2 + (d - a) x - b = 0, given its discriminant
    as s*s*d0. c >= 1 for any word over {L, R}: both generators have bottom
    row (1, 1)."""
    return QuadraticIrrational(Fraction(m.a - m.d, 2 * m.c), Fraction(s, 2 * m.c), d0)


def orbit_values(word: FareyWord) -> Tuple[QuadraticIrrational, ...]:
    """The k points of a non-degenerate word's periodic orbit: point 0 is
    the fixed point in (0, 1] of the word's composite map, the root of
    c x^2 + (d - a) x - b = 0 for the word's matrix, and point j + 1 is the
    inverse branch of letter j applied to point j. Power words repeat their
    primitive root's orbit.

    Point j is the fixed point of the word rotated left by j letters, whose
    matrix is the previous rotation's conjugated by its first letter. The
    discriminant is the same for every rotation, so it is factored once.
    """
    if word.degenerate:
        raise DegenerateWord("all-L word fixes only 0")
    m = word_matrix(word)
    s, d0 = square_free_decompose(_discriminant(m))
    values = []
    for letter in word.letters:
        values.append(_upper_root(m, s, d0))
        gen, gen_inv = _CONJUGATORS[letter]
        m = gen * m * gen_inv
    if not (values[0] > 0 and values[0] <= 1):
        raise AssertionError(f"no root of {word} in (0, 1]")
    return tuple(values)


@dataclass(frozen=True)
class OrbitRecord:
    """One rotation class from the enumeration at a given word length."""

    word: FareyWord  # canonical rotation
    values: Tuple[QuadraticIrrational, ...]
    primitive_period: int
    degenerate: bool

    @property
    def primitive(self) -> bool:
        return self.primitive_period == len(self.word)


MAX_ENUMERATION_LENGTH = 20


def necklaces(k: int) -> Iterator[Tuple[Tuple[str, ...], int]]:
    """Binary necklaces of length k over L < R, in lexicographic order, each
    with its primitive period p (p < k exactly for power words).

    FKM algorithm: step through the prenecklaces in lexicographic order by
    turning the last L, at 1-based position p, into R and repeating the
    first p letters to length k; the result is a necklace when p divides k.
    """
    if k < 1:
        raise ValueError("word length must be at least 1")
    a = ["L"] * k
    yield tuple(a), 1
    while True:
        p = k
        while p and a[p - 1] == "R":
            p -= 1
        if not p:
            return
        a[p - 1] = "R"
        for j in range(p, k):
            a[j] = a[j - p]
        if k % p == 0:
            yield tuple(a), p


def enumerate_orbits(k: int) -> List[OrbitRecord]:
    """All rotation classes of {L,R}^k with their exact orbit values, one
    record per class, keyed by its least rotation and sorted by it.

    The degenerate all-L class is reported with the single value 0; words
    that are powers of shorter words are annotated with their primitive
    period. Primitive non-degenerate records carry k pairwise-distinct
    values forming an exactly periodic orbit.
    """
    if not 1 <= k <= MAX_ENUMERATION_LENGTH:
        raise ValueError(f"word length must be in 1..{MAX_ENUMERATION_LENGTH}")
    records = []
    for letters, period in necklaces(k):
        canon = FareyWord(letters)
        if canon.canonical() != canon:
            raise AssertionError(f"necklace {canon} is not its least rotation")
        if canon.degenerate:
            records.append(
                OrbitRecord(canon, (QuadraticIrrational.from_rational(0),), 1, True)
            )
        else:
            records.append(OrbitRecord(canon, orbit_values(canon), period, False))
    return records


def cf_expansion(x: Union[Fraction, QuadraticIrrational], max_terms: int = 30) -> List[int]:
    """Continued-fraction terms of x in (0, 1) by exact Gauss-map iteration.

    Terminates early for rationals; quadratic irrationals are eventually
    periodic and simply fill max_terms.
    """
    if isinstance(x, (int, float)):
        x = Fraction(x)
    if not (x > 0 and x < 1):
        raise ValueError("expansion defined on (0, 1)")
    terms: List[int] = []
    cur: Union[Fraction, QuadraticIrrational] = x
    for _ in range(max_terms):
        inv = 1 / cur
        term = math.floor(inv)
        terms.append(int(term))
        cur = inv - term
        if cur == 0:
            break
    return terms
