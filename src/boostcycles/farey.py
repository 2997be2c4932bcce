"""Continued-fraction dynamics on [0,1]: the piecewise map, its two inverse
branches L and R, exact periodic-orbit solving in quadratic fields, and
orbit enumeration by word length.

Values live in Q(sqrt(d)) for a fixed square-free d, held as plain ints
(a + b*sqrt(d))/c; comparisons and floors are exact integer arithmetic,
never floats. Words over {L, R} are written in application order: the word
"RL" means apply R first, then L.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple, Union

Number = Union[int, Fraction, float]


class DegenerateWord(ValueError):
    """The all-L word: its only periodic point is the fixed point 0."""


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


def _sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for ints, d >= 1: the parts' common sign,
    or, when they differ, the sign of a times that of a*a - b*b*d."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    norm = a * a - b * b * d
    return sa * ((norm > 0) - (norm < 0))


def _floor(a: int, b: int, d: int) -> int:
    """floor(a + b*sqrt(d)) for ints, exact by math.isqrt."""
    n = b * b * d
    r = math.isqrt(n)
    return a + (r if b >= 0 else -r - (r * r != n))


def _ratio_text(p: int, q: int) -> str:
    """`p/q` in decimal (`p` when q is 1), as str(Fraction(p, q)) writes a
    reduced p/q, or in hexadecimal (`0x...`) when a decimal form would pass
    the interpreter's limit on int-to-string digits: binary bases are exempt
    from that limit, and the process-wide limit is left as it is."""
    try:
        return f"{p}/{q}" if q != 1 else str(p)
    except ValueError:
        if q == 1:
            return f"{p:#x}"
        return f"{p:#x}/{q:#x}"


class QuadraticIrrational:
    """Exact element (a + b*sqrt(d))/c of Q(sqrt(d)) in plain ints: c > 0,
    gcd(a, b, c) = 1, d square-free and positive. Built from Fraction-like
    parts as QuadraticIrrational(a, b, d) = a + b*sqrt(d), any d >= 1;
    `.a` and `.b` read back as Fractions. Rationals are canonicalized to
    b = 0, d = 1 (and hash like their Fraction), so equality and hashing
    work across fields. Mixed arithmetic between two genuinely irrational
    values of different d is rejected. Signs and order compare a*a against
    b*b*d; the floor is (a + floor(b*sqrt(d))) // c, exact by math.isqrt.
    """

    __slots__ = ("_a", "_b", "_c", "_d")

    def __new__(cls, a: Number, b: Number, d: int) -> "QuadraticIrrational":
        a, b = Fraction(a), Fraction(b)
        if d < 1:
            raise ValueError("radicand must be a positive integer")
        s, d0 = square_free_decompose(d)
        if s * s * d0 != d:
            raise AssertionError("square-free decomposition failed")
        c = math.lcm(a.denominator, b.denominator)
        return _reduced(a.numerator * (c // a.denominator), s * b.numerator * (c // b.denominator), c, d0)

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._c)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._c)

    @property
    def d(self) -> int:
        return self._d

    @classmethod
    def from_rational(cls, q: Number) -> "QuadraticIrrational":
        return cls(q, 0, 1)

    @classmethod
    def sqrt(cls, n: int) -> "QuadraticIrrational":
        return cls(0, 1, n)

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def conjugate(self) -> "QuadraticIrrational":
        return _reduced(self._a, -self._b, self._c, self._d)

    def _coerce(self, other: Union["QuadraticIrrational", Number]) -> "QuadraticIrrational":
        if isinstance(other, QuadraticIrrational):
            return other
        if isinstance(other, (int, Fraction)):
            return _reduced(other.numerator, 0, other.denominator, 1)
        return NotImplemented  # type: ignore[return-value]

    def _common_d(self, other: "QuadraticIrrational") -> int:
        if self._b and other._b and self._d != other._d:
            raise ValueError(f"mixed radicands {self._d} and {other._d}")
        return self._d if self._b else other._d

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c = self._a * o._c + o._a * self._c, self._b * o._c + o._b * self._c, self._c * o._c
        return _reduced(a, b, c, self._common_d(o))

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._c, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._common_d(o)
        a, b = self._a * o._a + self._b * o._b * d, self._a * o._b + self._b * o._a
        return _reduced(a, b, self._c * o._c, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticIrrational":
        norm = self._a * self._a - self._b * self._b * self._d
        if norm == 0:
            raise ZeroDivisionError("zero element of the quadratic field")
        return _reduced(self._c * self._a, -self._c * self._b, norm, self._d)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else o * self.inverse()

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d) via sign analysis, no floats."""
        return _sign(self._a, self._b, self._d)

    def _cmp(self, other) -> int:
        """Sign of self - other, computed from its parts without building it."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        d = self._common_d(o)
        return _sign(self._a * o._c - o._a * self._c, self._b * o._c - o._b * self._c, d)

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
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self._a, self._b, self._c, self._d) == (o._a, o._b, o._c, o._d)

    def __hash__(self):
        return hash((self._a, self._b, self._c, self._d)) if self._b else hash(self.a)

    def __reduce__(self):
        return _reduced, (self._a, self._b, self._c, self._d)

    def __repr__(self) -> str:
        return f"QuadraticIrrational(a={self.a!r}, b={self.b!r}, d={self._d!r})"

    def __float__(self) -> float:
        """Correctly rounded even where a and b*sqrt(d) cancel: n = floor(|x| 2^k)
        by isqrt, with 55 bits or more; x is irrational, so n | 1 rounds alike."""
        a, b, c, d = self._a, self._b, self._c, self._d
        if b == 0:
            return a / c
        s, n = self.sign(), 0
        k = c.bit_length() - max(abs(a), abs(b) * d).bit_length()
        while n.bit_length() < 55:
            k += 64 - n.bit_length()
            n = _floor(s * a << max(k, 0), s * b << max(k, 0), d) // (c << max(-k, 0))
        return s * math.ldexp(n | 1, -k)

    def __floor__(self) -> int:
        return _floor(self._a, self._b, self._d) // self._c

    def __str__(self) -> str:
        a, b, c = self._a, self._b, self._c
        ga, gb = math.gcd(a, c), math.gcd(b, c)
        text = _ratio_text(a // ga, c // ga)
        return f"({text}+{_ratio_text(b // gb, c // gb)}*sqrt({self._d}))" if b else text

    def decimal(self, digits: int = 50) -> str:
        """Decimal expansion to the given number of significant digits."""
        return decimals((self,), digits)[0]


def _reduced(a: int, b: int, c: int, d: int) -> QuadraticIrrational:
    """(a + b*sqrt(d))/c from ints, c != 0 and d square-free, in canonical form."""
    if b == 0 or d == 1:
        a, b, d = a + b, 0, 1
    g = math.gcd(a, b, c) if c > 0 else -math.gcd(a, b, c)
    x = object.__new__(QuadraticIrrational)
    x._a, x._b, x._c, x._d = a // g, b // g, c // g, d
    return x


def decimals(values: Sequence[QuadraticIrrational], digits: int = 50) -> List[str]:
    """Decimal expansions to `digits` significant digits in one decimal context:
    each a/c + b/c*sqrt(d) at digits + 10 (Decimal division is correctly rounded,
    so a/c gives the reduced Fraction's digits), sqrt(d) once per d, then rounded.
    Where a and b*sqrt(d) have opposite signs the sum loses leading digits;
    one that keeps fewer than digits + 5 of them is taken again by
    `_cancelling_sum`."""
    import decimal

    dec, roots, wide = decimal.Decimal, {}, []
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        for v in values:
            if v._d not in roots:
                roots[v._d] = dec(v._d).sqrt()
            c = dec(v._c)
            first, second = dec(v._a) / c, dec(v._b) / c * roots[v._d]
            x = first + second
            if v._a * v._b < 0 and (not x or max(first.adjusted(), second.adjusted()) - x.adjusted() > 5):
                x = _cancelling_sum(v, digits)
            wide.append(x)
        ctx.prec = digits
        return [str(+x) for x in wide]


def _cancelling_sum(v: QuadraticIrrational, digits: int):
    """a/c + b/c*sqrt(d), for a and b of opposite signs, as a Decimal with
    digits + 10 correct significant digits: the sum is taken at a precision
    raised by the leading digits it loses (all of them when the rounded terms
    cancel), until digits + 10 remain. It ends, as an irrational x is not 0."""
    import decimal

    dec, prec = decimal.Decimal, digits + 10
    with decimal.localcontext() as ctx:
        while True:
            ctx.prec = prec
            c = dec(v._c)
            first, second = dec(v._a) / c, dec(v._b) / c * dec(v._d).sqrt()
            x = first + second
            lost = max(first.adjusted(), second.adjusted()) - x.adjusted() if x else prec
            if prec - lost >= digits + 10:
                return x
            prec = digits + 10 + lost


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


def _word_entries(letters: Tuple[str, ...]) -> Tuple[int, int, int, int]:
    """word_matrix's entries (a, b, c, d) as plain ints."""
    a, b, c, d = 1, 0, 0, 1
    for letter in letters:
        a, b, c, d = (a, b, a + c, b + d) if letter == "L" else (c, d, a + c, b + d)
    return a, b, c, d


def word_matrix(word: FareyWord) -> MoebiusMatrix:
    """Matrix of the composite map: letters apply left to right, so the
    matrix product runs last letter to first."""
    return MoebiusMatrix(*_word_entries(word.letters))


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


def orbit_values(word: FareyWord) -> Tuple[QuadraticIrrational, ...]:
    """The k points of a non-degenerate word's periodic orbit: point 0 is
    the fixed point in (0, 1] of the word's composite map, and point j + 1
    is the inverse branch of letter j applied to point j. Power words repeat
    their primitive root's orbit.

    Point j is the larger root ((a - d) + s*sqrt(d0)) / 2c of
    c x^2 + (d - a) x - b = 0 for the word rotated left by j letters, whose
    matrix (a b; c d), a plain int 4-tuple, is the previous rotation's
    conjugated by its first letter. (d - a)^2 + 4bc = tr^2 - 4 det = s*s*d0
    is the same for every rotation, so it is factored once. c >= 1: both
    generators have bottom row (1, 1). Point 0 is checked to lie in (0, 1].
    """
    if word.degenerate:
        raise DegenerateWord("all-L word fixes only 0")
    a, b, c, d = _word_entries(word.letters)
    s, d0 = square_free_decompose((d - a) ** 2 + 4 * b * c)
    if not (_sign(a - d, s, d0) > 0 and _sign(a - d - 2 * c, s, d0) <= 0):
        raise AssertionError(f"no root of {word} in (0, 1]")
    values = []
    for letter in word.letters:
        values.append(_reduced(a - d, s, 2 * c, d0))
        if letter == "L":  # conjugate by L = (1 0; 1 1)
            a, b, c, d = a - b, b, a + c - b - d, b + d
        else:  # conjugate by R = (0 1; 1 1)
            a, b, c, d = d - c, c, b + d - a - c, a + c
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
