"""The Fraction-based `QuadraticIrrational`: a + b*sqrt(d) with two Fraction
parts, as `boostcycles.farey` implemented it before its values moved to plain
ints. Kept as a differential reference for the integer class, unchanged but
for `decimal`: an irrational value's digits come from `exact_decimal`, an
integer computation, since the Decimal sum lost every digit where a and
b*sqrt(d) nearly cancel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from boostcycles.farey import square_free_decompose

Number = Union[int, Fraction, float]


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


def exact_decimal(a: int, b: int, c: int, d: int, digits: int) -> str:
    """(a + b*sqrt(d))/c, for ints with b != 0, c > 0 and d > 1 square-free,
    rounded to `digits` significant digits and written as Decimal writes it.
    Every digit comes from exact integer floors: floor(q*sqrt(d)) is
    isqrt(q*q*d), less one for q < 0 (sqrt(d) is irrational, so no value
    is a tie to round)."""
    import decimal

    def floor_root(q: int) -> int:
        root = math.isqrt(q * q * d)
        return root if q >= 0 else -root - 1

    sign = 1 if a + floor_root(b) >= 0 else -1

    def scaled(k: int, m: int = 1) -> int:
        """floor(m * |x| * 10**k)."""
        up, down = (m * 10**k, 1) if k >= 0 else (m, 10**-k)
        return (sign * a * up + floor_root(sign * b * up)) // (c * down)

    k = digits  # |x| * 10**k is to have `digits` digits before the point
    while len(str(scaled(k))) != digits:
        k += digits - len(str(scaled(k))) if scaled(k) else 2 * digits
    rounded = (scaled(k, 2) + 1) // 2
    if rounded == 10**digits:
        rounded, k = rounded // 10, k - 1
    return str(decimal.Decimal((sign < 0, tuple(map(int, str(rounded))), -k)))


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

        if self.b:
            c = math.lcm(self.a.denominator, self.b.denominator)
            return exact_decimal(self.a.numerator * (c // self.a.denominator),
                                 self.b.numerator * (c // self.b.denominator), c, self.d, digits)

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
