"""Core value types for weights over the probability simplex and ±1 dichotomies.

Two numeric modes exist per run: "exact" keeps every weight and edge an exact
rational (a `fractions.Fraction` in these value types; the engine's loop and a
trace hold them as integers over a common denominator), "float" uses doubles.
Modes are never mixed inside one trace; all types here are immutable after
construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

Scalar = Union[int, Fraction, float]

FLOAT_SUM_TOL = 1e-12


class DimensionMismatch(ValueError):
    """Vector lengths disagree."""


def is_exact(values: Iterable[Scalar]) -> bool:
    """True when every value is an int or Fraction (no floats)."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def uniform_weights(n: int, mode: str) -> "WeightVector":
    """The uniform starting point 1/n in the requested numeric mode."""
    if n < 1:
        raise ValueError("need at least one data point")
    if mode == "exact":
        return WeightVector(tuple(Fraction(1, n) for _ in range(n)))
    if mode == "float":
        return WeightVector(tuple(1.0 / n for _ in range(n)))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class WeightVector:
    """A strictly positive point on the (n-1)-simplex.

    Exact components must sum to exactly 1; float components to within
    FLOAT_SUM_TOL. NaN fails the positivity check and inf the sum check.
    """

    components: Tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("empty weight vector")
        if any(not c > 0 for c in self.components):  # nan > 0 is false: NaN is rejected
            raise ValueError("weights must be strictly positive")
        total = sum(self.components)
        if is_exact(self.components):
            if total != 1:
                raise ValueError(f"exact weights sum to {total}, not 1")
        elif abs(total - 1.0) > FLOAT_SUM_TOL:
            raise ValueError(f"float weights sum to {total!r}, off by more than {FLOAT_SUM_TOL}")

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> Scalar:
        return self.components[i]

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.components)

    def as_array(self) -> np.ndarray:
        """The components as a float64 array, or in exact mode as an object
        array of the Fractions themselves."""
        return np.array(self.components, dtype=object if is_exact(self.components) else np.float64)


_PLUS, _MINUS = ord("+"), ord("-")
_NOT_A_SIGN = re.compile(r"[^+-]")


class SignTextError(ValueError):
    """Rows of '+'/'-' text that do not make a sign matrix.

    row is (index, message) for the first row that fails on its own (it is
    empty, holds a character other than '+' and '-', or has no '+'), and
    uneven is the index of the first row whose length differs from the first
    row's; either is None when no row fails that way. The error's text is the
    row's message, or else that the rows have unequal lengths.
    """

    def __init__(self, row: Optional[Tuple[int, str]], uneven: Optional[int]) -> None:
        super().__init__(row[1] if row else "pool rows have unequal lengths")
        self.row, self.uneven = row, uneven


def _row_failure(text: str) -> Optional[str]:
    """Why one row of text is not a dichotomy, or None if it is one."""
    if not text:
        return "empty dichotomy"
    bad = _NOT_A_SIGN.search(text)
    if bad:
        return f"bad dichotomy character {bad.group()!r}"
    if "+" not in text:
        return "dichotomy must classify at least one point correctly"
    return None


def _parse_signs(texts: Sequence[str]) -> np.ndarray:
    """The pool codec's reader: rows of '+'/'-' text as one int8 (rows x
    points) matrix of ±1, decoded in one pass over their bytes. The rows must
    have equal lengths and a '+' each; no rows give a (0, 0) matrix. Raises
    SignTextError otherwise, naming the first failing row of each kind."""
    if not texts:
        return np.empty((0, 0), dtype=np.int8)
    joined = "".join(texts)
    if len(set(map(len, texts))) == 1 and joined.isascii():
        codes = np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(len(texts), -1)
        right = codes == _PLUS
        if codes.size and (right | (codes == _MINUS)).all() and right.any(axis=1).all():
            signs = right.astype(np.int8)
            signs *= 2
            signs -= 1
            return signs
    # some row fails: find the first of each kind
    failures = ((i, _row_failure(text)) for i, text in enumerate(texts))
    row = next(((i, message) for i, message in failures if message), None)
    uneven = next((i for i, text in enumerate(texts) if len(text) != len(texts[0])), None)
    raise SignTextError(row, uneven)


def _sign_texts(signs: np.ndarray) -> List[str]:
    """The pool codec's writer: the rows of a ±1 sign matrix as '+'/'-' text,
    encoded in one pass."""
    text = np.where(signs > 0, _PLUS, _MINUS).astype(np.uint8).tobytes().decode("ascii")
    n = signs.shape[1]
    return [text[lo : lo + n] for lo in range(0, len(text), n)]


@dataclass(frozen=True)
class MistakeDichotomy:
    """±1 record of which points a hypothesis got right (+1) or wrong (-1).

    At least one +1 entry is required; an all-wrong hypothesis can never
    produce a positive edge.
    """

    entries: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("empty dichotomy")
        if not set(self.entries) <= {1, -1}:
            raise ValueError("dichotomy entries must be +1 or -1")
        if 1 not in self.entries:
            raise ValueError("dichotomy must classify at least one point correctly")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def misclassified(self) -> Tuple[int, ...]:
        """Indices carrying a -1 entry."""
        return tuple(i for i, e in enumerate(self.entries) if e == -1)

    def to_string(self) -> str:
        """Render as a '+--+' style line (the pool file format)."""
        return "".join("+" if e == 1 else "-" for e in self.entries)

    @classmethod
    def from_string(cls, text: str) -> "MistakeDichotomy":
        return _checked_dichotomy(_parse_signs([text.strip()])[0].tolist())


def _checked_dichotomy(entries: Sequence[int]) -> MistakeDichotomy:
    """A MistakeDichotomy of signs that were checked already (by
    _parse_signs or as the rows of a pool), built without checking again."""
    dichotomy = object.__new__(MistakeDichotomy)
    object.__setattr__(dichotomy, "entries", tuple(entries))
    return dichotomy


class HypothesisPool:
    """The finite set of dichotomies available to the selection step, held
    as one read-only int8 (rows x points) matrix of ±1, `signs`.

    Duplicate rows are dropped at construction (first occurrence kept);
    duplicates are dynamically indistinguishable and would only break
    argmax tie-break determinism. The constructor takes MistakeDichotomy
    rows; `from_matrix` takes a sign matrix checked where it was read
    (`_parse_signs`) and checks no row again. `rows`, the dichotomies, are
    built from the matrix when first read. Pools are equal when their
    matrices and origins are.
    """

    def __init__(self, rows: Sequence[MistakeDichotomy], origin: str = "synthetic") -> None:
        if not rows:
            raise ValueError("empty hypothesis pool")
        if len(set(map(len, rows))) > 1:
            raise DimensionMismatch("pool rows have unequal lengths")
        self._keep_first(np.array([row.entries for row in rows], dtype=np.int8), origin)

    @classmethod
    def from_matrix(cls, signs: np.ndarray, origin: str = "synthetic") -> "HypothesisPool":
        """The pool of a checked int8 ±1 sign matrix, each row with a +1."""
        if not len(signs):
            raise ValueError("empty hypothesis pool")
        pool = cls.__new__(cls)
        pool._keep_first(signs, origin)
        return pool

    @classmethod
    def from_signs(cls, rows: Sequence[Sequence[int]], origin: str = "synthetic") -> "HypothesisPool":
        return cls(tuple(MistakeDichotomy(tuple(r)) for r in rows), origin)

    def _keep_first(self, signs: np.ndarray, origin: str) -> None:
        """Keep the first occurrence of each row of signs, found by one dict
        over the rows' bytes."""
        raw, n = signs.tobytes(), signs.shape[1]
        rows = [raw[lo : lo + n] for lo in range(0, len(raw), n)]
        # built from the last row back, so that each row keeps its first index
        first = dict(zip(rows[::-1], range(len(rows) - 1, -1, -1)))
        self.signs = signs[sorted(first.values())]
        self.signs.flags.writeable = False
        self.origin = origin

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HypothesisPool):
            return NotImplemented
        return self.origin == other.origin and np.array_equal(self.signs, other.signs)

    def __hash__(self) -> int:
        return hash((self.origin, self.signs.shape, self.signs.tobytes()))

    def __repr__(self) -> str:
        return f"HypothesisPool(rows={self.rows!r}, origin={self.origin!r})"

    @cached_property
    def rows(self) -> Tuple[MistakeDichotomy, ...]:
        return tuple(map(_checked_dichotomy, self.signs.tolist()))

    @property
    def n_points(self) -> int:
        return self.signs.shape[1]

    @cached_property
    def exact_signs(self) -> np.ndarray:
        """The same matrix as Python ints (an object array), for exact
        selection and updates on integer weights, where int8 products could
        overflow."""
        signs = self.signs.astype(object)
        signs.flags.writeable = False
        return signs

    @cached_property
    def matrix(self) -> np.ndarray:
        """The same matrix in float64, for the float screen's matrix-vector
        product."""
        m = self.signs.astype(np.float64)
        m.flags.writeable = False
        return m

    def __len__(self) -> int:
        return len(self.signs)

    def __getitem__(self, i: int) -> MistakeDichotomy:
        return self.rows[i]


def _signed_sums(signs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i s_i * w_i along the last axis, for a (rows x points) ±1 sign
    matrix: against one weight vector, or row by row against a matrix of
    weight rows (float only).

    Object weights (Fractions, or the integer numerators of exact mode) are
    summed exactly, by a matrix product (the signs must be integers there). Float weights are
    summed left to right (`np.add.accumulate`, as `np.cumsum` does), so each
    sum is bit-equal to Python's `sum` over the same terms; the products
    s_i * w_i are exact.
    """
    if w.dtype == object:
        return signs @ w
    return np.add.accumulate(signs * w, axis=-1)[..., -1]


def edge_dot(w: WeightVector, eta: MistakeDichotomy) -> Scalar:
    """The edge r = sum_i eta_i * w_i: correct minus misclassified weight mass."""
    if len(w) != len(eta):
        raise DimensionMismatch(f"weights have {len(w)} components, dichotomy {len(eta)}")
    return _signed_sums(np.array([eta.entries], dtype=np.int8), w.as_array()).tolist()[0]


def repeated_mistakes(signs: np.ndarray) -> np.ndarray:
    """The J- masks of a (iterations x points) ±1 sign matrix: entry (t, i)
    is true when point i is misclassified at both t and t+1."""
    repeats = signs[:-1] < 0
    repeats &= signs[1:] < 0
    return repeats


def first_repeated_mistake(repeats: np.ndarray) -> Optional[Tuple[int, int]]:
    """The earliest true entry of a repeated_mistakes mask as (row i,
    iteration t), earliest by iteration first, then row; None if there is
    none."""
    hit = repeats.any(axis=1)
    if not hit.any():
        return None
    t = int(hit.argmax())
    return int(repeats[t].argmax()), t


def check_periodic_learning(columns: Sequence[MistakeDichotomy]) -> Optional[Tuple[int, int]]:
    """Check the periodic learning condition on the dichotomies of
    iterations 0, 1, ...: -1 at (i, t) forces +1 at (i, t+1).

    Returns None when the condition holds, else the earliest violation as
    (row i, iteration t) meaning point i was misclassified at both t and t+1.
    Earliest is by iteration first, then row. Raises ValueError for fewer
    than 2 columns and DimensionMismatch for columns of unequal lengths.
    """
    if len(columns) < 2:
        raise ValueError("periodic learning condition needs at least 2 columns")
    if len(set(map(len, columns))) > 1:
        raise DimensionMismatch("columns have unequal lengths")
    signs = np.array([column.entries for column in columns], dtype=np.int8)
    return first_repeated_mistake(repeated_mistakes(signs))
