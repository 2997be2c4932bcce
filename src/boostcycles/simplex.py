"""Core value types for weights over the probability simplex and ±1 dichotomies.

Two numeric modes exist per run: "exact" keeps every weight and edge an exact
rational (a `fractions.Fraction` in these value types; the engine's loop and a
trace hold them as integers over a common denominator), "float" uses doubles.
Modes are never mixed inside one trace; all types here are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

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


_SIGN_OF = {"+": 1, "-": -1}


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
        text = text.strip()
        try:
            return cls(tuple(map(_SIGN_OF.__getitem__, text)))
        except KeyError:
            bad = next(ch for ch in text if ch not in _SIGN_OF)
            raise ValueError(f"bad dichotomy character {bad!r}") from None


@dataclass(frozen=True)
class HypothesisPool:
    """The finite set of dichotomies available to the selection step.

    Duplicate rows are dropped at construction (first occurrence kept);
    duplicates are dynamically indistinguishable and would only break
    argmax tie-break determinism.
    """

    rows: Tuple[MistakeDichotomy, ...]
    origin: str = "synthetic"

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("empty hypothesis pool")
        n = len(self.rows[0])
        if any(len(r) != n for r in self.rows):
            raise DimensionMismatch("pool rows have unequal lengths")
        seen = set()
        deduped = []
        for row in self.rows:
            if row.entries not in seen:
                seen.add(row.entries)
                deduped.append(row)
        object.__setattr__(self, "rows", tuple(deduped))

    @classmethod
    def from_signs(cls, rows: Sequence[Sequence[int]], origin: str = "synthetic") -> "HypothesisPool":
        return cls(tuple(MistakeDichotomy(tuple(r)) for r in rows), origin)

    @property
    def n_points(self) -> int:
        return len(self.rows[0])

    @cached_property
    def signs(self) -> np.ndarray:
        """The rows as a read-only int8 (rows x points) matrix of ±1, built
        on first use and kept for the pool's lifetime."""
        signs = np.array([row.entries for row in self.rows], dtype=np.int8)
        signs.flags.writeable = False
        return signs

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
        return len(self.rows)

    def __getitem__(self, i: int) -> MistakeDichotomy:
        return self.rows[i]


@dataclass(frozen=True)
class MistakeLattice:
    """Iteration-ordered record of chosen dichotomies (column t = iteration t)."""

    columns: Tuple[MistakeDichotomy, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("empty lattice")
        n = len(self.columns[0])
        if any(len(c) != n for c in self.columns):
            raise DimensionMismatch("lattice columns have unequal lengths")

    @property
    def n_points(self) -> int:
        return len(self.columns[0])

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, t: int) -> MistakeDichotomy:
        return self.columns[t]


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


def edge_from_misclassified(w: WeightVector, misclassified: Iterable[int]) -> Scalar:
    """The edge written as 1 - 2 * (misclassified weight mass).

    Agrees with edge_dot for the dichotomy that is -1 exactly on the given
    index set, because the weights sum to 1.
    """
    miss = set(misclassified)
    for j in miss:
        if not 0 <= j < len(w):
            raise IndexError(f"misclassified index {j} out of range")
    one: Scalar = 1 if is_exact(w.components) else 1.0
    return one - 2 * sum(w[j] for j in miss)


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


def check_periodic_learning(lattice: MistakeLattice) -> Optional[Tuple[int, int]]:
    """Check the periodic learning condition: -1 at (i, t) forces +1 at (i, t+1).

    Returns None when the condition holds, else the earliest violation as
    (row i, iteration t) meaning point i was misclassified at both t and t+1.
    Earliest is by iteration first, then row.
    """
    if len(lattice) < 2:
        raise ValueError("periodic learning condition needs at least 2 columns")
    signs = np.array([column.entries for column in lattice.columns], dtype=np.int8)
    return first_repeated_mistake(repeated_mistakes(signs))


def periodic_learning_holds(lattice: MistakeLattice) -> bool:
    return check_periodic_learning(lattice) is None
