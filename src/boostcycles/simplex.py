"""Core value types for weights over the probability simplex and ±1 dichotomies.

Two numeric modes exist per run: "exact" keeps every weight and edge as a
`fractions.Fraction`, "float" uses doubles. Modes are never mixed inside one
trace; all types here are immutable after construction.
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

    def as_floats(self) -> Tuple[float, ...]:
        return tuple(float(c) for c in self.components)


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
        if any(e not in (1, -1) for e in self.entries):
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
        entries = []
        for ch in text.strip():
            if ch == "+":
                entries.append(1)
            elif ch == "-":
                entries.append(-1)
            else:
                raise ValueError(f"bad dichotomy character {ch!r}")
        return cls(tuple(entries))


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
    def matrix(self) -> np.ndarray:
        """The rows as a read-only float64 (rows x points) matrix of ±1,
        built on first use and kept for the pool's lifetime."""
        m = np.array([row.entries for row in self.rows], dtype=np.float64)
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


def edge_dot(w: WeightVector, eta: MistakeDichotomy) -> Scalar:
    """The edge r = sum_i eta_i * w_i: correct minus misclassified weight mass."""
    if len(w) != len(eta):
        raise DimensionMismatch(f"weights have {len(w)} components, dichotomy {len(eta)}")
    return sum(e * c for e, c in zip(eta, w))


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


def check_periodic_learning(lattice: MistakeLattice) -> Optional[Tuple[int, int]]:
    """Check the periodic learning condition: -1 at (i, t) forces +1 at (i, t+1).

    Returns None when the condition holds, else the earliest violation as
    (row i, iteration t) meaning point i was misclassified at both t and t+1.
    Earliest is by iteration first, then row.
    """
    if len(lattice) < 2:
        raise ValueError("periodic learning condition needs at least 2 columns")
    for t in range(len(lattice) - 1):
        cur, nxt = lattice[t], lattice[t + 1]
        for i in range(lattice.n_points):
            if cur[i] == -1 and nxt[i] == -1:
                return (i, t)
    return None


def periodic_learning_holds(lattice: MistakeLattice) -> bool:
    return check_periodic_learning(lattice) is None
