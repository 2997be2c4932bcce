"""Shared fixtures: the minimal cycling pool, canonical traces, and the
fuzzed trace corpora used by the identity checks and the acceptance gate."""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import boostcycles
from boostcycles import (
    FirstAbove,
    FixedSequence,
    HypothesisPool,
    Optimal,
    run,
)
from boostcycles.cycles import detect_cycle
from boostcycles.engine import _lattice_point

POOL3_ROWS = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]


@pytest.fixture(scope="session")
def pool3() -> HypothesisPool:
    return HypothesisPool.from_signs(POOL3_ROWS)


@pytest.fixture(scope="session")
def golden_exact(pool3):
    return run(pool3, Optimal(), 31, "exact")


@pytest.fixture(scope="session")
def golden_float(pool3):
    return run(pool3, Optimal(), 201, "float")


@pytest.fixture(scope="session")
def twocycle_float(pool3):
    return run(pool3, FirstAbove(0.4), 500, "float")


def random_pool(rng: random.Random, max_points: int = 8, max_rows: int = 12):
    n = rng.randint(2, max_points)
    m = rng.randint(1, max_rows)
    rows, seen = [], set()
    for _ in range(m):
        row = tuple(rng.choice((1, -1)) for _ in range(n))
        if 1 not in row or row in seen:
            continue
        seen.add(row)
        rows.append(row)
    if not rows:
        return None
    return HypothesisPool.from_signs(rows)


def random_rule(rng: random.Random, pool: HypothesisPool):
    kind = rng.randrange(3)
    if kind == 0:
        return Optimal()
    if kind == 1:
        return FirstAbove(Fraction(rng.randint(1, 9), 10))
    return FixedSequence(tuple(rng.randrange(len(pool)) for _ in range(10)))


@pytest.fixture(scope="session")
def fuzz_exact_traces():
    """At least 1000 short exact traces over random pools (n <= 8, m <= 12,
    t <= 10), mixing all three selection rules so that both J- = empty and
    J- nonempty transitions occur."""
    rng = random.Random(20240817)
    traces = []
    attempts = 0
    while len(traces) < 1000 and attempts < 10000:
        attempts += 1
        pool = random_pool(rng)
        if pool is None:
            continue
        rule = random_rule(rng, pool)
        trace = run(pool, rule, rng.randint(2, 10), "exact")
        if len(trace) >= 2:
            traces.append(trace)
    assert len(traces) >= 1000
    return traces


@pytest.fixture(scope="session")
def fuzz_float_cycles(pool3):
    """(trace, report) pairs for float runs that settled into a cycle."""
    rng = random.Random(987654321)
    found = []
    for _ in range(300):
        pool = random_pool(rng, max_points=6, max_rows=8)
        if pool is None:
            continue
        rule = Optimal() if rng.random() < 0.5 else FirstAbove(Fraction(rng.randint(2, 7), 10))
        trace = run(pool, rule, 400, "float")
        if len(trace) < 60:
            continue
        report = detect_cycle(trace, tol=1e-9, min_repeats=3)
        if report is not None:
            found.append((trace, report))
    assert len(found) >= 10
    return found


def _limit_address_space() -> None:
    """Cap a child process at 2 GB of address space, so that a runaway
    loop fails in the child instead of exhausting the host's memory."""
    limit = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.fixture(scope="session")
def run_python():
    """Run Python source in a child interpreter that imports this checkout's
    boostcycles, under a time limit and an address-space cap; returns the
    CompletedProcess (stdout and stderr as text). args go to the child's
    sys.argv[1:], as str or bytes."""
    src = str(Path(boostcycles.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}

    def run(source: str, cwd: Path, timeout: float = 120, args=()) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", source, *args],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=cwd,
            env=env,
            preexec_fn=_limit_address_space,
        )

    return run


@pytest.fixture(scope="session")
def lattice_states():
    """Convert exact states written as Fractions, rows [r, w_1..w_n], to the
    states column of an exact BoostTrace: (T, n+3) rows [p, q, D, a_1..a_n]
    of Python ints, the edge in lowest terms and the weights as a lattice
    point (`engine._lattice_point`)."""

    def convert(states) -> np.ndarray:
        states = np.asarray(states, dtype=object)
        ints = np.empty((len(states), states.shape[1] + 2), dtype=object)
        for t, (r, *w) in enumerate(states.tolist()):
            ints[t] = [r.numerator, r.denominator, *_lattice_point(w).tolist()]
        return ints

    return convert
