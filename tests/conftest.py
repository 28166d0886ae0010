"""Shared fixtures: canonical instances, small random-instance generators and
a text comparison that stays fast on long reports."""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lpequiv import Instance, load_and_reduce

DATA_DIR = Path(__file__).parent / "data"

# 3x4 corank-1 system whose solution line passes through the points
# x(t) = (t, -4/27 + 40/27 t, 29/9 (1 - 20/29 t), 58/135 (1 - 20/29 t));
# its unique sparsest solution is (1.45, 2, 0, 0).
EX1_MATRIX = [
    [Fraction(-20, 29), Fraction(1), Fraction(31, 87), Fraction(0)],
    [Fraction(0), Fraction(1), Fraction(8, 15), Fraction(1)],
    [Fraction(60, 29), Fraction(0), Fraction(463, 435), Fraction(-1)],
]
EX1_RHS = [1.0, 2.0, 3.0]


def ex1_point(t: float) -> np.ndarray:
    """Point on the demo solution line, parameterized by its first coordinate."""
    s = 1.0 - 20.0 * t / 29.0
    return np.array([t, -4.0 / 27.0 + 40.0 / 27.0 * t, 29.0 / 9.0 * s, 58.0 / 135.0 * s])


@pytest.fixture(scope="session")
def ex1() -> Instance:
    A = [[float(v) for v in row] for row in EX1_MATRIX]
    return load_and_reduce(A, EX1_RHS, name="example1")


@pytest.fixture(scope="session")
def ex1_path() -> Path:
    return DATA_DIR / "example1.txt"


@pytest.fixture(scope="session")
def pair11() -> Instance:
    """x1 + x2 = 1; least-norm solution (0.5, 0.5)."""
    return load_and_reduce([[1.0, 1.0]], [1.0], name="pair11")


@pytest.fixture(scope="session")
def coord23() -> Instance:
    """x1 = 1, x2 = 2 in R^3; solution set is a line in the third coordinate."""
    return load_and_reduce([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0], name="coord23")


def random_instance(rng: np.random.Generator, m: int, n: int) -> Instance:
    """Full-row-rank instance with small-rational entries and nonzero rhs."""
    while True:
        num = rng.integers(-6, 7, size=(m, n))
        den = rng.integers(1, 6, size=(m, n))
        A = num / den
        b_num = rng.integers(-5, 6, size=m)
        b_den = rng.integers(1, 5, size=m)
        b = b_num / b_den
        if np.max(np.abs(b)) == 0.0:
            continue
        if np.linalg.matrix_rank(A) != m:
            continue
        return load_and_reduce(A, b)


# seeded random_instance shapes past the hand-made examples: name -> (m, n, seed)
LADDER = {
    "3x5": (3, 5, 351),
    "4x6": (4, 6, 462),
    "3x6": (3, 6, 363),
}


def ladder_instance(name: str) -> Instance:
    m, n, seed = LADDER[name]
    return random_instance(np.random.default_rng(seed), m, n)


def integer_instance(rng: np.random.Generator, m: int, n: int, negdup: bool = False) -> Instance:
    """Small-integer system; with negdup, the last column negates column 0."""
    while True:
        cols = n - 1 if negdup else n
        A = rng.integers(-6, 7, size=(m, cols)).astype(float)
        if negdup:
            A = np.hstack([A, -A[:, :1]])
        b = rng.integers(-5, 6, size=m).astype(float)
        if np.any(b) and np.linalg.matrix_rank(A) == m:
            return load_and_reduce(A, b)


def random_corank1_instance(rng: np.random.Generator, n: int) -> Instance:
    return random_instance(rng, n - 1, n)


def seeded_small_instances():
    rng = np.random.default_rng(55)
    for m, n in ((1, 3), (2, 4), (1, 4), (3, 5), (2, 5)):
        for negdup in (False, True):
            yield integer_instance(rng, m, n, negdup)


def assert_same_text(got: str, want: str) -> None:
    """Fail unless the two texts are equal, naming the first line that differs.

    A plain ``assert got == want`` on reports of many kilobytes makes pytest
    diff them line by line, which can take minutes; this reports only the
    line number, both lines and both lengths.
    """
    if got == want:
        return
    got_lines = got.splitlines(keepends=True)
    want_lines = want.splitlines(keepends=True)
    i = next(
        (i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
        min(len(got_lines), len(want_lines)),
    )

    def line(lines):
        return repr(lines[i]) if i < len(lines) else "(end of text)"

    pytest.fail(
        f"texts differ first at line {i + 1}:\n"
        f"  got  {line(got_lines)}\n"
        f"  want {line(want_lines)}\n"
        f"lengths: got {len(got)} characters in {len(got_lines)} lines, "
        f"want {len(want)} characters in {len(want_lines)} lines"
    )
