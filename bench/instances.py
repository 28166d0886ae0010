"""Seeded small-rational instances for the benchmark.

``random_system`` draws a system whose entries are exact fractions
``num/den`` with small numerators and denominators, optionally with one
column replaced by the negation of another. Every system has full row rank
(checked exactly), so the program and the oracle see the same system and no
row is dropped by reduction.

``InstanceStream`` feeds a workload. Its pool of base systems, one per
command of a pass, is drawn once from ``POOL_SEED``; every pass presents each
base system under a fresh transform drawn from the run's seed: a unimodular
row combination, a sign flip per column and a rescaling of ``b``. These keep
the solution geometry, so the answers map over exactly and the work stays the
same. So the spread between seeds measures the program, not which systems
happened to be drawn; with fresh random systems per seed, scan-grid
throughput moved by about 30% between seeds. No system repeats within a
stream, so each command looks like a fresh CLI invocation and a cache keyed
on the instance's bytes, kept across ``main()`` calls in one process, cannot
make the benchmark faster. A cache keyed on a canonical form of the solution
set (row-reduced, column signs and the scale of ``b`` normalised) would hit
from the second pass on; the pool trades that for steady timings.
"""
from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from oracle import exact_rank

POOL_SEED = 20150108


def random_system(rng: random.Random, m: int, n: int, negdup: bool = False):
    """A full-row-rank m x n system (A, b, tied) of Fractions.

    With ``negdup`` the columns ``tied = (src, dst)`` satisfy
    A[:, dst] = -A[:, src]; the two columns then give basic solutions with
    equal moduli, hence exact objective ties for every exponent. Otherwise
    ``tied`` is None.
    """

    def entry(num_max, den_max):
        return Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))

    while True:
        A = [[entry(6, 5) for _ in range(n)] for _ in range(m)]
        b = [entry(5, 4) for _ in range(m)]
        tied = tuple(rng.sample(range(n), 2)) if negdup else None
        if tied:
            for row in A:
                row[tied[1]] = -row[tied[0]]
        if any(b) and exact_rank(A) == m:
            return A, b, tied


def transform(rng: random.Random, A, b, tied=None):
    """(M A S, c M b) for a unimodular integer M, column signs S and scale c.

    Solutions map as x -> c S x, so supports, ties and the vertex structure
    of every polytope the program builds are unchanged. A tied column pair
    gets one sign, so a negated duplicate stays negated.
    """
    m, n = len(A), len(A[0])
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    if tied:
        signs[tied[1]] = signs[tied[0]]
    lower = [[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(m)] for i in range(m)]
    upper = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(m)] for i in range(m)]
    M = [[sum(lower[i][k] * upper[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    scale = Fraction(rng.randint(2, 5), rng.randint(2, 5))
    A2 = [[signs[j] * sum(M[i][k] * A[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    b2 = [scale * sum(M[i][k] * b[k] for k in range(m)) for i in range(m)]
    return A2, b2


class InstanceStream:
    """Distinct transformed copies of a fixed pool, one pass at a time."""

    def __init__(self, shapes, seed: int):
        pool_rng = random.Random(POOL_SEED)
        self._pool = [random_system(pool_rng, m, n, negdup) for m, n, negdup in shapes]
        self._rng = random.Random(seed)
        self._seen: set[tuple] = set()

    def next_pass(self) -> list[tuple[list, list]]:
        systems = []
        for A, b, tied in self._pool:
            while True:
                A2, b2 = transform(self._rng, A, b, tied)
                key = (tuple(map(tuple, A2)), tuple(b2))
                if key not in self._seen:
                    break
            self._seen.add(key)
            systems.append((A2, b2))
        return systems


def write_instance(path: Path, A, b) -> Path:
    """Write (A, b) in the instance text format, entries as exact fractions."""
    lines = [f"{len(A)} {len(A[0])}"]
    lines.extend(" ".join(str(v) for v in row) for row in A)
    lines.append(" ".join(str(v) for v in b))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
