"""Validated underdetermined systems and their affine solution geometry.

A consistent system ``A x = b`` with full row rank ``m < n`` has the solution
set ``{x_ls + N c : c in R^d}`` where ``x_ls`` is the least-norm solution (the
unique solution inside the row space of ``A``), the columns of ``N`` form an
orthonormal basis of the null space of ``A`` and ``d = n - m`` is the corank.
This module validates and row-reduces raw input, computes that
parameterization, and defines the on-disk instance text format.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    DimensionMismatch,
    InconsistentSystem,
    InstanceParseError,
    NotUnderdetermined,
    NumericalRankFailure,
    ZeroRhs,
)

__all__ = [
    "Instance",
    "SolutionParam",
    "load_and_reduce",
    "decompose",
    "solution_at",
    "parse_instance_text",
    "load_instance",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Instance:
    """A validated, row-reduced system ``A x = b``.

    ``A`` is m-by-n with full row rank and m < n; ``b`` is nonzero. Instances
    are immutable and safe to share between threads.
    """

    A: np.ndarray
    b: np.ndarray
    name: str | None = None

    def __post_init__(self):
        A = _readonly(self.A)
        b = _readonly(self.b)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise DimensionMismatch(
                f"matrix {A.shape} incompatible with rhs {b.shape}"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("matrix entries must be finite")
        m, n = A.shape
        if m < 1 or n < 2:
            raise DimensionMismatch(f"need at least 1 row and 2 columns, got {m}x{n}")
        if m >= n:
            raise NotUnderdetermined(f"{m} independent rows for {n} unknowns")
        if np.max(np.abs(b)) == 0.0:
            raise ZeroRhs("right-hand side is zero")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class SolutionParam:
    """Affine parameterization of the solution set of an instance.

    Every solution of ``A x = b`` equals ``x_ls + N c`` for exactly one
    ``c`` in R^d. ``N`` has orthonormal columns and ``x_ls`` is orthogonal
    to all of them.
    """

    x_ls: np.ndarray
    N: np.ndarray
    d: int
    instance: Instance = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x_ls", _readonly(self.x_ls))
        object.__setattr__(self, "N", _readonly(self.N))


def _numerical_rank(M: np.ndarray, rel_tol: float) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def _nonsingular(blocks: np.ndarray, rel_tol: float, axis: int = 1) -> np.ndarray:
    """Mask of the square blocks whose |det| exceeds ``rel_tol`` times Hadamard's bound.

    The bound multiplies the norms of the columns (``axis=1``) or rows
    (``axis=2``). Each is first scaled by the power of two above its largest
    entry, so nothing overflows or underflows; an all-zero column or row
    gives det 0, so its block is singular. Scaling keeps the ratio only up
    to rounding (numpy's det is the exponential of a log-determinant, and
    row scaling can change the pivot order), so a block within rounding of
    the threshold may be decided differently than without scaling.
    """
    _, e = np.frexp(np.max(np.abs(blocks), axis=axis, keepdims=True))
    scaled = np.ldexp(blocks, -e)
    hadamard = np.prod(np.linalg.norm(scaled, axis=axis), axis=1)
    return np.abs(np.linalg.det(scaled)) > rel_tol * hadamard


def load_and_reduce(
    raw_matrix,
    raw_rhs,
    name: str | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Instance:
    """Validate a raw system and reduce it to full row rank.

    Keeps a maximal set of linearly independent rows, preferring earlier rows,
    so the reduced system consists of rows of the input verbatim and has the
    identical solution set.

    Raises InconsistentSystem, ZeroRhs or NotUnderdetermined on invalid input.
    """
    A0 = np.array(raw_matrix, dtype=float)
    b0 = np.array(raw_rhs, dtype=float).ravel()
    if A0.ndim != 2 or A0.shape[0] != b0.shape[0]:
        raise DimensionMismatch(
            f"matrix {A0.shape} incompatible with rhs {b0.shape}"
        )
    if not (np.all(np.isfinite(A0)) and np.all(np.isfinite(b0))):
        raise ValueError("input entries must be finite")
    m0, n = A0.shape
    if m0 < 1 or n < 2:
        raise DimensionMismatch(f"need at least 1 row and 2 columns, got {m0}x{n}")

    rank_a = _numerical_rank(A0, tol.rank)
    rank_aug = _numerical_rank(np.hstack([A0, b0[:, None]]), tol.rank)
    if rank_aug > rank_a:
        raise InconsistentSystem(
            f"augmented rank {rank_aug} exceeds matrix rank {rank_a}"
        )
    if rank_a >= n:
        raise NotUnderdetermined(f"rank {rank_a} for {n} unknowns")

    # Full row rank keeps every row, and the loop stops at once. By Cauchy
    # interlacing the first k rows of A0 have sigma_1 <= sigma_1(A0) and
    # sigma_k >= sigma_m0(A0), so each prefix passes the same relative rank
    # test as A0 (up to rounding at the threshold): the loop would select
    # every row in order anyway.
    selected: list[int] = list(range(m0)) if rank_a == m0 else []
    for i in range(m0):
        if len(selected) == rank_a:
            break
        trial = A0[selected + [i]]
        if _numerical_rank(trial, tol.rank) == len(selected) + 1:
            selected.append(i)
    if len(selected) != rank_a:
        raise NumericalRankFailure(
            f"could not select {rank_a} independent rows"
        )
    A = A0[selected]
    b = b0[selected]
    if b.size == 0 or np.max(np.abs(b)) == 0.0:
        raise ZeroRhs("right-hand side is zero after reduction")
    return Instance(A=A, b=b, name=name)


def decompose(inst: Instance, tol: Tolerances = DEFAULT_TOLERANCES) -> SolutionParam:
    """Compute the least-norm solution and an orthonormal null-space basis.

    Columns of the basis are sign-canonicalized (largest-magnitude entry
    positive) so repeated runs produce identical output.

    Raises NumericalRankFailure if full row rank cannot be certified.
    """
    A, b = inst.A, inst.b
    m, n = A.shape
    U, s, Vt = np.linalg.svd(A, full_matrices=True)
    if s.size < m or s[m - 1] <= tol.rank * s[0]:
        raise NumericalRankFailure(
            f"cannot certify row rank {m}: singular values {s}"
        )
    x_ls = Vt[:m].T @ ((U.T @ b) / s[:m])
    N = Vt[m:].T.copy()
    for j in range(N.shape[1]):
        i = int(np.argmax(np.abs(N[:, j])))
        if N[i, j] < 0:
            N[:, j] = -N[:, j]

    feas = tol.feas_tol(float(np.max(np.abs(b))))
    if np.max(np.abs(A @ x_ls - b)) > feas:
        raise NumericalRankFailure("least-norm solution fails feasibility")
    if N.size and np.max(np.abs(A @ N)) > feas:
        raise NumericalRankFailure("null basis fails A N = 0")
    gram = N.T @ N - np.eye(N.shape[1])
    if gram.size and np.max(np.abs(gram)) > tol.orth:
        raise NumericalRankFailure("null basis not orthonormal")
    if N.size and np.max(np.abs(N.T @ x_ls)) > tol.orth * (
        1.0 + float(np.max(np.abs(x_ls)))
    ):
        raise NumericalRankFailure("least-norm solution not in the row space")
    return SolutionParam(x_ls=x_ls, N=N, d=n - m, instance=inst)


def solution_at(param: SolutionParam, c) -> np.ndarray:
    """Evaluate the affine parameterization at null-space coordinates ``c``."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.shape != (param.d,):
        raise DimensionMismatch(f"expected {param.d} coordinates, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("coordinates must be finite")
    return param.x_ls + param.N @ c


def _parse_entry(token: str, lineno: int) -> float:
    # Entries may be decimals or exact fractions like -20/29.
    try:
        return float(Fraction(token))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InstanceParseError(f"bad entry {token!r}", line=lineno) from exc


def parse_instance_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse the instance text format into a raw (matrix, rhs) pair.

    Format: UTF-8 lines; '#' starts a comment; first non-comment line is
    "m n"; the next m non-comment lines hold n whitespace-separated entries
    each (decimal or p/q fraction); the final non-comment line holds the m
    entries of b.
    """
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append((lineno, stripped.split()))
    if not rows:
        raise InstanceParseError("empty instance file")

    lineno, header = rows[0]
    if len(header) != 2:
        raise InstanceParseError("expected header 'm n'", line=lineno)
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InstanceParseError("expected integer dimensions", line=lineno) from exc
    if m < 1 or n < 1:
        raise InstanceParseError("dimensions must be positive", line=lineno)
    if len(rows) != m + 2:
        raise InstanceParseError(
            f"expected {m} matrix lines plus one rhs line, found {len(rows) - 1}",
            line=rows[-1][0],
        )

    A = np.empty((m, n), dtype=float)
    for i in range(m):
        lineno, tokens = rows[1 + i]
        if len(tokens) != n:
            raise InstanceParseError(
                f"expected {n} entries, found {len(tokens)}", line=lineno
            )
        A[i] = [_parse_entry(t, lineno) for t in tokens]
    lineno, tokens = rows[m + 1]
    if len(tokens) != m:
        raise InstanceParseError(
            f"expected {m} rhs entries, found {len(tokens)}", line=lineno
        )
    b = np.array([_parse_entry(t, lineno) for t in tokens])
    return A, b


def load_instance(path, tol: Tolerances = DEFAULT_TOLERANCES) -> Instance:
    """Read an instance file, parse it and reduce it to full row rank."""
    path = Path(path)
    A, b = parse_instance_text(path.read_text(encoding="utf-8"))
    return load_and_reduce(A, b, name=path.stem, tol=tol)
