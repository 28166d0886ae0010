"""Exact desk-scale solvers for the sparse and concave-power objectives.

``basic_table`` solves every m-column block of A once and keeps each
distinct basic solution. Every sparsest solution is basic, and so is every
minimizer of sum(|x_i|^p) for 0 < p <= 1 (Ge, Jiang & Ye, Math. Prog. 2011):
``solve_l0`` reads the rows of least support and ``solve_lp_extreme`` scores
the rows with one power and one argmin. ``solve_lp_corank1`` is an
independent breakpoint oracle for one-dimensional solution sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, inf, isfinite

import numpy as np

from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .errors import BlowupLimit, CorankMismatch, NumericalRankFailure
from .polytope import build_lambda
from .system import Instance, SolutionParam, _nonsingular, decompose

__all__ = [
    "SparseSolution",
    "LpSolution",
    "BasicTable",
    "basic_table",
    "lp_objective",
    "solve_l0",
    "solve_lp_extreme",
    "solve_lp_corank1",
]


@dataclass(frozen=True)
class SparseSolution:
    """A solution of A x = b together with its support statistics."""

    x: np.ndarray
    support: tuple[int, ...]
    l0: int
    residual: float

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))


@dataclass(frozen=True)
class LpSolution:
    """A minimizer of sum(|x_i|^p) subject to A x = b.

    ``vertex_certificate`` lists the rows of the lifted modulus system
    ``build_lambda(param, radius_used)`` active at (z, c), where c are the
    null-space coordinates of x; it is None for solutions produced by the
    corank-1 breakpoint solver, which never builds the system.
    """

    p: float
    x: np.ndarray
    objective: float
    z: np.ndarray
    vertex_certificate: tuple[int, ...] | None
    radius_used: float | None
    radius_active: bool = False

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        z = np.array(self.z, dtype=float)
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    def l0(self, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
        x_inf = float(np.max(np.abs(self.x))) if self.x.size else 0.0
        return int(np.count_nonzero(np.abs(self.x) > tol.zero_tol(x_inf)))


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"exponent must lie in (0, 1], got {p}")
    return p


def lp_objective(x, p: float) -> float:
    """sum(|x_i|^p); exactly 0 for the zero vector."""
    p = _check_p(p)
    x = np.asarray(x, dtype=float)
    return float(np.sum(np.abs(x) ** p))


@dataclass(frozen=True)
class BasicTable:
    """Every distinct basic solution of A x = b, one per row of ``x``.

    A basic solution solves ``A_B x_B = b`` on a nonsingular m-column block B
    and is zero off B. In each row, coordinates within the zero tolerance of
    the row's largest magnitude are exact zeros, so ``l0`` is the support
    size and ``sum(|x_i|^p)`` carries no dust. Among supports of one size,
    rows are ordered lexicographically by support. ``residual`` is the
    max-norm residual of the block solve; ``param`` is the instance's
    least-norm parameterization, kept so that one table serves every query
    on the instance.
    """

    param: SolutionParam
    x: np.ndarray
    residual: np.ndarray
    l0: np.ndarray

    def __post_init__(self):
        for name in ("x", "residual", "l0"):
            a = np.array(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def minimizers(self, p: float) -> np.ndarray:
        """Rows within a 1e-10 relative tie of the least sum(|x_i|^p)."""
        p = _check_p(p)
        objs = np.sum(np.abs(self.x) ** p, axis=1)
        return np.flatnonzero(objs <= float(np.min(objs)) * (1.0 + 1e-10))

    def sparsest_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x, support, residual) of the rows of minimum support k0, in table order.

        ``support`` is an int array of shape (rows, k0): each of these rows
        has exactly k0 nonzeros, so one ``np.nonzero`` over the selection
        gives every row's support in ascending order.
        """
        rows = self.l0 == np.min(self.l0)
        X = self.x[rows]
        supports = np.nonzero(X)[1].reshape(X.shape[0], -1)
        return X, supports, self.residual[rows]

    def sparsest(self) -> list[SparseSolution]:
        """The rows of minimum support, ordered lexicographically by support."""
        X, supports, residual = self.sparsest_rows()
        k0 = supports.shape[1]
        return [
            SparseSolution(x=x, support=s, l0=k0, residual=r)
            for x, s, r in zip(X, supports.tolist(), residual.tolist())
        ]


def _first_of_each(mask: np.ndarray) -> np.ndarray:
    """Index of the first row of each distinct row of a bool matrix, with the
    rows in lexicographic order (False before True).

    Each row is packed eight columns to a byte, first column in the top bit,
    and read as one opaque byte string. Byte strings compare like the rows
    themselves (the zero padding of the last byte is common to all), and
    np.unique's stable sort keeps the first row of each, so this equals
    ``np.unique(mask, axis=0, return_index=True)[1]`` for any row length,
    without sorting structured rows.
    """
    packed = np.packbits(mask, axis=1)
    return np.unique(packed.view(f"V{packed.shape[1]}")[:, 0], return_index=True)[1]


def basic_table(
    inst: Instance,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> BasicTable:
    """Solve all C(n, m) column blocks of the full-row-rank A in one batch.

    Blocks below the ``tol.rank`` fraction of Hadamard's bound on their
    determinant count as singular. A support inside a nonsingular block has
    independent columns and so carries exactly one solution: rows that agree
    on their support after the zero snap are one solution, kept once.
    """
    A, b = inst.A, inst.b
    m, n = A.shape
    if n > caps.n_max:
        raise BlowupLimit(
            f"basic-solution table: n={n} unknowns ({comb(n, m)} column blocks) "
            f"beyond cap n_max={caps.n_max}"
        )
    param = decompose(inst, tol=tol)
    blocks = np.array(list(combinations(range(n), m)), dtype=np.intp)
    sub = A[:, blocks].transpose(1, 0, 2)  # sub[k] = A[:, blocks[k]]
    ok = _nonsingular(sub, tol.rank)
    blocks = blocks[ok]
    rhs = np.broadcast_to(b[:, None], (blocks.shape[0], m, 1))
    X = np.zeros((blocks.shape[0], n))
    np.put_along_axis(X, blocks, np.linalg.solve(sub[ok], rhs)[..., 0], axis=1)
    resid = np.max(np.abs(X @ A.T - b), axis=1)
    keep = resid <= tol.feas_tol(float(np.max(np.abs(b))))
    if not np.any(keep):
        raise NumericalRankFailure("no column block yields a feasible basic solution")
    X, resid = X[keep], resid[keep]
    X[np.abs(X) <= tol.zero_tol(np.max(np.abs(X), axis=1))[:, None]] = 0.0
    # sorting the zero masks orders equal-size supports lexicographically
    first = _first_of_each(X == 0.0)
    return BasicTable(
        param=param,
        x=X[first],
        residual=resid[first],
        l0=np.count_nonzero(X[first], axis=1),
    )


def solve_l0(
    inst: Instance,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> list[SparseSolution]:
    """All minimum-support solutions, ordered lexicographically by support.

    A sparsest solution has independent support columns, hence is basic:
    these are the rows of least support in the basic-solution table.
    """
    return basic_table(inst, tol=tol, caps=caps).sparsest()


def solve_lp_extreme(
    inst: Instance,
    p: float,
    radius_override: float | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> list[LpSolution]:
    """All basic-solution minimizers of sum(|x_i|^p) subject to A x = b.

    By Ge, Jiang & Ye ("A note on the complexity of Lp minimization", Math.
    Prog. 2011) every local minimizer for p < 1 is a basic solution; for
    p = 1 the minimizers form a face of the solution polyhedron whose extreme
    points are basic. So the minimizers are scored on the basic-solution
    table: all rows within a 1e-10 relative objective tie are returned,
    ordered lexicographically by modulus vector. Their modulus vectors are
    exactly the vertex minimizers of G(r) at the default radius.

    ``radius_used`` defaults to the p-quasinorm of the least-norm solution:
    any minimizer x satisfies |x_i| <= ||x||_p <= ||x_ls||_p, so the box of
    G(r) certifiably contains every minimizer. For tiny p that quasinorm can
    pass the float range; the default is then the largest ||x||_inf over the
    table's rows, which bounds every minimizer because each is a row. An
    override replaces that radius but not the minimizer set;
    ``radius_active`` flags minimizers that reach the override box, which
    shows the override does not bound them; it stays False under the
    default radius, which bounds every minimizer by construction.
    ``vertex_certificate`` lists the rows of the lifted system
    ``build_lambda(param, radius_used)`` active at (z, c), with c the
    null-space coordinates of x; no projection is built.
    """
    p = _check_p(p)
    table = basic_table(inst, tol=tol, caps=caps)
    param = table.param
    if radius_override is not None:
        r = float(radius_override)
        if not 0.0 < r < inf:
            raise ValueError(f"radius override must be a positive finite number, got {r}")
    else:
        r = _quasinorm(param.x_ls, p)
        if not isfinite(r):
            r = float(np.max(np.abs(table.x)))
    box = inf if radius_override is None else r - tol.dedup_tol(r)
    lam = build_lambda(param, r, tol=tol, caps=caps)
    idx = table.minimizers(p)
    idx = idx[np.lexsort(np.abs(table.x[idx]).T[::-1])]
    solutions: list[LpSolution] = []
    for x in table.x[idx]:
        z = np.abs(x)
        lifted = np.concatenate([z, param.N.T @ (x - param.x_ls)])
        solutions.append(
            LpSolution(
                p=p,
                x=x,
                objective=lp_objective(x, p),
                z=z,
                vertex_certificate=tuple(int(i) for i in lam.active_rows(lifted, tol)),
                radius_used=r,
                radius_active=bool(np.max(z) >= box),
            )
        )
    return solutions


def _quasinorm(x: np.ndarray, p: float) -> float:
    """||x||_p as M (sum (|x_i| / M)^p)^(1/p) with M = ||x||_inf; inf past the
    float range. The inner sum lies in [1, n], so only the last power can
    overflow."""
    a = np.abs(x)
    M = float(np.max(a))
    with np.errstate(over="ignore"):
        return M * float(np.sum((a / M) ** p) ** (1.0 / p))


def solve_lp_corank1(
    inst: Instance,
    p: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> LpSolution:
    """Breakpoint minimizer of sum(|x_i|^p) on a one-dimensional solution set.

    Along the solution line the objective is concave between consecutive
    component roots and coercive, so its global minimum is attained where
    some component vanishes. Evaluates every such breakpoint and returns the
    argmin (ties broken by the smaller parameter value).
    """
    p = _check_p(p)
    param = decompose(inst, tol=tol)
    if param.d != 1:
        raise CorankMismatch(f"corank {param.d}, need exactly 1")
    u = param.N[:, 0]
    x_ls = param.x_ls
    breaks = sorted(
        float(-x_ls[i] / u[i]) for i in range(u.shape[0]) if abs(u[i]) > 1e-12
    )
    best_t = None
    best_obj = np.inf
    for t in breaks:
        obj = lp_objective(x_ls + t * u, p)
        if obj < best_obj * (1.0 - 1e-14) or best_t is None:
            best_obj = obj
            best_t = t
    x = x_ls + best_t * u
    x_inf = float(np.max(np.abs(x)))
    x = np.where(np.abs(x) <= tol.zero_tol(x_inf), 0.0, x)
    return LpSolution(
        p=p,
        x=x,
        objective=lp_objective(x, p),
        z=np.abs(x),
        vertex_certificate=None,
        radius_used=None,
    )
