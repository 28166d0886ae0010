"""Half-space polyhedra at desk scale.

The key object is the modulus-dominance polytope

    G(r) = { z in [0, r]^n : some solution x of A x = b satisfies |x| <= z }

whose extreme points carry the candidate minimizers of every concave power
objective sum(z_i^p) with 0 < p <= 1.

The path behind ``r_m`` is ``build_lambda`` (the lift that couples ``z`` to
the null-space coordinates ``c``), ``g_of_r`` (its projection onto ``z`` by
Fourier-Motzkin elimination, ``fm_eliminate``) and ``g_vertices``, which
reads the lift's vertices off d pinned coordinates (C(n, d) 3^d d-by-d
solves) and keeps those whose active rows of G(r) reach full rank.
``enumerate_vertices`` (all square subsystems of any bounded polyhedron)
and ``feasible`` (exact emptiness) are reference tools the tests check
that path against.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, inf

import numpy as np

from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .errors import BlowupLimit, DimensionMismatch, Unbounded
from .system import SolutionParam, _nonsingular

__all__ = [
    "HPolyhedron",
    "VertexSet",
    "build_lambda",
    "fm_eliminate",
    "g_of_r",
    "enumerate_vertices",
    "feasible",
    "g_vertices",
]

TAG_DERIVED = "derived"

# Coefficients below this fraction of the row magnitude are snapped to exact
# zero during normalization; keeps sign classification stable in the
# elimination loop.
_COEF_SNAP = 1e-13

_SOLVE_CHUNK = 16384
_RAY_SEARCH_CAP = 20000
_SLACK_ENTRIES = 1 << 22


def _row_inf(H: np.ndarray) -> np.ndarray:
    if H.shape[0] == 0 or H.shape[1] == 0:
        return np.zeros(H.shape[0])
    return np.max(np.abs(H), axis=1)


@dataclass(frozen=True)
class HPolyhedron:
    """Finite list of half-space rows ``<h, x> <= gamma``.

    A zero-dimensional polyhedron (constant rows only) can result from
    eliminating every variable.
    """

    H: np.ndarray
    g: np.ndarray
    # never read; acceptance criterion 8 still passes tags=(TAG_DERIVED, ...)
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        H = np.array(self.H, dtype=float)
        g = np.array(self.g, dtype=float).ravel()
        if H.ndim != 2 or H.shape[0] != g.shape[0]:
            raise DimensionMismatch(f"rows {H.shape} incompatible with {g.shape}")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(g))):
            raise ValueError("half-space rows must be finite")
        H.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)

    @property
    def dim(self) -> int:
        return self.H.shape[1]

    @property
    def nrows(self) -> int:
        return self.H.shape[0]

    @property
    def empty(self) -> bool:
        """True if a constant row 0 <= gamma with gamma < 0 is present."""
        return bool(np.any((_row_inf(self.H) == 0.0) & (self.g < 0.0)))

    def row_scales(self) -> np.ndarray:
        return np.maximum(1.0, np.maximum(_row_inf(self.H), np.abs(self.g)))

    def contains(self, z, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise DimensionMismatch(f"point {z.shape} in dimension {self.dim}")
        return bool(self.contains_many(z[None, :], tol)[0])

    def contains_many(self, Z: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        """Vectorized membership test for points stacked in rows of Z."""
        Z = np.asarray(Z, dtype=float)
        slack = Z @ self.H.T - self.g
        scale = np.max(np.abs(Z), axis=1) if Z.shape[1] else np.zeros(Z.shape[0])
        atol = tol.feas_tol(scale)[:, None] * self.row_scales()[None, :]
        return np.all(slack <= atol, axis=1)

    def active_rows(self, z, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        """Indices of the rows that hold with equality at z, within tolerance."""
        return np.flatnonzero(self.active_mask(np.asarray(z, dtype=float)[None, :], tol)[0])

    def active_mask(self, Z: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        """Row activity for points stacked in rows of Z: one slack matrix."""
        Z = np.asarray(Z, dtype=float)
        resid = np.abs(Z @ self.H.T - self.g)
        scale = np.max(np.abs(Z), axis=1) if Z.shape[1] else np.zeros(Z.shape[0])
        return resid <= tol.feas_tol(scale)[:, None] * self.row_scales()[None, :]


@dataclass(frozen=True)
class VertexSet:
    """Complete list of extreme points of a bounded HPolyhedron.

    Points are lexicographically sorted; ``active_sets[i]`` lists every row
    index of ``source`` active at ``points[i]`` within tolerance, so
    degenerate vertices carry the union of their touching rows.
    """

    points: np.ndarray
    active_sets: tuple[tuple[int, ...], ...]
    source: HPolyhedron

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            pts = pts.reshape(0, self.source.dim)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "active_sets", tuple(tuple(a) for a in self.active_sets))

    def __len__(self) -> int:
        return self.points.shape[0]


def _normalize_rows(H: np.ndarray, g: np.ndarray, tol: Tolerances):
    """Scale rows to unit max-coefficient, snap dust, drop trivial constants,
    and collapse duplicate rows keeping the tightest bound."""
    scale = _row_inf(H)
    if H.shape[1]:
        H = np.where(np.abs(H) <= _COEF_SNAP * scale[:, None], 0.0, H)
        scale = _row_inf(H)

    const = scale == 0.0
    # Trivially satisfied constant rows disappear; violated ones are kept as
    # infeasibility certificates.
    g_span = float(np.max(np.abs(g))) if g.size else 0.0
    trivial = const & (g >= -tol.feas * (1.0 + g_span))
    keep = ~trivial
    H, g, scale = H[keep], g[keep], scale[keep]

    nz = scale > 0.0
    div = np.where(nz, scale, 1.0)
    H = H / div[:, None] if H.shape[1] else H
    g = g / div

    # Duplicate normal vectors (equal to 12 decimals, -0.0 == 0.0): keep the
    # smallest bound, the earliest row on ties, groups in first-row order.
    _, first, group = np.unique(
        np.round(H, 12) + 0.0, axis=0, return_index=True, return_inverse=True
    )
    group = group.ravel()
    order = np.lexsort((g, group))
    best = order[np.unique(group[order], return_index=True)[1]]
    sel = best[np.argsort(first)]
    return H[sel], g[sel]


def _fm_step(H, g, col: int, tol: Tolerances, caps: Caps):
    coef = H[:, col]
    zero = coef == 0.0
    pos = coef > 0.0
    neg = coef < 0.0
    n_new = int(np.count_nonzero(pos)) * int(np.count_nonzero(neg))
    if n_new + int(np.count_nonzero(zero)) > caps.fm_row_cap:
        raise BlowupLimit(
            f"elimination would create {n_new} rows (cap {caps.fm_row_cap})"
        )
    keep_cols = [j for j in range(H.shape[1]) if j != col]
    H_zero, g_zero = H[zero][:, keep_cols], g[zero]

    Hp, gp, ap = H[pos], g[pos], coef[pos]
    Hn, gn, an = H[neg], g[neg], coef[neg]
    # Pairing a row with positive coefficient a_p and one with negative
    # coefficient a_n: a_p * row_n - a_n * row_p cancels the column.
    H_new = ap[:, None, None] * Hn[None, :, :] - an[None, :, None] * Hp[:, None, :]
    g_new = ap[:, None] * gn[None, :] - an[None, :] * gp[:, None]
    H_new = H_new.reshape(n_new, H.shape[1])[:, keep_cols]
    g_new = g_new.reshape(n_new)
    H_out = np.vstack([H_zero, H_new])
    g_out = np.concatenate([g_zero, g_new])
    H_out, g_out = _normalize_rows(H_out, g_out, tol)
    if H_out.shape[0] > caps.fm_row_cap:
        raise BlowupLimit(
            f"{H_out.shape[0]} rows after elimination (cap {caps.fm_row_cap})"
        )
    return H_out, g_out


def fm_eliminate(
    poly: HPolyhedron,
    drop_vars,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> HPolyhedron:
    """Project a polyhedron onto the complement of ``drop_vars``.

    Classical Fourier-Motzkin elimination with syntactic pruning only
    (normalization, duplicate removal, tighter-bound domination). The result
    has the same solution set as the coordinate projection of the input.
    Variables are eliminated in descending index order.
    """
    drop = sorted(set(int(v) for v in drop_vars), reverse=True)
    if any(v < 0 or v >= poly.dim for v in drop):
        raise DimensionMismatch(f"drop indices {drop} out of range for dim {poly.dim}")
    H, g = _normalize_rows(poly.H, poly.g, tol)
    for col in drop:
        H, g = _fm_step(H, g, col, tol, caps)
    return HPolyhedron(H=H, g=g)


def feasible(
    poly: HPolyhedron,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> bool:
    """Exact emptiness test: eliminate all variables, check constant rows."""
    if poly.empty:
        return False
    H, g = _normalize_rows(poly.H, poly.g, tol)
    g_span = float(np.max(np.abs(poly.g))) if poly.nrows else 0.0
    for col in reversed(range(poly.dim)):
        H, g = _fm_step(H, g, col, tol, caps)
        if g.size:
            g_span = max(g_span, float(np.max(np.abs(g))))
    if g.size == 0:
        return True
    return bool(np.min(g) >= -tol.feas * (1.0 + g_span))


def build_lambda(
    param: SolutionParam,
    r: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> HPolyhedron:
    """Lifted modulus system in variables (z in R^n, c in R^d).

    Rows encode ``-z - N c <= x_ls`` and ``-z + N c <= -x_ls`` (together:
    ``|x_ls + N c| <= z``) plus the box ``0 <= z <= r``. Working in the
    null-space coordinates c is an exact reparameterization of the solution
    set that keeps the elimination small.
    """
    r = float(r)
    if not 0.0 < r < inf:
        raise ValueError(f"radius must be a positive finite number, got {r}")
    x_ls, N = param.x_ls, param.N
    n, d = x_ls.shape[0], param.d
    I = np.eye(n)
    zeros = np.zeros((n, d))
    H = np.vstack(
        [
            np.hstack([-I, -N]),  # -z_i - (N c)_i <= x_ls_i
            np.hstack([-I, N]),   # -z_i + (N c)_i <= -x_ls_i
            np.hstack([-I, zeros]),  # z >= 0
            np.hstack([I, zeros]),   # z <= r
        ]
    )
    g = np.concatenate([x_ls, -x_ls, np.zeros(n), np.full(n, r)])
    return HPolyhedron(H=H, g=g)


def g_of_r(
    param: SolutionParam,
    r: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> HPolyhedron:
    """H-representation of the modulus-dominance polytope G(r).

    Obtained by eliminating the null-space coordinates from the lifted
    system; the box rows pass through the elimination unchanged, so the
    result is the projection intersected with [0, r]^n.
    """
    lam = build_lambda(param, r, tol=tol, caps=caps)
    n = param.x_ls.shape[0]
    return fm_eliminate(lam, range(n, n + param.d), tol=tol, caps=caps)


def _combo_chunks(k: int, q: int, chunk: int):
    it = itertools.combinations(range(k), q)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        yield np.array(block, dtype=np.intp)


def _candidate_points(H, g, q: int):
    """Solve every invertible q-row subsystem; yields candidate point chunks."""
    k = H.shape[0]
    for idx in _combo_chunks(k, q, _SOLVE_CHUNK):
        sub_H = H[idx]
        sub_g = g[idx]
        dets = np.linalg.det(sub_H)
        # Hadamard-style scale: near-singular subsets are skipped; a genuine
        # vertex always reappears from a well-conditioned subset of its
        # active rows.
        hscale = np.prod(np.maximum(np.max(np.abs(sub_H), axis=2), 1e-30), axis=1)
        ok = np.abs(dets) > 1e-12 * hscale
        if not np.any(ok):
            continue
        try:
            pts = np.linalg.solve(sub_H[ok], sub_g[ok][..., None])[..., 0]
        except np.linalg.LinAlgError:
            pts_list = []
            for Hs, gs in zip(sub_H[ok], sub_g[ok]):
                try:
                    pts_list.append(np.linalg.solve(Hs, gs))
                except np.linalg.LinAlgError:
                    continue
            if not pts_list:
                continue
            pts = np.vstack(pts_list)
        yield pts


def _dedup_points(pts: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Lexicographically sort points and merge duplicates within tolerance.

    Identical-to-rounding copies are collapsed vectorized first. Of the
    rest, a point is dropped when a kept point before it in lexicographic
    order matches it within ``tol.dedup_tol`` in every coordinate.
    """
    if pts.shape[0] == 0:
        return pts
    _, uniq_idx = np.unique(np.round(pts, 10), axis=0, return_index=True)
    pts = pts[np.sort(uniq_idx)]
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    k, q = pts.shape
    mags = np.max(np.abs(pts), axis=1)
    window = tol.dedup_tol(float(np.max(mags)))
    # matching points lie within `window` in every coordinate, so within it
    # in any convex combination of the coordinates: candidate pairs are
    # near neighbours in the order of one such key
    key = pts @ (np.arange(1.0, q + 1.0) / (q * (q + 1) / 2.0))
    by_key = np.argsort(key, kind="stable")
    sorted_key = key[by_key]
    after = np.searchsorted(sorted_key, sorted_key + 2.0 * window, side="right")
    after -= np.arange(1, k + 1)
    first = np.repeat(np.arange(k), after)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(after) - after, after)
    a, b = by_key[first], by_key[second]
    gap = np.max(np.abs(pts[a] - pts[b]), axis=1)
    close = gap <= tol.dedup_tol(np.maximum(mags[a], mags[b]))
    lo, hi = np.minimum(a, b)[close], np.maximum(a, b)[close]
    kept = np.ones(k, dtype=bool)
    # a point's earlier matches are settled before it is reached
    for i, j in sorted(zip(lo.tolist(), hi.tolist()), key=lambda pair: pair[1]):
        if kept[i]:
            kept[j] = False
    return pts[kept]


def _certified_vertices(poly: HPolyhedron, cand: np.ndarray, tol: Tolerances) -> VertexSet:
    """The candidate points (in their order) whose active rows reach rank
    dim, with those rows; one slack matrix per chunk of candidates and one
    batched SVD per active-row count."""
    q = poly.dim
    points = []
    actives = []
    # bounds the slack matrix of one chunk of candidates against the rows
    chunk = max(1, _SLACK_ENTRIES // max(1, poly.nrows))
    for start in range(0, cand.shape[0], chunk):
        block = cand[start:start + chunk]
        masks = poly.active_mask(block, tol)
        counts = np.count_nonzero(masks, axis=1)
        ok = np.zeros(block.shape[0], dtype=bool)
        for a in np.unique(counts[counts >= q]):
            sel = np.flatnonzero(counts == a)
            rows = np.nonzero(masks[sel])[1].reshape(sel.size, a)
            s = np.linalg.svd(poly.H[rows], compute_uv=False)
            ok[sel] = np.count_nonzero(s > tol.rank * s[:, :1], axis=1) >= q
        points.extend(block[ok])
        actives.extend(tuple(np.flatnonzero(m).tolist()) for m in masks[ok])
    pts = np.array(points) if points else np.empty((0, q))
    return VertexSet(points=pts, active_sets=tuple(actives), source=poly)


def _check_unbounded(poly: HPolyhedron, tol: Tolerances) -> None:
    """Best-effort recession-direction search among candidate rays.

    Candidate directions are the coordinate axes plus null directions of
    rank-(q-1) row subsets; the search is skipped past a fixed budget since
    boundedness is the caller's precondition.
    """
    H = poly.H
    k, q = H.shape
    directions = list(np.eye(q))
    if q >= 2 and comb(k, q - 1) <= _RAY_SEARCH_CAP:
        for idx in _combo_chunks(k, q - 1, _SOLVE_CHUNK):
            for rows in idx:
                sub = H[rows]
                s = np.linalg.svd(sub, compute_uv=False)
                if s.size and np.count_nonzero(s > tol.rank * max(s[0], 1e-30)) == q - 1:
                    _, _, vt = np.linalg.svd(sub)
                    directions.append(vt[-1])
    scales = poly.row_scales() if k else np.empty(0)
    for u in directions:
        norm = float(np.max(np.abs(u)))
        if norm == 0.0:
            continue
        u = u / norm
        proj = H @ u if k else np.empty(0)
        ray_tol = 1e-10 * scales
        if k == 0 or np.all(proj <= ray_tol) or np.all(-proj <= ray_tol):
            raise Unbounded("recession direction found; polyhedron is unbounded")


def enumerate_vertices(
    poly: HPolyhedron,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
    check_unbounded: bool = True,
) -> VertexSet:
    """Complete extreme-point enumeration of a bounded polyhedron.

    Iterates over all row subsets of size dim with invertible coefficient
    block, keeps the feasible solutions, deduplicates them, and certifies
    each survivor by the rank of its full active set. Output is ordered
    lexicographically, so results do not depend on iteration order.
    """
    if poly.empty or poly.dim == 0:
        return VertexSet(points=np.empty((0, poly.dim)), active_sets=(), source=poly)
    k, q = poly.H.shape
    if k < q:
        if not feasible(poly, tol=tol, caps=caps):
            return VertexSet(points=np.empty((0, q)), active_sets=(), source=poly)
        raise Unbounded(f"only {k} rows in dimension {q}")
    if check_unbounded:
        _check_unbounded(poly, tol)
    if comb(k, q) > caps.subset_cap:
        raise BlowupLimit(f"{comb(k, q)} row subsets exceed cap {caps.subset_cap}")
    chunks = []
    for pts in _candidate_points(poly.H, poly.g, q):
        inside = poly.contains_many(pts, tol=tol)
        if np.any(inside):
            chunks.append(pts[inside])
    cand = np.vstack(chunks) if chunks else np.empty((0, q))
    return _certified_vertices(poly, _dedup_points(cand, tol), tol)


def _lift_vertex_moduli(param: SolutionParam, r: float, tol: Tolerances) -> np.ndarray:
    """The z-parts of all vertices of ``build_lambda(param, r)``, with repeats.

    At a vertex of the lift, every coordinate i has a tight row among
    ``z_i >= x_i``, ``z_i >= -x_i``, ``z_i >= 0`` and ``z_i <= r`` (where
    ``x = x_ls + N c``), and the tight rows reach rank n + d. A coordinate's
    rows span at most two directions, so exactly d pinned coordinates D carry
    two independent tight rows: these force ``x_i`` into {0, r, -r} and
    ``z_i = |x_i|``, and full rank needs ``N[D]`` nonsingular. Every other
    coordinate has ``z_i = |x_i|`` or ``z_i = r``. So the x-parts are the
    solutions of ``N[D] c = v - x_ls[D]`` over the d-subsets D and the
    values v in {0, r, -r}^D that keep ``|x| <= r``, and each yields one
    vertex per choice of box-bound free coordinates:
    at most C(n, d) 3^d 2^(n - d) points.
    """
    x_ls, N = param.x_ls, param.N
    n, d = N.shape
    pins = np.array(list(itertools.combinations(range(n), d)), dtype=np.intp)
    sub = N[pins]  # sub[k] = N[pins[k]], the pinned rows
    ok = _nonsingular(sub, tol.rank, axis=2)
    pins, sub = pins[ok], sub[ok]
    values = np.array(list(itertools.product((0.0, r, -r), repeat=d)))
    rhs = values[None, :, :] - x_ls[pins][:, None, :]
    c = np.linalg.solve(sub[:, None], rhs[..., None])[..., 0]
    X = x_ls + c.reshape(-1, d) @ N.T
    fits = np.all(np.abs(X) <= r + tol.feas_tol(r), axis=1)
    X = X[fits]
    is_free = np.ones((pins.shape[0], n), dtype=bool)
    np.put_along_axis(is_free, pins, False, axis=1)
    free = np.nonzero(is_free)[1].reshape(-1, n - d)
    free = np.repeat(free, values.shape[0], axis=0)[fits]
    # one row per subset of the free coordinates raised to the box bound r
    raised = np.array(list(itertools.product((False, True), repeat=n - d)))
    at_box = np.zeros((X.shape[0], raised.shape[0], n), dtype=bool)
    np.put_along_axis(
        at_box,
        np.broadcast_to(free[:, None, :], at_box.shape[:2] + (n - d,)),
        np.broadcast_to(raised[None], at_box.shape[:2] + (n - d,)),
        axis=2,
    )
    return np.where(at_box, r, np.abs(X)[:, None, :]).reshape(-1, n)


def g_vertices(
    param: SolutionParam,
    r: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> VertexSet:
    """All extreme points of G(r), computed through the lifted system.

    Every vertex of a coordinate projection is the projection of some vertex
    of the (bounded) lift: the preimage of an exposed vertex is an exposed
    face, and faces contain vertices. The lift's vertices are read off their
    pinned coordinates (``_lift_vertex_moduli``): C(n, d) 3^d small solves
    and at most C(n, d) 3^d 2^(n - d) candidates, in place of a sweep over
    the C(4n, n + d) row subsets of the lift. The candidates are projected
    to z-space, deduplicated and filtered by the active-row rank test
    against the projected H-representation.
    """
    n, d = param.x_ls.shape[0], param.d
    if n > caps.n_max or d > caps.d_max:
        raise BlowupLimit(
            f"instance size n={n}, d={d} beyond caps ({caps.n_max}, {caps.d_max})"
        )
    gpoly = g_of_r(param, r, tol=tol, caps=caps)
    cand = _dedup_points(_lift_vertex_moduli(param, float(r), tol), tol)
    return _certified_vertices(gpoly, cand, tol)

