"""Half-space polyhedra at desk scale.

Builds the lifted modulus system that couples a bound vector ``z`` to the
null-space coordinates ``c`` of a solution line/plane, projects it onto the
``z`` variables by Fourier-Motzkin elimination, enumerates all extreme points
exhaustively, and decides feasibility exactly (within floating tolerance).

The key object is the modulus-dominance polytope

    G(r) = { z in [0, r]^n : some solution x of A x = b satisfies |x| <= z }

whose extreme points carry the candidate minimizers of every concave power
objective sum(z_i^p) with 0 < p <= 1.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .errors import BlowupLimit, DimensionMismatch, Unbounded
from .system import SolutionParam

__all__ = [
    "HPolyhedron",
    "VertexSet",
    "build_lambda",
    "fm_eliminate",
    "g_of_r",
    "enumerate_vertices",
    "feasible",
    "omega_of_r",
    "g_vertices",
    "dump_text",
]

TAG_BOX = "box"
TAG_LAMBDA = "lambda"
TAG_DERIVED = "derived"

# Coefficients below this fraction of the row magnitude are snapped to exact
# zero during normalization; keeps sign classification stable in the
# elimination loop.
_COEF_SNAP = 1e-13

_SOLVE_CHUNK = 16384
_RAY_SEARCH_CAP = 20000


def _row_inf(H: np.ndarray) -> np.ndarray:
    if H.shape[0] == 0 or H.shape[1] == 0:
        return np.zeros(H.shape[0])
    return np.max(np.abs(H), axis=1)


@dataclass(frozen=True)
class HPolyhedron:
    """Finite list of half-space rows ``<h, x> <= gamma``.

    ``tags`` records per-row provenance: "box" for coordinate bounds,
    "lambda" for rows tying variables to the linear system, "derived" for
    rows produced by elimination. A zero-dimensional polyhedron (constant
    rows only) can result from eliminating every variable.
    """

    H: np.ndarray
    g: np.ndarray
    tags: tuple[str, ...]

    def __post_init__(self):
        H = np.array(self.H, dtype=float)
        g = np.array(self.g, dtype=float).ravel()
        if H.ndim != 2 or H.shape[0] != g.shape[0]:
            raise DimensionMismatch(f"rows {H.shape} incompatible with {g.shape}")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(g))):
            raise ValueError("half-space rows must be finite")
        if len(self.tags) != H.shape[0]:
            raise DimensionMismatch("one tag per row required")
        H.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def dim(self) -> int:
        return self.H.shape[1]

    @property
    def nrows(self) -> int:
        return self.H.shape[0]

    @property
    def empty(self) -> bool:
        """True if a constant row 0 <= gamma with gamma < 0 is present."""
        if self.nrows == 0:
            return False
        return bool(np.any((_row_inf(self.H) == 0.0) & (self.g < 0.0)))

    def row_scales(self) -> np.ndarray:
        if self.nrows == 0:
            return np.empty(0)
        return np.maximum(1.0, np.maximum(_row_inf(self.H), np.abs(self.g)))

    def contains(self, z, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise DimensionMismatch(f"point {z.shape} in dimension {self.dim}")
        if self.nrows == 0:
            return True
        slack = self.H @ z - self.g
        scale = float(np.max(np.abs(z))) if z.size else 0.0
        atol = tol.feas_tol(scale) * self.row_scales()
        return bool(np.all(slack <= atol))

    def contains_many(self, Z: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        """Vectorized membership test for points stacked in rows of Z."""
        Z = np.asarray(Z, dtype=float)
        if self.nrows == 0:
            return np.ones(Z.shape[0], dtype=bool)
        slack = Z @ self.H.T - self.g
        scale = np.max(np.abs(Z), axis=1) if Z.shape[1] else np.zeros(Z.shape[0])
        atol = tol.feas * (1.0 + scale)[:, None] * self.row_scales()[None, :]
        return np.all(slack <= atol, axis=1)

    def active_rows(self, z, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
        """Indices of the rows that hold with equality at z, within tolerance."""
        z = np.asarray(z, dtype=float)
        resid = np.abs(self.H @ z - self.g)
        scale = float(np.max(np.abs(z))) if z.size else 0.0
        atol = tol.feas_tol(scale) * self.row_scales()
        return np.flatnonzero(resid <= atol)


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


def _normalize_rows(H: np.ndarray, g: np.ndarray, tags: list[str], tol: Tolerances):
    """Scale rows to unit max-coefficient, snap dust, drop trivial constants,
    and collapse duplicate rows keeping the tightest bound."""
    if H.shape[0] == 0:
        return H, g, tags
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
    tags = [t for t, k in zip(tags, keep) if k]
    if H.shape[0] == 0:
        return H, g, tags

    nz = scale > 0.0
    div = np.where(nz, scale, 1.0)
    H = H / div[:, None] if H.shape[1] else H
    g = g / div

    # Duplicate normal vectors: keep the smallest bound (dominating row).
    order: dict[tuple, int] = {}
    out_idx: list[int] = []
    for i in range(H.shape[0]):
        key = tuple(np.round(H[i], 12))
        j = order.get(key)
        if j is None:
            order[key] = len(out_idx)
            out_idx.append(i)
        elif g[i] < g[out_idx[j]]:
            out_idx[j] = i
    sel = np.array(out_idx, dtype=int)
    return H[sel], g[sel], [tags[i] for i in sel]


def _fm_step(H, g, tags: list[str], col: int, tol: Tolerances, caps: Caps):
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
    tags_zero = [t for t, z in zip(tags, zero) if z]

    Hp, gp, ap = H[pos], g[pos], coef[pos]
    Hn, gn, an = H[neg], g[neg], coef[neg]
    if n_new:
        # Pairing a row with positive coefficient a_p and one with negative
        # coefficient a_n: a_p * row_n - a_n * row_p cancels the column.
        H_new = ap[:, None, None] * Hn[None, :, :] - an[None, :, None] * Hp[:, None, :]
        g_new = ap[:, None] * gn[None, :] - an[None, :] * gp[:, None]
        H_new = H_new.reshape(n_new, H.shape[1])[:, keep_cols]
        g_new = g_new.reshape(n_new)
        tags_new = [TAG_DERIVED] * n_new
    else:
        H_new = np.empty((0, len(keep_cols)))
        g_new = np.empty(0)
        tags_new = []

    H_out = np.vstack([H_zero, H_new])
    g_out = np.concatenate([g_zero, g_new])
    tags_out = tags_zero + tags_new
    H_out, g_out, tags_out = _normalize_rows(H_out, g_out, tags_out, tol)
    if H_out.shape[0] > caps.fm_row_cap:
        raise BlowupLimit(
            f"{H_out.shape[0]} rows after elimination (cap {caps.fm_row_cap})"
        )
    return H_out, g_out, tags_out


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
    H, g, tags = _normalize_rows(poly.H.copy(), poly.g.copy(), list(poly.tags), tol)
    for col in drop:
        H, g, tags = _fm_step(H, g, tags, col, tol, caps)
    return HPolyhedron(H=H, g=g, tags=tuple(tags))


def feasible(
    poly: HPolyhedron,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> bool:
    """Exact emptiness test: eliminate all variables, check constant rows."""
    if poly.empty:
        return False
    H, g, tags = _normalize_rows(poly.H.copy(), poly.g.copy(), list(poly.tags), tol)
    g_span = float(np.max(np.abs(poly.g))) if poly.nrows else 0.0
    for col in reversed(range(poly.dim)):
        H, g, tags = _fm_step(H, g, tags, col, tol, caps)
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
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r}")
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
    tags = (TAG_LAMBDA,) * (2 * n) + (TAG_BOX,) * (2 * n)
    return HPolyhedron(H=H, g=g, tags=tags)


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


def omega_of_r(param: SolutionParam, r: float) -> HPolyhedron:
    """The solution polytope {x : A x = b, |x_i| <= r} as 2(n+m) explicit rows.

    Row order: interleaved coordinate bounds x_i <= r, -x_i <= r, then the
    system rows A x <= b followed by -A x <= -b (equalities as paired
    inequalities).
    """
    r = float(r)
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    A, b = param.instance.A, param.instance.b
    m, n = A.shape
    rows = np.zeros((2 * n, n))
    for i in range(n):
        rows[2 * i, i] = 1.0
        rows[2 * i + 1, i] = -1.0
    H = np.vstack([rows, A, -A])
    g = np.concatenate([np.full(2 * n, r), b, -b])
    tags = (TAG_BOX,) * (2 * n) + (TAG_LAMBDA,) * (2 * m)
    return HPolyhedron(H=H, g=g, tags=tags)


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

    Identical-to-rounding copies are collapsed vectorized first; the
    remainder is merged with a window scan over the first coordinate.
    """
    if pts.shape[0] == 0:
        return pts
    _, uniq_idx = np.unique(np.round(pts, 10), axis=0, return_index=True)
    pts = pts[np.sort(uniq_idx)]
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    global_scale = float(np.max(np.abs(pts))) if pts.size else 0.0
    window = tol.dedup_tol(global_scale)
    reps: list[np.ndarray] = []
    for p in pts:
        merged = False
        for rep in reversed(reps):
            if p[0] - rep[0] > window:
                break
            scale = max(float(np.max(np.abs(p))), float(np.max(np.abs(rep))))
            if np.max(np.abs(p - rep)) <= tol.dedup_tol(scale):
                merged = True
                break
        if not merged:
            reps.append(p)
    return np.array(reps)


def _numrank(M: np.ndarray, rel_tol: float) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


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
    cand = _dedup_points(cand, tol)

    points = []
    actives = []
    for z in cand:
        act = poly.active_rows(z, tol)
        if act.size < q or _numrank(poly.H[act], tol.rank) < q:
            continue
        points.append(z)
        actives.append(tuple(int(i) for i in act))
    pts = np.array(points) if points else np.empty((0, q))
    return VertexSet(points=pts, active_sets=tuple(actives), source=poly)


def g_vertices(
    param: SolutionParam,
    r: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> VertexSet:
    """All extreme points of G(r), computed through the lifted system.

    Every vertex of a coordinate projection is the projection of some vertex
    of the (bounded) lift: the preimage of an exposed vertex is an exposed
    face, and faces contain vertices. So the lift vertices are projected to
    z-space and filtered by the active-row rank test against the projected
    H-representation. This avoids enumerating subsets of the much larger
    eliminated row system directly.
    """
    n, d = param.x_ls.shape[0], param.d
    if n > caps.n_max or d > caps.d_max:
        raise BlowupLimit(
            f"instance size n={n}, d={d} beyond caps ({caps.n_max}, {caps.d_max})"
        )
    lam = build_lambda(param, r, tol=tol, caps=caps)
    gpoly = g_of_r(param, r, tol=tol, caps=caps)
    # The lift is bounded: z lives in [0, r]^n and |N c| <= z + |x_ls| bounds
    # c through the orthonormal columns of N.
    lift = enumerate_vertices(lam, tol=tol, caps=caps, check_unbounded=False)
    cand = _dedup_points(lift.points[:, :n], tol) if len(lift) else np.empty((0, n))

    points = []
    actives = []
    for z in cand:
        act = gpoly.active_rows(z, tol)
        if act.size < n or _numrank(gpoly.H[act], tol.rank) < n:
            continue
        points.append(z)
        actives.append(tuple(int(i) for i in act))
    pts = np.array(points) if points else np.empty((0, n))
    return VertexSet(points=pts, active_sets=tuple(actives), source=gpoly)


def dump_text(poly: HPolyhedron) -> str:
    """Debug dump: one row per line, ``h_1 ... h_q <= gamma``, 17 significant digits."""
    lines = []
    for i in range(poly.nrows):
        coeffs = " ".join("%.17g" % v for v in poly.H[i])
        lines.append(f"{coeffs} <= {'%.17g' % poly.g[i]}".strip())
    return "\n".join(lines) + ("\n" if lines else "")
