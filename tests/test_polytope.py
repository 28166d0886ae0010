"""Lifted modulus systems, projection, vertex enumeration, feasibility."""
import itertools

import numpy as np
import pytest

from lpequiv import (
    BlowupLimit,
    Caps,
    HPolyhedron,
    Unbounded,
    build_lambda,
    compute_rm,
    decompose,
    enumerate_vertices,
    feasible,
    fm_eliminate,
    g_of_r,
    g_vertices,
    load_and_reduce,
)
from lpequiv import polytope
from lpequiv.config import DEFAULT_TOLERANCES
from lpequiv.polytope import _dedup_points, _normalize_rows

from conftest import (
    LADDER,
    ex1_point,
    ladder_instance,
    random_corank1_instance,
    seeded_small_instances,
)


def poly2(H, g):
    return HPolyhedron(H=np.asarray(H, dtype=float), g=np.asarray(g, dtype=float))


def brute_vertices(H, g, feas=1e-9):
    """Test-local oracle: try every square subsystem, keep feasible solutions."""
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    k, q = H.shape
    out = []
    for S in itertools.combinations(range(k), q):
        sub = H[list(S)]
        if np.linalg.matrix_rank(sub) < q:
            continue
        x = np.linalg.solve(sub, g[list(S)])
        if np.all(H @ x <= g + feas * (1.0 + np.abs(g)) + feas * np.max(np.abs(x))):
            if not any(np.max(np.abs(x - o)) <= 1e-7 * (1 + np.max(np.abs(x))) for o in out):
                out.append(x)
    return sorted(tuple(np.round(p, 9)) for p in out)


def as_point_set(vs, digits=9):
    return sorted(tuple(np.round(p, digits)) for p in vs.points)


def corank1_projection_rows(param, r):
    """Independent H-rep of G(r) for corank-1 systems via interval pairing.

    Along x(t) = x_ls + t u the bound |x_i(t)| <= z_i confines t to
    [(-s_i z_i - x_ls_i)/u_i, (s_i z_i - x_ls_i)/u_i] with s_i = sign(u_i);
    G(r) is the box plus every pairing lower_i <= upper_j, which clears
    denominators to  -|u_j| z_i - |u_i| z_j <= s_i x_ls_i |u_j| - s_j x_ls_j |u_i|.
    """
    x_ls = param.x_ls
    u = param.N[:, 0]
    n = x_ls.shape[0]
    rows, rhs = [], []
    var = [i for i in range(n) if abs(u[i]) > 1e-12]
    for i in range(n):
        if i not in var:
            # |x_ls_i| <= z_i regardless of t
            row = np.zeros(n)
            row[i] = -1.0
            rows.append(row)
            rhs.append(-abs(x_ls[i]))
    for i in var:
        for j in var:
            si, sj = np.sign(u[i]), np.sign(u[j])
            row = np.zeros(n)
            row[i] += -abs(u[j])
            row[j] += -abs(u[i])
            rows.append(row)
            rhs.append(si * x_ls[i] * abs(u[j]) - sj * x_ls[j] * abs(u[i]))
    for i in range(n):
        row = np.zeros(n)
        row[i] = -1.0
        rows.append(row)
        rhs.append(0.0)
        row = np.zeros(n)
        row[i] = 1.0
        rows.append(row)
        rhs.append(r)
    return np.array(rows), np.array(rhs)


class TestBuildLambda:
    def test_row_count_small(self, pair11):
        param = decompose(pair11)
        lam = build_lambda(param, 2.0)
        assert lam.nrows == 8 and lam.dim == 3

    def test_row_count_ex1(self, ex1):
        param = decompose(ex1)
        lam = build_lambda(param, 2.0)
        assert lam.nrows == 16 and lam.dim == 5

    def test_least_norm_witness_feasible(self, ex1):
        param = decompose(ex1)
        lam = build_lambda(param, 2.0)
        point = np.concatenate([np.abs(param.x_ls), np.zeros(param.d)])
        assert lam.contains(point)

    def test_rejects_nonpositive_radius(self, ex1):
        param = decompose(ex1)
        with pytest.raises(ValueError):
            build_lambda(param, 0.0)


class TestFmEliminate:
    def test_hand_pair(self):
        # |c| <= z1 and |1 - c| <= z2 project to z1 + z2 >= 1
        poly = poly2(
            [[-1, 0, -1], [0, -1, 1], [-1, 0, 0], [0, -1, 0], [1, 0, 0], [0, 1, 0]],
            [0, -1, 0, 0, 2, 2],
        )
        proj = fm_eliminate(poly, [2])
        assert proj.dim == 2
        found = any(
            np.allclose(h, [-1.0, -1.0]) and np.isclose(gam, -1.0)
            for h, gam in zip(proj.H, proj.g)
        )
        assert found, (proj.H, proj.g)

    def test_eliminate_nothing_preserves_set(self, pair11):
        param = decompose(pair11)
        lam = build_lambda(param, 2.0)
        same = fm_eliminate(lam, [])
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 3, size=(100, 3))
        np.testing.assert_array_equal(lam.contains_many(pts), same.contains_many(pts))

    def test_infeasible_leaves_certificate(self):
        poly = poly2([[1.0], [-1.0]], [-1.0, 0.0])
        out = fm_eliminate(poly, [0])
        assert out.dim == 0 and out.empty

    def test_blowup_cap(self, ex1):
        param = decompose(ex1)
        lam = build_lambda(param, 2.0)
        with pytest.raises(BlowupLimit):
            fm_eliminate(lam, [4], caps=Caps(fm_row_cap=3))


class TestGofR:
    def test_pair11_solution_set(self, pair11):
        param = decompose(pair11)
        gp = g_of_r(param, 2.0)
        rng = np.random.default_rng(1)
        for z in rng.uniform(-0.5, 2.5, size=(300, 2)):
            expected = (
                0 <= z[0] <= 2 and 0 <= z[1] <= 2 and z[0] + z[1] >= 1 - 1e-12
            )
            assert gp.contains(z) == expected

    def test_ex1_memberships(self, ex1):
        param = decompose(ex1)
        g2 = g_of_r(param, 2.0)
        assert g2.contains(np.array([1.45, 2.0, 0.0, 0.0]))
        # modulus of the solution at t = 0.1 has a coordinate 3 > 2, so it
        # only enters once the box allows it
        z01 = np.abs(ex1_point(0.1))
        assert not g2.contains(z01)
        assert g_of_r(param, 3.5).contains(z01)

    def test_least_norm_modulus_feasible(self, ex1):
        param = decompose(ex1)
        r = float(np.max(np.abs(param.x_ls))) + 0.5
        assert g_of_r(param, r).contains(np.abs(param.x_ls))

    def test_membership_semantics_dense_parameter_grid(self, ex1):
        # z belongs to G(r) iff it sits in the box and some solution modulus
        # is dominated by z; the existential part is cross-checked by a dense
        # sweep of the null-space coordinate
        param = decompose(ex1)
        r = 2.5
        gp = g_of_r(param, r)
        # witnesses for z in the box satisfy |c| <= (r + |x_ls|_inf)/min|u_i|
        cs = np.linspace(-12.0, 12.0, 60001)
        X = param.x_ls[None, :] + cs[:, None] * param.N[:, 0][None, :]
        absX = np.abs(X)
        rng = np.random.default_rng(6)
        for z in rng.uniform(0.0, r, size=(60, 4)):
            member = gp.contains(z)
            gap = float(np.min(np.max(absX - z[None, :], axis=1)))
            if member:
                assert gap <= 1e-3  # grid resolution slack
            else:
                assert gap > -1e-9

    def test_membership_semantics_corank2_grid(self):
        inst = load_and_reduce(
            [[1.0, 0.5, 0.0, 1.0], [0.0, 1.0, 1.0, -0.5]], [1.0, 1.5]
        )
        param = decompose(inst)
        r = 3.0
        gp = g_of_r(param, r)
        # ||c||_2 = ||N c||_2 <= ||x||_2 + ||x_ls||_2 <= 2 sqrt(n) r
        cs = np.linspace(-9.0, 9.0, 361)
        C = np.stack(np.meshgrid(cs, cs), axis=-1).reshape(-1, 2)
        absX = np.abs(param.x_ls[None, :] + C @ param.N.T)
        rng = np.random.default_rng(8)
        for z in rng.uniform(0.0, r, size=(40, 4)):
            member = gp.contains(z)
            gap = float(np.min(np.max(absX - z[None, :], axis=1)))
            if member:
                assert gap <= 0.08  # grid resolution slack
            else:
                assert gap > -1e-9

    def test_matches_interval_oracle_on_random_corank1(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            inst = random_corank1_instance(rng, 4)
            param = decompose(inst)
            r = 2.0 * (1.0 + float(np.max(np.abs(param.x_ls))))
            gp = g_of_r(param, r)
            H_o, g_o = corank1_projection_rows(param, r)
            pts = rng.uniform(-0.2 * r, 1.1 * r, size=(200, 4))
            ours = gp.contains_many(pts)
            margin = H_o @ pts.T - g_o[:, None]
            theirs = np.all(margin <= 1e-7 * (1 + r), axis=0)
            clear = np.max(np.abs(margin), axis=0) > 1e-5 * (1 + r)
            assert np.array_equal(ours[clear], theirs[clear])


class TestEnumerateVertices:
    def test_hand_pentagon(self, pair11):
        param = decompose(pair11)
        vs = enumerate_vertices(g_of_r(param, 2.0))
        assert as_point_set(vs) == [
            (0.0, 1.0),
            (0.0, 2.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (2.0, 2.0),
        ]

    def test_unit_box(self):
        poly = poly2(
            [[-1, 0], [1, 0], [0, -1], [0, 1]],
            [0, 1, 0, 1],
        )
        vs = enumerate_vertices(poly)
        assert as_point_set(vs) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_matches_brute_oracle_on_ex1(self, ex1):
        param = decompose(ex1)
        gp = g_of_r(param, 2.0)
        vs = enumerate_vertices(gp)
        assert as_point_set(vs) == brute_vertices(gp.H, gp.g)

    def test_min_nonzero_coordinate_ex1(self, ex1):
        # At the default radius n*max|x_ls| the smallest nonzero vertex
        # coordinate is 0.1 (witnessed at z = (0.1, 0, 3, 0.4)); at radius 2
        # the reachable parameter window shrinks and the value becomes 4/15.
        param = decompose(ex1)
        r1 = 4 * float(np.max(np.abs(param.x_ls)))
        for r, expected in ((r1, 0.1), (2.0, 4.0 / 15.0)):
            vs = g_vertices(param, r)
            nz = [z[np.abs(z) > 1e-8 * (1 + np.max(np.abs(z)))] for z in vs.points]
            assert np.isclose(min(v.min() for v in nz if v.size), expected, atol=1e-9)

    def test_vertex_soundness(self, ex1):
        param = decompose(ex1)
        gp = g_of_r(param, 2.0)
        vs = enumerate_vertices(gp)
        assert len(vs) > 0
        for z, act in zip(vs.points, vs.active_sets):
            assert gp.contains(z)
            assert np.linalg.matrix_rank(gp.H[list(act)]) == gp.dim

    def test_vertex_extremality_by_elimination(self, pair11):
        # no vertex is a convex combination of the others: the combination
        # system (paired equality rows plus simplex constraints) is infeasible
        param = decompose(pair11)
        vs = enumerate_vertices(g_of_r(param, 2.0))
        V = vs.points
        for i in range(len(V)):
            others = np.delete(V, i, axis=0)
            q, k = V.shape[1], others.shape[0]
            H = np.vstack(
                [
                    others.T,
                    -others.T,
                    np.ones((1, k)),
                    -np.ones((1, k)),
                    -np.eye(k),
                ]
            )
            g = np.concatenate([V[i], -V[i], [1.0], [-1.0], np.zeros(k)])
            comb = poly2(H, g)
            assert not feasible(comb)

    def test_monotone_in_radius(self, pair11):
        param = decompose(pair11)
        small = g_vertices(param, 1.2)
        big = g_of_r(param, 2.0)
        for z in small.points:
            assert big.contains(z)

    def test_unbounded_detection(self):
        with pytest.raises(Unbounded):
            enumerate_vertices(poly2([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0]))
        with pytest.raises(Unbounded):
            # slab: lineality direction along the second axis
            enumerate_vertices(poly2([[-1.0, 0.0], [1.0, 0.0]], [0.0, 1.0]))

    def test_empty_polyhedron_has_no_vertices(self):
        vs = enumerate_vertices(poly2([[1.0], [-1.0]], [-1.0, 0.0]))
        assert len(vs) == 0

    def test_subset_cap(self, ex1):
        param = decompose(ex1)
        gp = g_of_r(param, 2.0)
        with pytest.raises(BlowupLimit):
            enumerate_vertices(gp, caps=Caps(subset_cap=10))

    def test_instance_size_caps(self, ex1):
        param = decompose(ex1)
        with pytest.raises(BlowupLimit):
            g_vertices(param, 2.0, caps=Caps(n_max=3))
        with pytest.raises(BlowupLimit):
            g_vertices(param, 2.0, caps=Caps(d_max=0))

    def test_lift_and_generic_paths_agree(self, ex1):
        param = decompose(ex1)
        for r in (2.0, 3.5):
            direct = enumerate_vertices(g_of_r(param, r))
            lifted = g_vertices(param, r)
            assert as_point_set(direct) == as_point_set(lifted)

    def test_deterministic_and_sorted(self, ex1):
        param = decompose(ex1)
        a = g_vertices(param, 2.0)
        b = g_vertices(param, 2.0)
        np.testing.assert_array_equal(a.points, b.points)
        order = np.lexsort(a.points.T[::-1])
        np.testing.assert_array_equal(order, np.arange(len(a)))


def sweep_g_vertices(param, r, rank_tol=1e-10):
    """Test-local reference for g_vertices: the generic row-subset sweep of
    the lift, projected to z, deduplicated by rounding, then kept where the
    active rows of G(r) reach full rank."""
    n = param.x_ls.shape[0]
    gp = g_of_r(param, r)
    lift = enumerate_vertices(build_lambda(param, r), check_unbounded=False)
    kept = {}
    for z in lift.points[:, :n]:
        key = tuple(np.round(z, 9))
        if key in kept:
            continue
        s = np.linalg.svd(gp.H[gp.active_rows(z)], compute_uv=False)
        if s.size and np.count_nonzero(s > rank_tol * s[0]) == n:
            kept[key] = z
    return kept


class TestGVerticesVsLiftSweep:
    @staticmethod
    def check(inst):
        param = decompose(inst)
        x_inf = float(np.max(np.abs(param.x_ls)))
        # r1, and a radius at which the box pins x_i = +-r occur
        for r in (inst.n * x_inf, 1.2 * x_inf):
            ref = sweep_g_vertices(param, r)
            vs = g_vertices(param, r)
            assert as_point_set(vs) == sorted(ref), r
            nz = [
                np.min(z[z > 1e-8 * (1.0 + np.max(z))])
                for z in ref.values()
                if np.any(z > 1e-8 * (1.0 + np.max(z)))
            ]
            assert compute_rm(inst, r, param=param) == pytest.approx(min(nz), rel=1e-12)

    @pytest.mark.parametrize("name", ["ex1", "pair11", *LADDER])
    def test_named_instances(self, name, request):
        inst = request.getfixturevalue(name) if name in ("ex1", "pair11") else ladder_instance(name)
        self.check(inst)

    def test_seeded_small_instances(self):
        for inst in seeded_small_instances():
            self.check(inst)


def greedy_dedup(pts, tol=DEFAULT_TOLERANCES):
    """Test-local reference for the merge rule: after the rounding collapse
    and the lexicographic sort, drop a point when any kept point matches it."""
    _, first = np.unique(np.round(pts, 10), axis=0, return_index=True)
    pts = pts[np.sort(first)]
    pts = pts[np.lexsort(pts.T[::-1])]
    kept = []
    for p in pts:
        if not any(
            np.max(np.abs(p - q)) <= tol.dedup_tol(max(np.max(np.abs(p)), np.max(np.abs(q))))
            for q in kept
        ):
            kept.append(p)
    return np.array(kept)


class TestDedupPoints:
    def test_matches_greedy_reference(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 30))
            if trial % 2:
                # shared coordinates, as in lift candidates (0, r, |x_i|)
                base = rng.choice([0.0, 1.0, 2.5, 3.0, 1e-9], size=(k, n))
            else:
                base = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-3, 3)
            copies = base[rng.integers(0, k, size=2 * k)]
            # offsets below, near and above the 1e-8 relative dedup tolerance
            step = rng.choice([0.0, 1e-12, 3e-9, 1e-8, 2e-8, 5e-8], size=copies.shape)
            copies = copies + step * rng.choice([-1.0, 1.0], size=copies.shape) * (1 + np.abs(copies))
            pts = np.vstack([base, copies])
            np.testing.assert_array_equal(_dedup_points(pts, DEFAULT_TOLERANCES), greedy_dedup(pts))


def dict_normalize_rows(H, g, tol=DEFAULT_TOLERANCES):
    """Test-local reference: row normalization with the per-row dict collapse
    of duplicate normals (key: the row rounded to 12 decimals)."""
    if H.shape[0] == 0:
        return H, g
    scale = np.max(np.abs(H), axis=1) if H.shape[1] else np.zeros(H.shape[0])
    if H.shape[1]:
        H = np.where(np.abs(H) <= 1e-13 * scale[:, None], 0.0, H)
        scale = np.max(np.abs(H), axis=1)
    const = scale == 0.0
    g_span = float(np.max(np.abs(g))) if g.size else 0.0
    keep = ~(const & (g >= -tol.feas * (1.0 + g_span)))
    H, g, scale = H[keep], g[keep], scale[keep]
    if H.shape[0] == 0:
        return H, g
    div = np.where(scale > 0.0, scale, 1.0)
    H = H / div[:, None] if H.shape[1] else H
    g = g / div
    order = {}
    out_idx = []
    for i in range(H.shape[0]):
        key = tuple(np.round(H[i], 12))
        j = order.get(key)
        if j is None:
            order[key] = len(out_idx)
            out_idx.append(i)
        elif g[i] < g[out_idx[j]]:
            out_idx[j] = i
    sel = np.array(out_idx, dtype=int)
    return H[sel], g[sel]


def assert_bit_identical(ours, ref):
    for a, b in zip(ours, ref):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNormalizeRows:
    def test_matches_dict_reference_during_g_of_r(self, ex1, pair11, monkeypatch):
        # every row set that g_of_r normalizes at r1, during its elimination
        calls = []

        def spy(H, g, tol):
            calls.append((H, g))
            return _normalize_rows(H, g, tol)

        monkeypatch.setattr(polytope, "_normalize_rows", spy)
        expected = 0
        for inst in (ex1, pair11, *map(ladder_instance, LADDER), *seeded_small_instances()):
            param = decompose(inst)
            g_of_r(param, inst.n * float(np.max(np.abs(param.x_ls))))
            expected += 1 + param.d  # once on entry, once per eliminated column
        monkeypatch.undo()
        assert len(calls) == expected
        for H, g in calls:
            assert_bit_identical(_normalize_rows(H, g, DEFAULT_TOLERANCES), dict_normalize_rows(H, g))

    def test_hand_rows(self):
        H = np.array(
            [
                [1.0, 0.5, -0.0],
                [1.0, 0.5, 0.0],  # signed zero: same normal as row 0
                [2.0, -6e-13, 1.0],  # above the dust snap, rounds to -0.0
                [2.0, 6e-13, 1.0],
                [1.0, 0.25, 0.5],
                [1.0, 0.25, 0.5 + 1e-14],  # differs below the 1e-12 rounding
                [-1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0],  # exact tie in g: the earliest row stays
            ]
        )
        g = np.array([3.0, 2.0, 4.0, 4.0, 1.0, 0.5, 0.0, 0.0])
        ours = _normalize_rows(H, g, DEFAULT_TOLERANCES)
        assert_bit_identical(ours, dict_normalize_rows(H, g))
        np.testing.assert_array_equal(ours[1], [2.0, 2.0, 0.5, 0.0])
        assert ours[0][1, 1] == -3e-13  # the earlier of two rows tied in g


class TestFeasible:
    def test_trivial(self):
        assert feasible(poly2([[1.0], [-1.0]], [1.0, 0.0]))
        assert not feasible(poly2([[1.0], [-1.0]], [-1.0, 0.0]))

    def test_lambda_ex1(self, ex1):
        param = decompose(ex1)
        assert feasible(build_lambda(param, 2.0))

    def test_projection_soundness(self, ex1):
        # membership in the projection == feasibility of the lift with z fixed
        param = decompose(ex1)
        r = 2.0
        lam = build_lambda(param, r)
        gp = g_of_r(param, r)
        n, d = 4, param.d
        rng = np.random.default_rng(42)
        agree = 0
        for z in rng.uniform(0.0, r, size=(200, n)):
            member = gp.contains(z)
            # substitute z into the lift: rows over the c variables only
            H_c = lam.H[:, n:]
            g_c = lam.g - lam.H[:, :n] @ z
            lifted = HPolyhedron(H=H_c, g=g_c)
            assert member == feasible(lifted)
            agree += 1
        assert agree == 200

