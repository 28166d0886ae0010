"""Sparse and concave-power solvers against independent oracles."""
import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lpequiv import (
    CorankMismatch,
    basic_table,
    decompose,
    g_vertices,
    load_and_reduce,
    lp_objective,
    solve_l0,
    solve_lp_corank1,
    solve_lp_extreme,
    solvers,
)

from conftest import (
    LADDER,
    integer_instance,
    ladder_instance,
    random_corank1_instance,
    random_instance,
    seeded_small_instances,
)


def powerset_min_support(A, b, feas=1e-9):
    """Test-local oracle: scan the full support power set for feasibility."""
    n = A.shape[1]
    best = None
    for S in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)
    ):
        if not S:
            resid = np.max(np.abs(b))
        else:
            cols = A[:, list(S)]
            xs, *_ = np.linalg.lstsq(cols, b, rcond=None)
            resid = np.max(np.abs(cols @ xs - b))
        if resid <= feas * (1 + np.max(np.abs(b))):
            if best is None or len(S) < best:
                best = len(S)
    return best


class TestLpObjective:
    def test_zero_vector(self):
        assert lp_objective(np.zeros(4), 0.5) == 0.0

    def test_p1_value(self):
        assert lp_objective([1.45, 2.0, 0.0, 0.0], 1.0) == pytest.approx(3.45, abs=1e-12)

    def test_p08_value(self):
        expected = 0.1**0.8 + 3.0**0.8 + 0.4**0.8
        assert lp_objective([0.1, 0.0, 3.0, 0.4], 0.8) == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_exponent(self):
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                lp_objective([1.0], p)

    def test_limit_toward_support_count(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = np.concatenate(
                [rng.uniform(0.2, 0.9, size=3), rng.uniform(1.5, 4.0, size=2), [0.0, 0.0]]
            )
            rng.shuffle(x)
            l0 = int(np.count_nonzero(x))
            gaps = []
            for p in (1e-2, 1e-3, 1e-4):
                gap = abs(lp_objective(x, p) - l0)
                supp = np.abs(x[x != 0.0])
                assert gap <= l0 * np.max(np.abs(supp**p - 1.0)) + 1e-12
                gaps.append(gap)
            assert gaps[0] >= gaps[1] >= gaps[2]

    def test_strict_concavity_on_positive_cone(self):
        rng = np.random.default_rng(13)
        for p in (0.3, 0.5, 0.9):
            for _ in range(20):
                z1 = rng.uniform(0.05, 3.0, size=5)
                z2 = rng.uniform(0.05, 3.0, size=5)
                if np.max(np.abs(z1 - z2)) < 1e-6:
                    continue
                mid = lp_objective(0.5 * (z1 + z2), p)
                avg = 0.5 * lp_objective(z1, p) + 0.5 * lp_objective(z2, p)
                assert mid > avg + 1e-12


class TestSolveL0:
    def test_ex1_unique(self, ex1):
        sols = solve_l0(ex1)
        assert len(sols) == 1
        assert sols[0].l0 == 2
        assert sols[0].support == (0, 1)
        np.testing.assert_allclose(sols[0].x, [1.45, 2.0, 0.0, 0.0], atol=1e-9)

    def test_coordinate_case(self):
        inst = load_and_reduce([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 0.0])
        sols = solve_l0(inst)
        assert sols[0].l0 == 1
        np.testing.assert_allclose(sols[0].x, [1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_powerset_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            inst = random_instance(rng, 3, 6)
            sols = solve_l0(inst)
            assert sols[0].l0 == powerset_min_support(inst.A, inst.b)

    def test_deterministic_support_order(self, ex1):
        a = [s.support for s in solve_l0(ex1)]
        b = [s.support for s in solve_l0(ex1)]
        assert a == b == sorted(a)

    def test_support_order_with_many_solutions(self):
        rng = np.random.default_rng(5)
        for m, n in ((2, 5), (3, 6), (3, 9)):
            supports = [s.support for s in solve_l0(random_instance(rng, m, n))]
            assert len(supports) > 1 and supports == sorted(supports)

    def test_residuals_within_tolerance(self, ex1):
        for s in solve_l0(ex1):
            assert s.residual <= 1e-9 * (1 + np.max(np.abs(ex1.b)))

    def test_entries_near_float_max(self):
        # column norms of 1e300 overflow in a plain Hadamard bound
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sols = solve_l0(load_and_reduce([[1, 1e300, 1e300]], [1e300]))
        assert [s.support for s in sols] == [(0,), (1,), (2,)]
        np.testing.assert_array_equal([s.x for s in sols], [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_sparsest_matches_per_row_rule(self, ex1):
        # test-local per-row reading of the least-support rows of the table
        for inst in (ex1, *map(ladder_instance, LADDER), *seeded_small_instances()):
            table = basic_table(inst)
            k0 = int(np.min(table.l0))
            rows = np.flatnonzero(table.l0 == k0)
            sols = solve_l0(inst)
            assert len(sols) == len(rows)
            for s, i in zip(sols, rows):
                assert s.x.tobytes() == table.x[i].tobytes()
                assert s.support == tuple(int(j) for j in np.flatnonzero(table.x[i]))
                assert type(s.l0) is int and s.l0 == k0
                assert type(s.residual) is float and s.residual == float(table.residual[i])


def axis0_first(mask):
    """Test-local reference: first row of each distinct mask, in sorted order."""
    return np.unique(mask, axis=0, return_index=True)[1]


class TestSupportDedup:
    def test_packed_key_matches_axis0_unique(self):
        rng = np.random.default_rng(70)
        for n in range(1, 71):
            rows = int(rng.integers(1, 50))
            mask = rng.random((rows, n)) < rng.uniform(0.05, 0.95)
            # repeat some rows, then shuffle, so first occurrences matter
            mask = np.vstack([mask, mask[rng.integers(0, rows, size=rows // 2 + 1)]])
            mask = mask[rng.permutation(mask.shape[0])]
            np.testing.assert_array_equal(solvers._first_of_each(mask), axis0_first(mask))

    def test_table_matches_axis0_dedup(self, ex1, monkeypatch):
        instances = [ex1, *map(ladder_instance, LADDER), *seeded_small_instances()]
        tables = [basic_table(inst) for inst in instances]
        monkeypatch.setattr(solvers, "_first_of_each", axis0_first)
        for inst, table in zip(instances, tables):
            ref = basic_table(inst)
            for name in ("x", "l0", "residual"):
                got, want = getattr(table, name), getattr(ref, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name


class TestSolveLpExtreme:
    def test_ex1_p08(self, ex1):
        sols = solve_lp_extreme(ex1, 0.8)
        assert len(sols) == 1
        np.testing.assert_allclose(sols[0].x, [0.1, 0.0, 3.0, 0.4], atol=1e-9)
        assert sols[0].l0() == 3

    @pytest.mark.parametrize("p", [0.95, 1.0])
    def test_ex1_sparse_regime(self, ex1, p):
        sols = solve_lp_extreme(ex1, p)
        assert len(sols) == 1
        np.testing.assert_allclose(sols[0].x, [1.45, 2.0, 0.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    def test_null_direction_only_adds_mass(self, coord23, p):
        sols = solve_lp_extreme(coord23, p)
        assert len(sols) == 1
        np.testing.assert_allclose(sols[0].x, [1.0, 2.0, 0.0], atol=1e-9)

    def test_radius_override_and_active_flag(self, ex1):
        sols = solve_lp_extreme(ex1, 0.95, radius_override=2.0)
        assert len(sols) == 1
        np.testing.assert_allclose(sols[0].x, [1.45, 2.0, 0.0, 0.0], atol=1e-9)
        assert sols[0].radius_used == 2.0
        assert sols[0].radius_active  # |x_2| = 2 touches the box

    def test_default_radius_not_active(self, ex1):
        sols = solve_lp_extreme(ex1, 0.95)
        assert not sols[0].radius_active

    def test_objective_consistency(self, ex1):
        for p in (0.5, 0.8, 1.0):
            for s in solve_lp_extreme(ex1, p):
                assert s.objective == pytest.approx(lp_objective(s.x, p), rel=1e-12)
                np.testing.assert_array_equal(s.z, np.abs(s.x))

    def test_tie_set_on_symmetric_instance(self, pair11):
        sols = solve_lp_extreme(pair11, 1.0)
        xs = sorted(tuple(np.round(s.x, 9)) for s in sols)
        assert xs == [(0.0, 1.0), (1.0, 0.0)]

    def test_vertex_certificate_present(self, ex1):
        s = solve_lp_extreme(ex1, 0.8)[0]
        assert s.vertex_certificate is not None and len(s.vertex_certificate) >= 4

    def test_tiny_exponent_default_radius(self):
        # ||x_ls||_p passes the float range at p = 0.001 on this 3x5 system
        inst = ladder_instance("3x5")
        table = basic_table(inst)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sols = solve_lp_extreme(inst, 0.001)
        assert as_set(s.x for s in sols) == as_set(table.x[table.minimizers(0.001)])
        assert all(np.isfinite(s.radius_used) for s in sols)

    def test_fallback_radius_not_active(self):
        # ||x_ls||_0.001 = 3^999 passes the float range; every minimizer
        # reaches the fallback radius 1, which says nothing against it
        inst = load_and_reduce([[1.0, 1.0, 1.0]], [1.0])
        sols = solve_lp_extreme(inst, 0.001)
        assert len(sols) == 3
        assert all(s.radius_used == 1.0 and not s.radius_active for s in sols)


class TestSolveLpCorank1:
    def test_ex1_breakpoints(self, ex1):
        s = solve_lp_corank1(ex1, 0.8)
        np.testing.assert_allclose(s.x, [0.1, 0.0, 3.0, 0.4], atol=1e-9)
        s = solve_lp_corank1(ex1, 0.1)
        np.testing.assert_allclose(s.x, [1.45, 2.0, 0.0, 0.0], atol=1e-9)

    def test_corank_mismatch(self):
        inst = load_and_reduce([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], [1.0, 2.0])
        with pytest.raises(CorankMismatch):
            solve_lp_corank1(inst, 0.5)

    def test_beats_dense_grid(self, ex1):
        param = decompose(ex1)
        u = param.N[:, 0]
        breaks = [-param.x_ls[i] / u[i] for i in range(4) if abs(u[i]) > 1e-12]
        lo, hi = min(breaks) - 1.0, max(breaks) + 1.0
        ts = np.linspace(lo, hi, 100_000)
        X = param.x_ls[None, :] + ts[:, None] * u[None, :]
        for p in (0.2, 0.5, 0.8, 1.0):
            grid_min = float(np.min(np.sum(np.abs(X) ** p, axis=1)))
            s = solve_lp_corank1(ex1, p)
            assert s.objective <= grid_min + 1e-9 * (1 + grid_min)


class TestOracleAgreement:
    def test_extreme_matches_corank1(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            inst = random_corank1_instance(rng, 4)
            for p in (0.2, 0.5, 0.8, 1.0):
                ext = solve_lp_extreme(inst, p)
                brk = solve_lp_corank1(inst, p)
                assert ext[0].objective == pytest.approx(brk.objective, rel=1e-9)

    def test_vertex_min_matches_dense_feasible_grid(self, ex1):
        # concave objectives attain their polytope minimum at vertices: no
        # feasible modulus vector from a dense parameter sweep beats them
        param = decompose(ex1)
        u = param.N[:, 0]
        for p in (0.4, 0.9):
            sols = solve_lp_extreme(ex1, p)
            best = sols[0].objective
            ts = np.linspace(-3.0, 4.0, 5000)
            X = param.x_ls[None, :] + ts[:, None] * u[None, :]
            grid = np.min(np.sum(np.abs(X) ** p, axis=1))
            assert best <= grid + 1e-9 * (1 + grid)

    def test_vertex_min_matches_grid_corank2(self):
        inst = load_and_reduce(
            [[1.0, 0.5, 0.0, 1.0], [0.0, 1.0, 1.0, -0.5]], [1.0, 1.5]
        )
        param = decompose(inst)
        for p in (0.5, 0.8):
            best = solve_lp_extreme(inst, p)[0].objective
            grid = np.inf
            cs = np.linspace(-4.0, 4.0, 220)
            C = np.stack(np.meshgrid(cs, cs), axis=-1).reshape(-1, 2)
            X = param.x_ls[None, :] + C @ param.N.T
            grid = float(np.min(np.sum(np.abs(X) ** p, axis=1)))
            assert best <= grid + 1e-9 * (1 + grid)

    def test_l0_never_beaten_by_lp(self, ex1):
        k0 = solve_l0(ex1)[0].l0
        counts = []
        for p in (0.05, 0.3, 0.8, 1.0):
            counts.extend(s.l0() for s in solve_lp_extreme(ex1, p))
        assert min(counts) == k0
        # and no smaller support is feasible at all
        for S in itertools.combinations(range(4), k0 - 1):
            cols = ex1.A[:, list(S)]
            xs, *_ = np.linalg.lstsq(cols, ex1.b, rcond=None)
            assert np.max(np.abs(cols @ xs - ex1.b)) > 1e-6


def exact_basic_solutions(A, b):
    """Test-local oracle: every distinct basic solution, in exact rationals.

    Solves each m-column block by Gauss-Jordan elimination over Fractions of
    the float entries, so singular blocks are found exactly.
    """
    A = [[Fraction(float(v)) for v in row] for row in A]
    b = [Fraction(float(v)) for v in b]
    m, n = len(A), len(A[0])
    found = set()
    for block in itertools.combinations(range(n), m):
        aug = [[row[j] for j in block] + [rhs] for row, rhs in zip(A, b)]
        for c in range(m):
            piv = next((i for i in range(c, m) if aug[i][c] != 0), None)
            if piv is None:
                break
            aug[c], aug[piv] = aug[piv], aug[c]
            for i in range(m):
                if i != c and aug[i][c] != 0:
                    f = aug[i][c] / aug[c][c]
                    aug[i] = [a - f * q for a, q in zip(aug[i], aug[c])]
        else:
            x = [Fraction(0)] * n
            for i, j in enumerate(block):
                x[j] = aug[i][m] / aug[i][i]
            found.add(tuple(x))
    return sorted(found)


def exact_minimizers(basics, p, rtol=1e-10):
    """Basic solutions within a relative tie of the least sum |x_i|^p."""
    objs = [sum(float(abs(v)) ** p for v in x if v) for x in basics]
    best = min(objs)
    return [x for x, o in zip(basics, objs) if o <= best * (1.0 + rtol)]


def as_set(xs):
    """Minimizers keyed by support, values rounded well below any gap."""
    return {
        tuple(int(i) for i in np.flatnonzero(x)): tuple(np.round(np.asarray(x, float), 9))
        for x in xs
    }


DUST = ([[-0.5, 0.25, -1.2, 1.2], [0.0, 5.0, 0.6, -0.6]], [2.0, -0.25])


class TestDustRegression:
    def test_tiny_exponent_argmin(self):
        inst = load_and_reduce(*DUST)
        sols = solve_lp_extreme(inst, 0.02)
        assert len(sols) == 1
        np.testing.assert_allclose(sols[0].x, [-4.025, -0.05, 0.0, 0.0], atol=1e-12)
        assert sols[0].objective == pytest.approx(1.97009, abs=1e-5)

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_negated_columns_tie(self, p):
        inst = load_and_reduce(*DUST)
        supports = sorted(tuple(np.flatnonzero(s.x)) for s in solve_lp_extreme(inst, p))
        assert supports == [(1, 2), (1, 3)]


class TestExactOracle:
    PS = (0.02, 0.05, 0.1, 0.5, 1.0)

    @staticmethod
    def instances():
        rng = np.random.default_rng(404)
        for m in (2, 3, 4):
            for n in range(m + 1, 7):
                for negdup in (False, True):
                    for _ in range(2):
                        yield integer_instance(rng, m, n, negdup)

    def test_minimizer_sets(self):
        checked = 0
        for inst in self.instances():
            basics = exact_basic_solutions(inst.A, inst.b)
            table = basic_table(inst)
            assert as_set(table.x) == as_set(basics)
            for p in self.PS:
                expected = as_set(exact_minimizers(basics, p))
                assert as_set(table.x[table.minimizers(p)]) == expected, (inst.A, inst.b, p)
                checked += 1
        assert checked >= 100

    def test_solver_and_sparsest_sets(self):
        for inst in itertools.islice(self.instances(), 0, None, 3):
            basics = exact_basic_solutions(inst.A, inst.b)
            k0 = min(np.count_nonzero(x) for x in basics)
            sparsest = [x for x in basics if np.count_nonzero(x) == k0]
            assert as_set(s.x for s in solve_l0(inst)) == as_set(sparsest)
            for p in (0.05, 1.0):
                expected = as_set(exact_minimizers(basics, p))
                assert as_set(s.x for s in solve_lp_extreme(inst, p)) == expected

    def test_p1_face_tie_from_negated_column(self):
        # x0 - x2 = 1 and x1 = 1: x0 = t, x2 = t - 1; every t in [0, 1] has
        # l1 norm 2, and the face's endpoints are the two basic solutions
        inst = load_and_reduce([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0]], [1.0, 1.0])
        got = as_set(s.x for s in solve_lp_extreme(inst, 1.0))
        assert got == as_set([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]])


def snapped_vertex_minimizers(inst, p):
    """Test-local scoring of G(||x_ls||_p)'s vertices, dust snapped to 0."""
    param = decompose(inst)
    r = float(np.sum(np.abs(param.x_ls) ** p) ** (1.0 / p))
    Z = g_vertices(param, r).points.copy()
    Z[Z <= 1e-8 * (1.0 + np.max(Z, axis=1, keepdims=True))] = 0.0
    objs = np.sum(Z**p, axis=1)
    return Z[objs <= np.min(objs) * (1.0 + 1e-10)]


class TestTableVsVertexPath:
    @pytest.mark.parametrize("name", ["ex1", *LADDER])
    def test_minimizers_match_vertex_scoring(self, name, ex1):
        if name == "ex1":
            inst = ex1
        else:
            m, n, seed = LADDER[name]
            inst = random_instance(np.random.default_rng(seed), m, n)
        table = basic_table(inst)
        for p in (0.05, 0.5, 1.0):
            moduli = np.abs(table.x[table.minimizers(p)])
            vertex = snapped_vertex_minimizers(inst, p)
            assert as_set(moduli) == as_set(vertex), (name, p)
