"""Radii, granularity constant, bound computation and empirical verification."""
import math

import numpy as np
import pytest

from lpequiv import (
    build_lambda,
    certificate_report,
    compute_bound,
    compute_radii,
    compute_rm,
    decompose,
    g_vertices,
    load_and_reduce,
    scan_pstar,
    solve_lp_extreme,
    verify_equivalence,
)
from lpequiv.report import dump_json

from conftest import integer_instance, random_instance


class TestComputeRadii:
    def test_pair11(self, pair11):
        r0, r1, r = compute_radii(pair11)
        assert (r0, r1, r) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_ex1(self, ex1):
        r0, r1, r = compute_radii(ex1)
        assert r0 == pytest.approx(2.0, abs=1e-9)
        param = decompose(ex1)
        assert r1 == pytest.approx(4 * np.max(np.abs(param.x_ls)), abs=1e-12)
        assert r == r1

    def test_single_row(self):
        inst = load_and_reduce([[1.0, 0.0]], [3.0])
        r0, r1, r = compute_radii(inst)
        assert (r0, r1, r) == pytest.approx((3.0, 6.0, 6.0), abs=1e-12)


class TestComputeRm:
    def test_pair11_hand_vertices(self, pair11):
        param = decompose(pair11)
        vs = g_vertices(param, 1.0)
        assert sorted(tuple(np.round(z, 9)) for z in vs.points) == [
            (0.0, 1.0),
            (1.0, 0.0),
            (1.0, 1.0),
        ]
        assert compute_rm(pair11, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_pair11_scaled_box(self, pair11):
        assert compute_rm(pair11, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_ex1_default_radius(self, ex1):
        _, r1, _ = compute_radii(ex1)
        assert compute_rm(ex1, r1) == pytest.approx(0.1, abs=1e-9)

    def test_ex1_small_radius(self, ex1):
        # shrinking the box to 2 cuts off the parameter window below t=0.55
        # and the smallest nonzero vertex coordinate becomes 4/15
        assert compute_rm(ex1, 2.0) == pytest.approx(4.0 / 15.0, abs=1e-9)

    def test_positive_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            inst = random_instance(rng, 2, 4)
            _, r1, _ = compute_radii(inst)
            assert compute_rm(inst, r1) > 0.0


class TestComputeBound:
    def test_ex1_with_override(self, ex1):
        cert = compute_bound(ex1, radius_override=2.0)
        assert cert.k0 == 2
        assert cert.r_m == pytest.approx(0.1, abs=1e-9)
        assert cert.r_used == 2.0
        assert cert.radius_source == "override"
        assert not cert.capped
        assert cert.p_bound == pytest.approx(math.log(1.5) / math.log(20.0), abs=1e-12)

    def test_ex1_default(self, ex1):
        cert = compute_bound(ex1)
        assert cert.radius_source == "default"
        expected = math.log(1.5) / (math.log(cert.r_used) - math.log(cert.r_m))
        assert cert.p_bound == pytest.approx(expected, abs=1e-12)
        assert cert.r_used == pytest.approx(cert.r1, abs=1e-12)

    def test_capped_instance(self, pair11):
        cert = compute_bound(pair11)
        assert cert.capped and cert.p_bound == 1.0
        assert cert.r_m == pytest.approx(1.0, abs=1e-9)

    def test_coordinate_instance_bound_holds_below(self, coord23):
        cert = compute_bound(coord23)
        assert cert.k0 == 2
        assert 0.0 < cert.p_bound <= 1.0
        checked = verify_equivalence(coord23, [0.5 * cert.p_bound, 0.99 * cert.p_bound])
        assert all(v.holds for v in checked.verifications)

    def test_rejects_bad_override(self, ex1):
        with pytest.raises(ValueError):
            compute_bound(ex1, radius_override=-1.0)

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_rejects_non_finite_radius(self, ex1, r):
        with pytest.raises(ValueError, match="radius override must be a positive finite number"):
            compute_bound(ex1, radius_override=r)
        with pytest.raises(ValueError, match="radius override must be a positive finite number"):
            solve_lp_extreme(ex1, 0.5, radius_override=r)
        with pytest.raises(ValueError, match="radius must be a positive finite number"):
            build_lambda(decompose(ex1), r)


class TestVerifyEquivalence:
    def test_ex1_table(self, ex1):
        cert = verify_equivalence(ex1, [0.1, 0.8, 0.95])
        by_p = {v.p: v for v in cert.verifications}
        assert by_p[0.1].holds and by_p[0.1].lp_l0 == 2
        assert not by_p[0.8].holds and by_p[0.8].lp_l0 == 3
        assert by_p[0.95].holds and by_p[0.95].lp_l0 == 2

    def test_box_warning_with_tight_override(self, ex1):
        # radius 2 does not contain the p=0.8 minimizer (coordinate 3): the
        # verification must flag it instead of trusting the certificate
        cert = verify_equivalence(ex1, [0.8, 0.95], radius_override=2.0)
        by_p = {v.p: v for v in cert.verifications}
        assert not by_p[0.8].in_box
        assert by_p[0.95].in_box

    def test_chain_inequality_below_bound(self, ex1):
        cert = compute_bound(ex1, radius_override=2.0)
        for frac in (0.2, 0.6, 0.999):
            p = cert.p_bound * frac
            lhs = (cert.r_used / cert.r_m) ** p * cert.k0
            assert lhs < cert.k0 + 1

    def test_empty_p_list_rejected(self, ex1):
        with pytest.raises(ValueError):
            verify_equivalence(ex1, [])


class TestScan:
    def test_ex1_grid(self, ex1):
        res = scan_pstar(ex1, [0.05, 0.1, 0.13, 0.5, 0.8, 0.95, 1.0])
        outcome = {v.p: v.holds for v in res.certificate.verifications}
        assert outcome[0.05] and outcome[0.1] and outcome[0.13]
        assert not outcome[0.8]
        assert outcome[0.95] and outcome[1.0]
        assert res.smallest_fail == 0.8
        assert res.largest_prefix_hold == 0.5  # 0.5 happens to hold here
        assert isinstance(outcome[0.5], bool)

    def test_capped_instance_all_hold(self, pair11):
        res = scan_pstar(pair11, [0.25, 0.5, 0.75])
        assert all(v.holds for v in res.certificate.verifications)
        assert res.smallest_fail is None
        assert res.largest_prefix_hold == 0.75

    def test_single_point_grid(self, ex1):
        res = scan_pstar(ex1, [0.95])
        vers = res.certificate.verifications
        assert len(vers) == 1 and vers[0].holds

    def test_grid_validation(self, ex1):
        with pytest.raises(ValueError):
            scan_pstar(ex1, [])
        with pytest.raises(ValueError):
            scan_pstar(ex1, [0.5, 0.3])
        with pytest.raises(ValueError):
            scan_pstar(ex1, [0.0, 0.5])


class TestDeterminism:
    def test_certificate_bytes(self, ex1):
        a = dump_json(certificate_report(verify_equivalence(ex1, [0.1, 0.8])))
        b = dump_json(certificate_report(verify_equivalence(ex1, [0.1, 0.8])))
        assert a == b

    def test_lp_solutions_identical(self, ex1):
        xs1 = [tuple(s.x) for s in solve_lp_extreme(ex1, 0.8)]
        xs2 = [tuple(s.x) for s in solve_lp_extreme(ex1, 0.8)]
        assert xs1 == xs2


class TestRecoveryGuarantee:
    def test_small_random_suite(self):
        # sparsest supports are recovered by every exponent below the bound
        rng = np.random.default_rng(101)
        shapes = [(2, 4), (3, 4), (3, 5)]
        for trial in range(10):
            inst = random_instance(rng, *shapes[trial % len(shapes)])
            cert = compute_bound(inst)
            ps = [f * cert.p_bound * (1 - 1e-6) for f in (0.35, 0.9)]
            checked = verify_equivalence(inst, ps)
            for v in checked.verifications:
                assert v.holds, (inst.A, inst.b, v)


class TestMetamorphic:
    """Row operations, a column permutation and a column sign flip keep the
    solution set's geometry (up to relabelling coordinates and signs), so
    they keep k0, r_m, p_bound and the scan's holds column."""

    GRID = (0.02, 0.05, 0.1, 0.2, 0.5, 0.8, 0.95, 1.0)

    @classmethod
    def summary(cls, A, b):
        res = scan_pstar(load_and_reduce(A, b), cls.GRID)
        cert = res.certificate
        return cert.k0, cert.r_m, cert.p_bound, [v.holds for v in cert.verifications]

    @staticmethod
    def transforms(rng, A, b):
        m, n = A.shape
        # unimodular row combination: unit lower times unit upper triangular
        L = np.eye(m) + np.tril(rng.integers(-1, 2, size=(m, m)), -1)
        U = np.eye(m) + np.triu(rng.integers(-1, 2, size=(m, m)), 1)
        M = L @ U
        perm = rng.permutation(n)
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        signs[0] = -1.0
        yield "rows", M @ A, M @ b
        yield "permutation", A[:, perm], b
        yield "signs", A * signs, b

    @pytest.mark.parametrize("shape", ["2x4", "3x5", "2x5", "3x6"])
    @pytest.mark.parametrize("negdup", [False, True])
    def test_certificate_invariant(self, shape, negdup):
        m, n = map(int, shape.split("x"))
        rng = np.random.default_rng(1000 * m + n + negdup)
        inst = integer_instance(rng, m, n, negdup)
        k0, r_m, p_bound, holds = self.summary(inst.A, inst.b)
        for name, A, b in self.transforms(rng, inst.A, inst.b):
            got = self.summary(A, b)
            assert got[0] == k0, name
            assert got[1] == pytest.approx(r_m, rel=1e-9), name
            assert got[2] == pytest.approx(p_bound, rel=1e-9), name
            assert got[3] == holds, name
