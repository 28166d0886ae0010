"""Row reduction, decomposition and the instance text format."""
import warnings

import numpy as np
import pytest

from lpequiv import (
    DimensionMismatch,
    InconsistentSystem,
    Instance,
    InstanceParseError,
    NotUnderdetermined,
    NumericalRankFailure,
    ZeroRhs,
    decompose,
    load_and_reduce,
    parse_instance_text,
    solution_at,
)

from lpequiv.system import _nonsingular

from conftest import ex1_point


class TestLoadAndReduce:
    def test_full_rank_unchanged(self):
        inst = load_and_reduce([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0])
        assert inst.m == 2 and inst.n == 3
        np.testing.assert_array_equal(inst.A, [[1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(inst.b, [1, 2])

    def test_duplicate_row_dropped(self):
        inst = load_and_reduce([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], [1.0, 2.0])
        assert inst.m == 1
        np.testing.assert_array_equal(inst.A, [[1, 1, 0]])
        np.testing.assert_array_equal(inst.b, [1])

    def test_inconsistent(self):
        with pytest.raises(InconsistentSystem):
            load_and_reduce([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])

    def test_zero_rhs(self):
        with pytest.raises(ZeroRhs):
            load_and_reduce([[1.0, 2.0, 3.0]], [0.0])

    def test_not_underdetermined(self):
        with pytest.raises(NotUnderdetermined):
            load_and_reduce([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])

    def test_reduction_preserves_solutions(self):
        # dependent rows: row3 = row1 + row2, consistent rhs
        A = np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, -1.0], [1.0, 3.0, 1.0, 0.0]])
        b = np.array([1.0, 2.0, 3.0])
        inst = load_and_reduce(A, b)
        assert inst.m == 2
        param = decompose(inst)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = solution_at(param, rng.normal(size=param.d))
            assert np.max(np.abs(A @ x - b)) <= 1e-9 * (1 + np.max(np.abs(b)))


class TestDecompose:
    def test_coordinate_projection(self, coord23):
        param = decompose(coord23)
        np.testing.assert_allclose(param.x_ls, [1.0, 2.0, 0.0], atol=1e-12)
        assert param.d == 1
        np.testing.assert_allclose(np.abs(param.N[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)

    def test_ex1_line_contains_known_points(self, ex1):
        param = decompose(ex1)
        assert param.d == 1
        for t in (0.0, 1.0, 1.45):
            x = ex1_point(t)
            c = param.N.T @ (x - param.x_ls)
            np.testing.assert_allclose(solution_at(param, c), x, atol=1e-9)

    def test_rank_failure_on_degenerate_direct_instance(self):
        # direct construction skips row reduction; decompose must refuse to
        # certify the dependent rows
        inst = Instance(A=[[1.0, 0.0, 0.0], [1.0, 1e-14, 0.0]], b=[1.0, 1.0])
        with pytest.raises(NumericalRankFailure):
            decompose(inst)

    def test_random_residuals(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        inst = load_and_reduce(A, b)
        param = decompose(inst)
        feas = 1e-9 * (1 + np.max(np.abs(b)))
        assert np.max(np.abs(A @ param.x_ls - b)) <= feas
        assert np.max(np.abs(A @ param.N)) <= feas
        np.testing.assert_allclose(param.N.T @ param.N, np.eye(2), atol=1e-10)
        assert np.max(np.abs(param.N.T @ param.x_ls)) <= 1e-10 * (1 + np.max(np.abs(param.x_ls)))


class TestSolutionAt:
    def test_zero_coordinates(self, ex1):
        param = decompose(ex1)
        np.testing.assert_array_equal(solution_at(param, np.zeros(1)), param.x_ls)

    def test_first_coordinate_targets(self, ex1):
        param = decompose(ex1)
        u = param.N[:, 0]
        for t, expected in (
            (1.45, np.array([1.45, 2.0, 0.0, 0.0])),
            (0.1, np.array([0.1, 0.0, 3.0, 0.4])),
        ):
            c = (t - param.x_ls[0]) / u[0]
            np.testing.assert_allclose(solution_at(param, [c]), expected, atol=1e-9)

    def test_dimension_mismatch(self, ex1):
        param = decompose(ex1)
        with pytest.raises(DimensionMismatch):
            solution_at(param, [1.0, 2.0])

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(2, 6))
        b = rng.normal(size=2)
        param = decompose(load_and_reduce(A, b))
        for _ in range(25):
            x = solution_at(param, rng.normal(size=param.d))
            c = param.N.T @ (x - param.x_ls)
            back = solution_at(param, c)
            assert np.max(np.abs(back - x)) <= 1e-9 * (1 + np.max(np.abs(x)))

    def test_orthogonal_decomposition(self):
        # random h splits into a null-space part and a row-space remainder
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 6))
        b = rng.normal(size=3)
        param = decompose(load_and_reduce(A, b))
        for _ in range(10):
            h = rng.normal(size=6)
            null_part = param.N @ (param.N.T @ h)
            rest = h - null_part
            coef, resid, *_ = np.linalg.lstsq(A.T, rest, rcond=None)
            assert np.max(np.abs(A.T @ coef - rest)) <= 1e-9 * (1 + np.max(np.abs(h)))


class TestNonsingular:
    @staticmethod
    def plain_hadamard(blocks, rel_tol, axis):
        bound = np.prod(np.linalg.norm(blocks, axis=axis), axis=1)
        return np.abs(np.linalg.det(blocks)) > rel_tol * bound

    @pytest.mark.parametrize("axis", [1, 2])
    def test_matches_plain_bound_in_range(self, axis):
        rng = np.random.default_rng(8)
        blocks = rng.integers(-2, 3, size=(500, 3, 3)).astype(float)
        blocks *= 10.0 ** rng.integers(-8, 9, size=(500, 1, 3))
        for rel_tol in (1e-10, 1e-2):
            np.testing.assert_array_equal(
                _nonsingular(blocks, rel_tol, axis), self.plain_hadamard(blocks, rel_tol, axis)
            )

    @pytest.mark.parametrize("axis", [1, 2])
    def test_near_threshold(self, axis):
        # thresholds at the blocks' own ratios; columns (rows) scaled apart
        rng = np.random.default_rng(9)
        blocks = rng.standard_normal((400, 3, 3))
        blocks[200:, :, 2] = blocks[200:, :, 0] + 1e-6 * blocks[200:, :, 2]
        shape = (400, 1, 3) if axis == 1 else (400, 3, 1)
        blocks *= 10.0 ** rng.integers(-12, 13, size=shape)
        bound = np.prod(np.linalg.norm(blocks, axis=axis), axis=1)
        ratio = np.abs(np.linalg.det(blocks)) / bound
        for rel_tol in np.concatenate([ratio[:25], ratio[200:225]]):
            away = ~np.isclose(ratio, rel_tol, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(
                _nonsingular(blocks, rel_tol, axis)[away], (ratio > rel_tol)[away]
            )

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_scale_free(self, scale):
        blocks = scale * np.array(
            [
                [[1.0, 2.0], [3.0, 4.0]],  # nonsingular
                [[1.0, 2.0], [2.0, 4.0]],  # dependent columns and rows
                [[0.0, 2.0], [0.0, 4.0]],  # zero column
                [[0.0, 0.0], [3.0, 4.0]],  # zero row
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for axis in (1, 2):
                assert _nonsingular(blocks, 1e-10, axis).tolist() == [True, False, False, False]


class TestParsing:
    def test_fractions_and_comments(self):
        text = """
        # leading comment
        2 3
        1/2 -3/4 0   # inline comment
        0    1   2.5
        1 -2
        """
        A, b = parse_instance_text(text)
        np.testing.assert_allclose(A, [[0.5, -0.75, 0.0], [0.0, 1.0, 2.5]])
        np.testing.assert_allclose(b, [1.0, -2.0])

    def test_entry_count_mismatch_reports_line(self):
        with pytest.raises(InstanceParseError) as exc:
            parse_instance_text("2 3\n1 2 3\n4 5\n1 2\n")
        assert exc.value.line == 3

    def test_bad_token_reports_line(self):
        with pytest.raises(InstanceParseError) as exc:
            parse_instance_text("1 2\n1 oops\n1\n")
        assert exc.value.line == 2

    def test_entry_beyond_float_range_reports_line(self):
        with pytest.raises(InstanceParseError) as exc:
            parse_instance_text("1 3\n1 1e400 1\n1\n")
        assert exc.value.line == 2

    def test_missing_rhs(self):
        with pytest.raises(InstanceParseError):
            parse_instance_text("2 2\n1 0\n0 1\n")

    def test_empty(self):
        with pytest.raises(InstanceParseError):
            parse_instance_text("# nothing here\n")

    def test_ex1_fixture_file(self, ex1_path, ex1):
        A, b = parse_instance_text(ex1_path.read_text())
        np.testing.assert_array_equal(A, ex1.A)
        np.testing.assert_array_equal(b, ex1.b)
