"""Command-line interface: reports, formats, exit codes, config file."""
import io
import itertools
import json
import math

import numpy as np
import pytest

from lpequiv import (
    BasicTable,
    NoNonzeroCoordinate,
    compute_bound,
    equivalence,
    load_instance,
    scan_pstar,
    solve_l0,
    solve_lp_extreme,
    verify_equivalence,
)
from lpequiv.cli import _sparsest_json, _sparsest_report, main
from lpequiv.report import dump_json, format_float

from conftest import LADDER, integer_instance, ladder_instance


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture()
def ex1_file(ex1_path):
    return str(ex1_path)


def write_instance(path, inst):
    lines = [f"{inst.m} {inst.n}"]
    lines += [" ".join(repr(v) for v in row) for row in inst.A.tolist()]
    lines.append(" ".join(repr(v) for v in inst.b.tolist()))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def walk_floats(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from walk_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from walk_floats(v)
    elif isinstance(obj, float):
        yield obj


def assert_same_floats(got, want):
    """JSON values parsed back as floats identical to the library's, zero signs included."""
    got = got if isinstance(got, list) else [got]
    want = np.atleast_1d(want).tolist()
    assert [type(v) for v in got] == [float] * len(want)
    assert got == want
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]


class TestAnalyze:
    def test_with_radius_override(self, ex1_file, ex1):
        code, text = run_cli(["analyze", ex1_file, "--radius", "2", "--p", "0.1,0.8,0.95"])
        assert code == 0
        report = json.loads(text)
        cert = report["certificate"]
        assert cert["k0"] == 2
        assert cert["r_m"] == pytest.approx(0.1, abs=1e-9)
        assert cert["p_bound"] == pytest.approx(math.log(1.5) / math.log(20), abs=1e-4)
        table = {v["p"]: v for v in cert["verifications"]}
        assert table[0.8]["holds"] is False and table[0.8]["lp_l0"] == 3
        assert table[0.95]["holds"] is True

    def test_presentation_matches_library_exactly(self, ex1_file, ex1):
        code, text = run_cli(["analyze", ex1_file, "--radius", "2", "--p", "0.95"])
        report = json.loads(text)
        cert = compute_bound(ex1, radius_override=2.0)
        assert report["certificate"]["p_bound"] == cert.p_bound
        assert report["certificate"]["r_m"] == cert.r_m

    def test_identity_like_instance(self, tmp_path):
        f = tmp_path / "simple.txt"
        f.write_text("2 3\n1 0 0\n0 1 0\n1 0\n")
        code, text = run_cli(["analyze", str(f), "--p", "0.5"])
        assert code == 0
        assert json.loads(text)["sparsest"]["k0"] == 1

    def test_text_format(self, ex1_file):
        code, text = run_cli(["analyze", ex1_file, "--format", "text", "--p", "0.95"])
        assert code == 0
        assert "p_bound" in text and "k0 = 2" in text

    def test_numbers_round_trip(self, ex1_file, tmp_path):
        code, text = run_cli(["analyze", ex1_file, "--p", "0.8"])
        report = json.loads(text)
        for v in walk_floats(report):
            assert float("%.17g" % v) == v

        files = [ex1_file] + [
            write_instance(tmp_path / f"{name}.txt", ladder_instance(name)) for name in LADDER
        ]
        grid = [0.1, 0.5, 0.8, 1.0]
        for path in files:
            inst = load_instance(path)

            def check_certificate(got, cert):
                for key in ("r0", "r1", "r_used", "r_m", "p_bound"):
                    assert_same_floats(got[key], getattr(cert, key))
                assert_same_floats([v["p"] for v in got["verifications"]], grid)

            def check_solutions(got, sols):
                assert len(got) == len(sols)
                for g, s in zip(got, sols):
                    assert_same_floats(g["x"], s.x)
                    assert_same_floats(g["residual"], s.residual)

            _, text = run_cli(["analyze", path, "--p", "0.1,0.5,0.8,1"])
            report = json.loads(text)
            check_certificate(report["certificate"], verify_equivalence(inst, grid))
            check_solutions(report["sparsest"]["solutions"], solve_l0(inst))

            _, text = run_cli(["scan", path, "--p-grid", "0.1,0.5,0.8,1"])
            report = json.loads(text)
            result = scan_pstar(inst, grid)
            check_certificate(report["certificate"], result.certificate)
            assert report["table"] == report["certificate"]["verifications"]
            assert_same_floats(report["grid"], grid)

            _, text = run_cli(["solve", path, "--l0"])
            check_solutions(json.loads(text)["solutions"], solve_l0(inst))

            _, text = run_cli(["solve", path, "--p", "0.5"])
            report = json.loads(text)
            lps = solve_lp_extreme(inst, 0.5)
            assert_same_floats(report["p"], 0.5)
            assert_same_floats(report["radius_used"], lps[0].radius_used)
            assert len(report["solutions"]) == len(lps)
            for got, s in zip(report["solutions"], lps):
                assert_same_floats(got["x"], s.x)
                assert_same_floats(got["objective"], s.objective)

    def test_control_character_in_name(self, ex1_path, tmp_path):
        f = tmp_path / "tab\there.txt"
        f.write_text(ex1_path.read_text())
        code, text = run_cli(["analyze", str(f), "--p", "0.8"])
        assert code == 0
        assert json.loads(text)["instance"]["name"] == "tab\there"


class TestSolve:
    def test_l0(self, ex1_file):
        code, text = run_cli(["solve", ex1_file, "--l0"])
        assert code == 0
        report = json.loads(text)
        assert report["mode"] == "l0" and report["k0"] == 2
        assert len(report["solutions"]) == 1
        np.testing.assert_allclose(
            report["solutions"][0]["x"], [1.45, 2.0, 0.0, 0.0], atol=1e-9
        )

    @pytest.mark.parametrize(
        "p,expected",
        [
            ("0.8", [0.1, 0.0, 3.0, 0.4]),
            ("0.95", [1.45, 2.0, 0.0, 0.0]),
            ("1", [1.45, 2.0, 0.0, 0.0]),
        ],
    )
    def test_lp(self, ex1_file, p, expected):
        code, text = run_cli(["solve", ex1_file, "--p", p])
        assert code == 0
        report = json.loads(text)
        assert len(report["solutions"]) == 1
        np.testing.assert_allclose(report["solutions"][0]["x"], expected, atol=1e-9)

    def test_lp_corank4(self, tmp_path):
        # G(r)'s elimination would pass fm_row_cap here; solve never builds it
        f = tmp_path / "corank4.txt"
        f.write_text("2 6\n3 -1 4 1 -5 9\n2 6 -5 3 5 -8\n1 2\n")
        code, text = run_cli(["solve", str(f), "--p", "0.5"])
        assert code == 0
        (sol,) = json.loads(text)["solutions"]
        assert sol["support"] == [3, 5]
        np.testing.assert_allclose(sol["x"], [0, 0, 0, 26 / 35, 0, 1 / 35], atol=1e-12)

    def test_requires_mode(self, ex1_file):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", ex1_file])
        assert exc.value.code == 2


def wide_instances():
    """Seeded systems of the sparsest-wide shapes (n = 8..10, m = 3..7), each
    drawn with and without a negated duplicate column."""
    rng = np.random.default_rng(808)
    for n in (8, 9, 10):
        for m in range(3, 8):
            for negdup in (False, True):
                yield integer_instance(rng, m, n, negdup)


def l0_entries(sols) -> list[dict]:
    """Report entries rendered one by one from solve_l0's SparseSolution objects."""
    return [
        {"x": s.x.tolist(), "support": list(s.support), "l0": s.l0, "residual": s.residual}
        for s in sols
    ]


class TestSparsestReport:
    @pytest.fixture()
    def paths(self, ex1, tmp_path):
        named = [("ex1", ex1), *((name, ladder_instance(name)) for name in LADDER)]
        named += [(f"wide{i}", inst) for i, inst in enumerate(wide_instances())]
        return [write_instance(tmp_path / f"{name}.txt", inst) for name, inst in named]

    def test_solve_l0_bytes(self, paths):
        for path in paths:
            sols = solve_l0(load_instance(path))
            want = {"mode": "l0", "k0": sols[0].l0, "solutions": l0_entries(sols)}
            assert run_cli(["solve", path, "--l0"]) == (0, dump_json(want))
            lines = ["mode l0"] + [
                "x = (" + ", ".join(format_float(v) for v in s.x) + f")  l0 = {s.l0}"
                for s in sols
            ]
            assert run_cli(["solve", path, "--l0", "--format", "text"]) == (0, "\n".join(lines) + "\n")

    def test_analyze_sparsest_block(self, paths):
        checked = 0
        for path in paths:
            inst = load_instance(path)
            if inst.n - inst.m > 2:  # beyond the elimination cap for most wide shapes
                continue
            sols = solve_l0(inst)
            code, text = run_cli(["analyze", path, "--p", "1"])
            assert code == 0
            block = json.loads(text)["sparsest"]
            assert dump_json(block) == dump_json({"k0": sols[0].l0, "solutions": l0_entries(sols)})
            checked += 1
        assert checked >= 8


def hand_table(x, residual) -> BasicTable:
    """A basic table built by hand; the renderer reads only x, residual and l0."""
    x = np.array(x, dtype=float)
    residual = np.array(residual, dtype=float)
    return BasicTable(param=None, x=x, residual=residual, l0=np.count_nonzero(x, axis=1))


def dict_json(table) -> str:
    return dump_json({"mode": "l0", **_sparsest_report(table)})


class TestSparsestJson:
    """The %-format renderer of solve --l0 against dump_json of the dict report."""

    def test_float_edges(self):
        table = hand_table(
            [
                [1e16, -0.0, 1e-07, 0.0],
                [0.0, 5e-324, -0.0, 1e300],
                [-2.5, 0.0, 0.0, -1e-07],
                [1.0, 2.0, 3.0, 0.0],  # l0 = 3: not among the sparsest rows
            ],
            [0.0, 5e-324, 1e-07, 1e300],
        )
        text = _sparsest_json(table)
        assert text == dict_json(table)
        assert '"x": [\n        1e+16,\n        -0.0,' in text
        assert [s["support"] for s in json.loads(text)["solutions"]] == [[0, 2], [1, 3], [0, 3]]

    def test_single_nonzero(self):
        table = hand_table([[0.0, 3.5, 0.0], [-1.25, 0.0, 0.0]], [0.0, 2.2e-16])
        assert _sparsest_json(table) == dict_json(table)
        assert json.loads(_sparsest_json(table))["k0"] == 1

    def test_252_rows_of_ten(self):
        rng = np.random.default_rng(17)
        x = np.zeros((252 + 10, 10))
        for i, support in enumerate(itertools.combinations(range(10), 5)):
            x[i, list(support)] = rng.standard_normal(5) * 10.0 ** rng.integers(-8, 9, 5)
        x[252:, :6] = rng.standard_normal((10, 6))  # l0 = 6: left out
        table = hand_table(x, np.abs(rng.standard_normal(262)) * 1e-15)
        text = _sparsest_json(table)
        assert text == dict_json(table)
        assert len(json.loads(text)["solutions"]) == 252

    @pytest.mark.parametrize("where", ["x", "residual"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises_like_dump_json(self, where, bad):
        x = [[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]]
        residual = [0.0, 0.0]
        if where == "x":
            x[1][2] = bad
        else:
            residual[1] = bad
        table = hand_table(x, residual)
        with pytest.raises(ValueError) as want:
            dict_json(table)
        with pytest.raises(ValueError) as got:
            _sparsest_json(table)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


class TestCurve:
    def test_csv_layout_and_minima(self, ex1_file, tmp_path):
        out = tmp_path / "curve.csv"
        code, _ = run_cli(
            [
                "curve",
                ex1_file,
                "--p-list",
                "0.1,0.135,0.8,0.95,1",
                "--t-range=-0.5:2:100",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["t", "f_0.1", "f_0.135", "f_0.8", "f_0.95", "f_1", "breakpoint"]
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        uniform = [r for r in rows if r[-1] == 0.0]
        marked = [r for r in rows if r[-1] == 1.0]
        assert len(uniform) == 101
        assert sorted(r[0] for r in marked) == pytest.approx([0.0, 0.1, 1.45], abs=1e-9)
        data = np.array(rows)
        argmins = data[np.argmin(data[:, 1:6], axis=0), 0]
        np.testing.assert_allclose(argmins, [1.45, 1.45, 0.1, 1.45, 1.45], atol=1e-9)

    def test_small_steps(self, tmp_path):
        f = tmp_path / "pair.txt"
        f.write_text("1 2\n1 1\n1\n")
        out = tmp_path / "c.csv"
        code, _ = run_cli(["curve", str(f), "--p-list", "1", "--t-range", "0:1:2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        uniform = [r for r in rows if r[-1] == 0.0]
        assert len(uniform) == 3
        for r in uniform:  # |t| + |1 - t| is constant 1 on [0, 1]
            assert r[1] == pytest.approx(1.0, abs=1e-12)

    def test_corank_mismatch_exit_code(self, tmp_path):
        f = tmp_path / "wide.txt"
        f.write_text("2 4\n1 0 0 0\n0 1 0 0\n1 2\n")
        out = tmp_path / "c.csv"
        code, _ = run_cli(["curve", str(f), "--out", str(out)])
        assert code == 5


class TestScan:
    def test_grid_json(self, ex1_file):
        code, text = run_cli(["scan", ex1_file, "--p-grid", "0.05,0.1,0.13,0.8,0.95,1.0"])
        assert code == 0
        report = json.loads(text)
        outcome = {v["p"]: v["holds"] for v in report["table"]}
        assert outcome[0.8] is False and outcome[0.95] is True
        assert report["smallest_fail"] == 0.8
        assert report["largest_prefix_hold"] == 0.13

    def test_text_and_csv_formats(self, ex1_file):
        code, text = run_cli(["scan", ex1_file, "--p-grid", "0.95,1.0", "--format", "text"])
        assert code == 0 and "holds" in text
        code, text = run_cli(["scan", ex1_file, "--p-grid", "0.95,1.0", "--format", "csv"])
        assert code == 0
        assert text.splitlines()[0] == "p,holds,lp_l0,in_box"

    def test_text_table_prints_p_round_trip(self, ex1_file):
        code, text = run_cli(["scan", ex1_file, "--p-grid", "0.1234567891,1.0", "--format", "text"])
        assert code == 0
        lines = text.splitlines()
        assert [line.split()[0] for line in lines[1:3]] == ["0.1234567891", "1.0"]
        assert lines[2].startswith("1.0      True ")  # padded to the column width
        assert lines[3] == "largest_prefix_hold = 1.0"

    def test_empty_grid_is_usage_error(self, ex1_file):
        with pytest.raises(SystemExit) as exc:
            run_cli(["scan", ex1_file, "--p-grid", ""])
        assert exc.value.code == 2


class TestErrorPaths:
    def test_malformed_file_exit2_with_line(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("2 3\n1 2 3\n4 5\n1 2\n")
        code, _ = run_cli(["analyze", str(f)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_entry_beyond_float_range_exit2(self, tmp_path, capsys):
        f = tmp_path / "huge.txt"
        f.write_text("1 3\n1 1e400 1\n1\n")
        code, text = run_cli(["solve", str(f), "--l0"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: line 2:")

    def test_inconsistent_exit3(self, tmp_path):
        f = tmp_path / "inc.txt"
        f.write_text("2 2\n1 1\n1 1\n1 2\n")
        code, _ = run_cli(["analyze", str(f)])
        assert code == 3

    def test_zero_rhs_exit3(self, tmp_path):
        f = tmp_path / "zero.txt"
        f.write_text("1 3\n1 2 3\n0\n")
        code, _ = run_cli(["analyze", str(f)])
        assert code == 3

    def test_blowup_exit4(self, ex1_file, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"caps": {"fm_row_cap": 2}}))
        monkeypatch.setenv("LPEQUIV_CONFIG", str(cfg))
        code, _ = run_cli(["analyze", ex1_file])
        assert code == 4

    def test_missing_file_exit2(self):
        code, _ = run_cli(["analyze", "/nonexistent/path.txt"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--radius", "inf"],
            ["analyze", "--radius", "inf", "--format", "text"],
            ["analyze", "--radius", "nan"],
            ["scan", "--radius", "inf", "--format", "text"],
            ["scan", "--radius", "inf"],
        ],
    )
    def test_non_finite_radius_exit2(self, ex1_file, argv, capsys):
        code, text = run_cli([argv[0], ex1_file, *argv[1:]])
        assert code == 2 and text == ""
        value = argv[2]
        assert capsys.readouterr().err == (
            f"error: radius override must be a positive finite number, got {value}\n"
        )

    def test_non_finite_config_radius_exit2(self, ex1_file, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"radius_override": 1e999}')
        monkeypatch.setenv("LPEQUIV_CONFIG", str(cfg))
        code, text = run_cli(["solve", ex1_file, "--p", "0.5"])
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "error: radius override must be a positive finite number, got inf\n"
        )

    def test_other_library_error_exit6(self, ex1_file, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NoNonzeroCoordinate("all vertices are numerically zero")

        monkeypatch.setattr(equivalence, "compute_rm", fail)
        code, text = run_cli(["analyze", ex1_file, "--p", "0.5"])
        assert code == 6 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestConfig:
    def test_config_supplies_defaults(self, ex1_file, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_values": [0.8], "radius_override": 2.0}))
        monkeypatch.setenv("LPEQUIV_CONFIG", str(cfg))
        code, text = run_cli(["analyze", ex1_file])
        assert code == 0
        report = json.loads(text)
        assert report["certificate"]["r_used"] == 2.0
        assert [v["p"] for v in report["certificate"]["verifications"]] == [0.8]

    def test_flags_override_config(self, ex1_file, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_values": [0.8]}))
        monkeypatch.setenv("LPEQUIV_CONFIG", str(cfg))
        code, text = run_cli(["analyze", ex1_file, "--p", "0.95"])
        report = json.loads(text)
        assert [v["p"] for v in report["certificate"]["verifications"]] == [0.95]

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_config_format_picks_solve_l0_path(self, ex1_file, tmp_path, monkeypatch, fmt):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_format": fmt}))
        monkeypatch.setenv("LPEQUIV_CONFIG", str(cfg))
        code, text = run_cli(["solve", ex1_file, "--l0"])
        assert code == 0
        # solve has no csv layout: that config falls back to JSON
        flag = "text" if fmt == "text" else "json"
        monkeypatch.delenv("LPEQUIV_CONFIG")
        assert (code, text) == run_cli(["solve", ex1_file, "--l0", "--format", flag])
        if fmt == "text":
            assert text == "mode l0\nx = (1.45, 2.0, 0.0, 0.0)  l0 = 2\n"
        else:
            assert text == dump_json(json.loads(text))

    def test_bad_config_rejected(self, ex1_file, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_range": [2.0, 1.0, 10]}))
        monkeypatch.setenv("LPEQUIV_CONFIG", str(cfg))
        code, _ = run_cli(["analyze", ex1_file])
        assert code == 2


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, ex1_file):
        for argv in (
            ["analyze", ex1_file, "--radius", "2", "--p", "0.1,0.8"],
            ["solve", ex1_file, "--l0"],
            ["solve", ex1_file, "--p", "0.8"],
            ["scan", ex1_file, "--p-grid", "0.8,0.95"],
        ):
            _, first = run_cli(argv)
            _, second = run_cli(argv)
            assert first == second
