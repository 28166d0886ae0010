"""Command-line interface: reports, formats, exit codes, config file."""
import io
import json
import math

import numpy as np
import pytest

from lpequiv import (
    NoNonzeroCoordinate,
    compute_bound,
    equivalence,
    load_instance,
    scan_pstar,
    solve_l0,
    solve_lp_extreme,
    verify_equivalence,
)
from lpequiv.cli import main

from conftest import LADDER, ladder_instance


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
