"""Command-line front end.

Subcommands cover the pipeline stages: ``analyze`` runs everything and emits
the certificate, ``solve`` answers a single minimization, ``curve`` samples
the objective along a one-dimensional solution line into CSV, and ``scan``
tabulates the equivalence check over an exponent grid.

Exit codes: 0 success, 2 parse/usage error, 3 invalid system, 4 size cap
exceeded, 5 corank mismatch, 6 any other library error (an unbounded
polyhedron, or a vertex set with no nonzero coordinate). A JSON config file
named by the LPEQUIV_CONFIG environment variable supplies defaults;
command-line flags win.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .equivalence import certificate_report, scan_pstar, verify_equivalence
from .errors import (
    BlowupLimit,
    CorankMismatch,
    DimensionMismatch,
    InconsistentSystem,
    InstanceParseError,
    LpEquivError,
    NotUnderdetermined,
    NumericalRankFailure,
    ZeroRhs,
)
from .report import dump_csv, dump_json, format_float
from .solvers import basic_table, lp_objective, solve_l0, solve_lp_extreme
from .system import decompose, load_instance

__all__ = ["RunConfig", "load_config", "main"]

ENV_CONFIG = "LPEQUIV_CONFIG"

DEFAULT_P_VALUES = (0.1, 0.135, 0.8, 0.95, 1.0)
DEFAULT_T_RANGE = (-0.5, 2.0, 250)

EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_BLOWUP = 4
EXIT_CORANK = 5
EXIT_LIBRARY = 6


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration: tolerances, caps, defaults for flags."""

    tolerances: Tolerances = DEFAULT_TOLERANCES
    caps: Caps = DEFAULT_CAPS
    radius_override: float | None = None
    p_values: tuple[float, ...] = DEFAULT_P_VALUES
    t_range: tuple[float, float, int] = DEFAULT_T_RANGE
    output_format: str = "json"

    def __post_init__(self):
        t_min, t_max, steps = self.t_range
        if not t_min < t_max:
            raise ValueError(f"t range must satisfy min < max, got {self.t_range}")
        if steps < 2:
            raise ValueError(f"need at least 2 steps, got {steps}")
        for name in ("feas", "rank", "orth", "zero", "dedup"):
            if getattr(self.tolerances, name) <= 0.0:
                raise ValueError(f"tolerance {name} must be positive")
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError(f"unknown output format {self.output_format!r}")


def load_config(env: dict | None = None) -> RunConfig:
    """Build a RunConfig from the file named by LPEQUIV_CONFIG, if any."""
    env = os.environ if env is None else env
    path = env.get(ENV_CONFIG)
    if not path:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    tol = Tolerances(**raw.get("tolerances", {}))
    caps = Caps(**raw.get("caps", {}))
    radius = raw.get("radius_override")
    p_values = tuple(float(p) for p in raw.get("p_values", DEFAULT_P_VALUES))
    t_range = raw.get("t_range", DEFAULT_T_RANGE)
    return RunConfig(
        tolerances=tol,
        caps=caps,
        radius_override=None if radius is None else float(radius),
        p_values=p_values,
        t_range=(float(t_range[0]), float(t_range[1]), int(t_range[2])),
        output_format=raw.get("output_format", "json"),
    )


def _parse_p_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad exponent list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("exponent list is empty")
    return values


def _parse_t_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected MIN:MAX:STEPS")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpequiv",
        description="Exact l0/lp minimization and equivalence certification "
        "for underdetermined linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="full pipeline: solutions, radii, bound, verification")
    a.add_argument("instance", help="instance file")
    a.add_argument("--radius", type=float, default=None, help="override the bounding radius")
    a.add_argument("--p", type=_parse_p_list, default=None, metavar="LIST",
                   help="comma-separated exponents to verify")
    a.add_argument("--format", choices=("json", "text"), default=None)

    s = sub.add_parser("solve", help="solve one minimization problem")
    s.add_argument("instance", help="instance file")
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("--p", type=float, default=None, help="exponent in (0, 1]")
    mode.add_argument("--l0", action="store_true", help="sparsest solutions")
    s.add_argument("--format", choices=("json", "text"), default=None)

    c = sub.add_parser("curve", help="sample the objective along a corank-1 solution line")
    c.add_argument("instance", help="instance file")
    c.add_argument("--p-list", type=_parse_p_list, default=None, metavar="LIST")
    c.add_argument("--t-range", type=_parse_t_range, default=None, metavar="MIN:MAX:STEPS")
    c.add_argument("--out", required=True, help="output CSV path")

    g = sub.add_parser("scan", help="tabulate the equivalence check over an exponent grid")
    g.add_argument("instance", help="instance file")
    g.add_argument("--p-grid", type=_parse_p_list, default=None, metavar="LIST")
    g.add_argument("--radius", type=float, default=None)
    g.add_argument("--format", choices=("json", "text", "csv"), default=None)
    return parser


def _solution_entry(sol) -> dict:
    return {
        "x": sol.x.tolist(),
        "support": list(sol.support),
        "l0": sol.l0,
        "residual": sol.residual,
    }


def cmd_analyze(args, cfg: RunConfig, out) -> int:
    inst = load_instance(args.instance, tol=cfg.tolerances)
    table = basic_table(inst, tol=cfg.tolerances, caps=cfg.caps)
    param = table.param
    p_values = args.p if args.p is not None else cfg.p_values
    radius = args.radius if args.radius is not None else cfg.radius_override
    cert = verify_equivalence(
        inst, p_values, radius_override=radius, tol=cfg.tolerances, caps=cfg.caps,
        table=table,
    )
    report = {
        "instance": {
            "name": inst.name or "",
            "m": inst.m,
            "n": inst.n,
            "d": param.d,
        },
        "least_norm_solution": param.x_ls.tolist(),
        "null_basis": param.N.tolist(),
        "sparsest": {
            "k0": cert.k0,
            "solutions": [_solution_entry(s) for s in table.sparsest()],
        },
        "certificate": certificate_report(cert),
    }
    fmt = args.format or cfg.output_format
    if fmt == "text":
        out.write(_analyze_text(report))
    else:
        out.write(dump_json(report))
    return 0


def _analyze_text(report: dict) -> str:
    cert = report["certificate"]
    lines = [
        f"instance {report['instance']['name']}: "
        f"m={report['instance']['m']} n={report['instance']['n']} d={report['instance']['d']}",
        "x_ls = " + " ".join(format_float(v) for v in report["least_norm_solution"]),
        f"k0 = {report['sparsest']['k0']} "
        f"({len(report['sparsest']['solutions'])} sparsest solution(s))",
        f"r0 = {format_float(cert['r0'])}  r1 = {format_float(cert['r1'])}  "
        f"r_used = {format_float(cert['r_used'])} ({cert['radius_source']})",
        f"r_m = {format_float(cert['r_m'])}",
        f"p_bound = {format_float(cert['p_bound'])}" + ("  [capped]" if cert["capped"] else ""),
    ] + _table_lines(cert["verifications"])
    return "\n".join(lines) + "\n"


def _table_lines(rows: list[dict]) -> list[str]:
    return ["p        holds  lp_l0  in_box"] + [
        f"{v['p']:<8g} {str(v['holds']):<6} {v['lp_l0']:<6d} {str(v['in_box'])}"
        for v in rows
    ]


def cmd_solve(args, cfg: RunConfig, out) -> int:
    inst = load_instance(args.instance, tol=cfg.tolerances)
    if args.l0:
        sols = solve_l0(inst, tol=cfg.tolerances, caps=cfg.caps)
        report = {
            "mode": "l0",
            "k0": sols[0].l0,
            "solutions": [_solution_entry(s) for s in sols],
        }
    else:
        lps = solve_lp_extreme(
            inst, args.p, radius_override=cfg.radius_override,
            tol=cfg.tolerances, caps=cfg.caps,
        )
        report = {
            "mode": "lp",
            "p": float(args.p),
            "radius_used": lps[0].radius_used,
            "solutions": [
                {
                    "x": s.x.tolist(),
                    "objective": s.objective,
                    "support": np.flatnonzero(s.x != 0.0).tolist(),
                    "l0": s.l0(cfg.tolerances),
                    "radius_active": s.radius_active,
                }
                for s in lps
            ],
        }
    fmt = args.format or cfg.output_format
    if fmt == "text":
        lines = [f"mode {report['mode']}"]
        for s in report["solutions"]:
            lines.append(
                "x = (" + ", ".join(format_float(v) for v in s["x"]) + ")"
                f"  l0 = {s['l0']}"
            )
        out.write("\n".join(lines) + "\n")
    else:
        out.write(dump_json(report))
    return 0


def cmd_curve(args, cfg: RunConfig, out) -> int:
    inst = load_instance(args.instance, tol=cfg.tolerances)
    param = decompose(inst, tol=cfg.tolerances)
    if param.d != 1:
        raise CorankMismatch(f"curve needs corank 1, got {param.d}")
    p_values = args.p_list if args.p_list is not None else cfg.p_values
    t_min, t_max, steps = args.t_range if args.t_range is not None else cfg.t_range
    if not t_min < t_max or steps < 2:
        raise ValueError("t range must satisfy MIN < MAX and STEPS >= 2")
    u = param.N[:, 0]
    x_ls = param.x_ls
    # The curve parameter is the first coordinate that varies along the line.
    j = int(np.flatnonzero(np.abs(u) > 1e-12)[0])

    def x_of_t(t: float) -> np.ndarray:
        c = (t - x_ls[j]) / u[j]
        return x_ls + c * u

    breaks = sorted(
        float(x_ls[j] + (-x_ls[i] / u[i]) * u[j])
        for i in range(u.shape[0])
        if abs(u[i]) > 1e-12
    )
    uniq_breaks: list[float] = []
    for t in breaks:
        if not uniq_breaks or abs(t - uniq_breaks[-1]) > 1e-9 * (1.0 + abs(t)):
            uniq_breaks.append(t)

    header = ["t"] + [f"f_{p:g}" for p in p_values] + ["breakpoint"]
    rows = []
    for t in np.linspace(t_min, t_max, steps + 1):
        x = x_of_t(float(t))
        rows.append([float(t)] + [lp_objective(x, p) for p in p_values] + [0])
    for t in uniq_breaks:
        x = x_of_t(t)
        rows.append([t] + [lp_objective(x, p) for p in p_values] + [1])
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_csv(header, rows))
    return 0


def cmd_scan(args, cfg: RunConfig, out) -> int:
    inst = load_instance(args.instance, tol=cfg.tolerances)
    grid = args.p_grid if args.p_grid is not None else cfg.p_values
    radius = args.radius if args.radius is not None else cfg.radius_override
    result = scan_pstar(
        inst, grid, radius_override=radius, tol=cfg.tolerances, caps=cfg.caps
    )
    cert = certificate_report(result.certificate)
    rows = cert["verifications"]
    fmt = args.format or cfg.output_format
    if fmt == "csv":
        header = ["p", "holds", "lp_l0", "in_box"]
        out.write(dump_csv(header, [[v[k] for k in header] for v in rows]))
    elif fmt == "text":
        lines = _table_lines(rows) + [
            f"largest_prefix_hold = {result.largest_prefix_hold}",
            f"smallest_fail = {result.smallest_fail}",
        ]
        out.write("\n".join(lines) + "\n")
    else:
        out.write(
            dump_json(
                {
                    "grid": list(grid),
                    "table": rows,
                    "largest_prefix_hold": result.largest_prefix_hold,
                    "smallest_fail": result.smallest_fail,
                    "certificate": cert,
                }
            )
        )
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "solve": cmd_solve,
    "curve": cmd_curve,
    "scan": cmd_scan,
}


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config()
        return _COMMANDS[args.command](args, cfg, out)
    except InstanceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InconsistentSystem, ZeroRhs, NotUnderdetermined, NumericalRankFailure,
            DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BlowupLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except CorankMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORANK
    except LpEquivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIBRARY
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
