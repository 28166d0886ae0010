"""Self-check of the benchmark itself.

Shows that the oracle accepts real reports and flags corrupted ones (a
changed k0, a flipped ``holds``, a perturbed ``r_m``, ...), and that the
metric and workload names the benchmark prints match ``BENCHMARK.json``.

Run from the root of a checkout:  python3 bench/selfcheck.py
Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import copy
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import run
from instances import random_system, write_instance
from oracle import InstanceFacts, check_command
from tracer import per_layer

CASES = (
    # (argv, m, n, negated duplicate column)
    (("solve", run.INSTANCE, "--l0"), 4, 8, False),
    (("analyze", run.INSTANCE, "--p", "0.5,1"), 3, 5, False),
    (("scan", run.INSTANCE, "--p-grid", run.GRID), 2, 4, True),
)


def _set_k0(r):
    if "k0" in r:
        r["k0"] += 1
    else:
        r["certificate"]["k0"] += 1


def _drop_solution(r):
    (r if "solutions" in r else r["sparsest"])["solutions"].pop()


def _nudge_x(r):
    sol = (r if "solutions" in r else r["sparsest"])["solutions"][0]
    sol["x"][sol["support"][0]] *= 1.001


def _rows(r):
    return r["table"] if "table" in r else r["certificate"]["verifications"]


def _flip_holds(r):
    row = _rows(r)[-1]
    row["holds"] = not row["holds"]


def _bump_lp_l0(r):
    _rows(r)[0]["lp_l0"] += 1


def _rm_above_bound(r):
    r["certificate"]["r_m"] *= 1e3


def _rm_off_formula(r):
    r["certificate"]["r_m"] *= 0.5


def _p_bound(r):
    r["certificate"]["p_bound"] *= 1.01


CORRUPTIONS = {
    "solve": (_set_k0, _drop_solution, _nudge_x),
    "analyze": (_set_k0, _drop_solution, _nudge_x, _flip_holds, _bump_lp_l0,
                _rm_above_bound, _rm_off_formula, _p_bound),
    "scan": (_set_k0, _flip_holds, _bump_lp_l0, _rm_above_bound, _rm_off_formula, _p_bound),
}


def check_oracle(cli, workdir: Path) -> list[str]:
    problems = []
    rng = random.Random(0)
    for template, m, n, negdup in CASES:
        A, b, _ = random_system(rng, m, n, negdup)
        path = write_instance(workdir / f"{template[0]}.txt", A, b)
        argv = [str(path) if a == run.INSTANCE else a for a in template]
        out = io.StringIO()
        if cli.main(argv, out=out) != 0:
            problems.append(f"{template[0]}: command failed")
            continue
        facts = InstanceFacts.from_text(path.read_text("utf-8"))
        report = json.loads(out.getvalue())
        errs = check_command(argv, out.getvalue(), facts)
        if errs:
            problems.append(f"{template[0]}: oracle rejects the real report: {errs}")
        for corrupt in CORRUPTIONS[template[0]]:
            bad = copy.deepcopy(report)
            corrupt(bad)
            flagged = check_command(argv, json.dumps(bad), facts)
            print(f"  {template[0]:<8} {corrupt.__name__:<16} flagged={bool(flagged)}")
            if not flagged:
                problems.append(f"{template[0]}: oracle misses {corrupt.__name__}")
    return problems


def check_names() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    problems = []
    unknown = [w["name"] for w in spec["workloads"] if w["name"] not in run.WORKLOADS]
    if unknown:
        problems.append(f"BENCHMARK.json names workloads the benchmark lacks: {unknown}")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append(f"end-to-end metrics differ: {e2e} vs {run.END_TO_END_UNITS}")
    printed = [*per_layer([]), "trace_overhead_frac"]
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer != {k: run.per_layer_unit(k) for k in printed}:
        problems.append(f"per-layer metrics differ: {sorted(set(layer) ^ set(printed))}")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from lpequiv import cli

    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        problems = check_oracle(cli, Path(tmp)) + check_names()
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
