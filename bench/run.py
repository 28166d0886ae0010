"""Benchmark for lpequiv: real CLI commands, every answer checked exactly.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scan-grid --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another

``BENCHMARK.json`` gates scan-grid and sparsest-wide. certify-large runs only
by hand: two of its passes take about 50 s, so its runs do not fit the time
the gated runs are allowed.

One client in one process runs commands back to back (a closed loop) through
``lpequiv.cli.main(argv, out=StringIO)``. A workload is a fixed list of
commands, one per base system of ``instances.InstanceStream``. A pass runs
the whole list on fresh copies of the systems, written as instance files
before timing. A run makes at least two passes, and starts another only if
it should end within ``--seconds`` of the start, judged by the longest pass
so far (its commands and checks); so a run lasts about ``--seconds``, or two
passes where those take longer. Before each of the first two passes, fresh
processes measure set-up time; after each pass, outside the timed region,
the oracle in ``oracle.py`` checks every report.

``ops_per_s`` is the median over passes of the number of commands answered
correctly over the pass's summed command times (a median, so that a burst of
load from elsewhere on the host during one pass does not move it),
``op_p50_s`` the median command time, ``setup_s`` the median
wall time of fresh processes that import the package and run one tiny
command, and ``peak_rss_mb`` the peak resident memory of the measuring
process over its first two passes. ``fail_frac``, the share of attempted
commands that exit nonzero, raise or disagree with the oracle, is printed
and equals ``failed / attempted`` in the result; it is not a gated metric,
because it reads 0 when all is well.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced pass and prints the per-layer metrics of ``tracer.py``
(medians over traced passes) and the tracing overhead. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from instances import InstanceStream, write_instance
from oracle import InstanceFacts, check_command
from tracer import Tracer, per_layer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"

# One BLAS thread in every measured process, so that times do not depend on
# how OpenBLAS spreads small solves over the cores left free.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

INSTANCE = "{instance}"
GRID = "0.02,0.05,0.1,0.15,0.2,0.3,0.4,0.5,0.6,0.8,0.95,1"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    shapes: tuple[tuple[int, int, bool], ...]  # (m, n, negated duplicate column) per command


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-grid",
            ("scan", INSTANCE, "--p-grid", GRID),
            # 3x5 is most of the list, so the median command is a long one:
            # a sub-second median moved by 25% with the host's speed
            ((2, 4, True), (3, 4, False), (3, 5, False), (3, 5, True), (3, 5, False)),
        ),
        Workload(
            "certify-large",
            ("analyze", INSTANCE, "--p", "1"),
            ((5, 6, False), (4, 6, False), (3, 6, False)),
        ),
        Workload(
            "sparsest-wide",
            ("solve", INSTANCE, "--l0"),
            tuple((m, n, False) for _ in range(8) for n in (8, 9, 10) for m in range(3, 8)),
        ),
    )
}

# A tiny system outside every workload's list, for warm-up and set-up runs.
WARMUP_TEXT = "2 3\n1 2 0\n0 1/2 3\n1 2\n"
# at least two passes: more work per run, and peak_rss_mb covers the same
# work in every run
MIN_PASSES = 2
# set-up samples before each of the first MIN_PASSES passes, about 0.2 s
# each; setup_s is the median of all of them
SETUP_PER_PASS = 12
SETUP_CHILD = (
    "import io, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from lpequiv import cli\n"
    "sys.exit(cli.main(sys.argv[2:], out=io.StringIO()))\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "commands/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MiB",
}


def command_argv(workload: Workload, path: Path) -> list[str]:
    return [str(path) if a == INSTANCE else a for a in workload.argv]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
    }


def measure_setup(workload: Workload, warmup: Path) -> list[float]:
    """Wall times of fresh processes that import lpequiv and run one tiny command."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), *command_argv(workload, warmup)]
    times = []
    for _ in range(SETUP_PER_PASS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class PassResult:
    latencies: list[float]
    ok: list[bool]
    errors: list[str]


def run_pass(cli, workload: Workload, stream: InstanceStream, workdir: Path,
             pass_no: int, tracer: Tracer | None = None) -> PassResult:
    paths = [
        write_instance(workdir / f"pass{pass_no}-{i}.txt", A, b)
        for i, (A, b) in enumerate(stream.next_pass())
    ]

    # start every pass with the same collector state, outside the timed region
    gc.collect()
    runs = []
    for i, path in enumerate(paths):
        argv = command_argv(workload, path)
        if tracer is not None:
            tracer.command_id = (pass_no, i)
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv, out=out)
        except Exception as exc:  # a crash is one failed command, not the end of the run
            rc = repr(exc)
        runs.append((argv, path, rc, time.perf_counter() - t0, out.getvalue()))

    result = PassResult([], [], [])
    for argv, path, rc, dt, text in runs:
        if rc != 0:
            errs = [f"exit {rc}"]
        else:
            errs = check_command(argv, text, InstanceFacts.from_text(path.read_text("utf-8")))
        result.latencies.append(dt)
        result.ok.append(not errs)
        result.errors.extend(f"{path.name}: {e}" for e in errs)
    return result


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "lpequiv" / "__init__.py").is_file():
        print(f"error: no lpequiv sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy is first imported, here and in every child
    os.environ.update(BLAS_ENV)
    os.environ.pop("LPEQUIV_CONFIG", None)
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warmup = workdir / "warmup.txt"
        warmup.write_text(WARMUP_TEXT, encoding="utf-8")
        setup_times: list[float] = []

        sys.path.insert(0, str(SRC))
        import lpequiv
        from lpequiv import cli

        if Path(lpequiv.__file__).resolve().parent != (SRC / "lpequiv").resolve():
            print(f"error: lpequiv imported from {lpequiv.__file__}", file=sys.stderr)
            return 2
        if cli.main(command_argv(workload, warmup), out=io.StringIO()) != 0:
            print("error: warm-up command failed", file=sys.stderr)
            return 2

        stream = InstanceStream(workload.shapes, seed)
        passes: list[PassResult] = []
        traced: list[tuple[PassResult, Tracer]] = []
        peak_rss_mb = None
        longest = 0.0
        start = time.perf_counter()
        min_passes = 1 if trace else MIN_PASSES
        while len(passes) < min_passes or time.perf_counter() - start + longest <= seconds:
            pass_no = len(passes) + len(traced)
            if not trace and len(passes) < MIN_PASSES:
                setup_times += measure_setup(workload, warmup)
            t0 = time.perf_counter()
            passes.append(run_pass(cli, workload, stream, workdir, pass_no))
            if len(passes) == MIN_PASSES:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if trace:
                tracer = Tracer()
                tracer.install()
                try:
                    res = run_pass(cli, workload, stream, workdir, pass_no + 1, tracer)
                finally:
                    tracer.uninstall()
                traced.append((res, tracer))
            longest = max(longest, time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = passes + [res for res, _ in traced]
    attempted = sum(len(p.ok) for p in everything)
    failed = sum(not ok for p in everything for ok in p.ok)
    for p in everything:
        for err in p.errors[:5]:
            print(f"oracle: {err}", file=sys.stderr)

    untraced = [t for p in passes for t in p.latencies]
    if trace:
        for k, (_, tracer) in enumerate(traced):
            tracer.write(WORK / f"spans-{workload.name}-{seed}-{k}.jsonl")
        rows = [per_layer(t.spans) for _, t in traced]
        values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        traced_s = sum(sum(r.latencies) for r, _ in traced)
        values["trace_overhead_frac"] = traced_s / sum(untraced) - 1.0
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        samples = {k: len(traced) for k in metrics}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": statistics.median(sum(p.ok) / sum(p.latencies) for p in passes),
            "op_p50_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        samples = {"setup_s": len(setup_times), "ops_per_s": len(passes),
                   "op_p50_s": len(untraced), "peak_rss_mb": 1}

    print(f"workload {workload.name} seed {seed} trace {int(trace)}: "
          f"{len(everything)} passes, {attempted} commands")
    print("environment " + json.dumps(environment(), sort_keys=True))
    for k, m in metrics.items():
        print(f"  {k:<44} {m['value']:>14.6g} {m['unit']:<11} n={samples[k]}")
    print(f"  {'fail_frac':<44} {failed / attempted:>14.6g} {'fraction':<11} n={attempted}")
    print(f"oracle verdict: {'all answers correct' if failed == 0 else f'{failed} wrong'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_frac", ".yield")):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        # each workload in a fresh process, as the single-workload runs are
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
