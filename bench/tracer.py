"""Outside tracer: spans around the public functions of ``lpequiv``'s modules.

Nothing under ``src/`` changes. ``Tracer.install`` replaces every module
binding of a layer's public function with a wrapper; ``solvers.g_vertices``
and ``equivalence.g_vertices`` are two names for ``polytope.g_vertices``, and
both are wrapped, so calls are seen whichever module makes them. A call
records one span: name, start, end, parent span and command id, plus counts
taken from the call's arguments and result. Spans stay in memory until
``write`` is called when the run ends.

``per_layer`` turns the spans into the benchmark's per-layer metrics. A
function missing from the package (deleted by a later change) has no spans
and reports 0 calls.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from math import comb

PACKAGE = "lpequiv"
LAYERS = ("cli", "system", "solvers", "polytope", "equivalence", "report")

# Called once per float while a report is serialized; a span per scalar
# would make the tracer's own cost the bulk of report.dump_json.
UNTRACED = {"report.format_float"}


# Each counter gets the call's first argument (the polyhedron, solution
# parameterization or instance the function works on) and its result.
def _counts_enumerate_vertices(poly, result):
    rows, dim = poly.H.shape
    return {"subsets": comb(rows, dim), "vertices": len(result)}


def _counts_g_vertices(param, result):
    inst = param.instance
    return {"vertices": len(result), "instance": hash((inst.A.tobytes(), inst.b.tobytes()))}


def _counts_fm_eliminate(poly, result):
    return {"rows_out": result.nrows}


def _counts_solve_l0(inst, result):
    # solve_l0 tries every support of size 0..k0
    return {"supports": sum(comb(inst.n, k) for k in range(result[0].l0 + 1))}


def _counts_dump_json(obj, result):
    return {"bytes": len(result.encode("utf-8"))}


COUNTERS = {
    "polytope.enumerate_vertices": _counts_enumerate_vertices,
    "polytope.g_vertices": _counts_g_vertices,
    "polytope.fm_eliminate": _counts_fm_eliminate,
    "solvers.solve_l0": _counts_solve_l0,
    "report.dump_json": _counts_dump_json,
}


class Tracer:
    """Records spans for the public functions of the package's layer modules."""

    def __init__(self):
        self.spans: list[dict] = []
        self.command_id: tuple[int, int] | None = None
        self._stack: list[list] = []  # [span index, child time] per open span
        self._patched: list[tuple[object, str, object]] = []

    def _targets(self) -> dict:
        """Function object -> span name, for each public function of each layer."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                span = f"{layer}.{name}"
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and span not in UNTRACED:
                    targets[fn] = span
        return targets

    def _wrap(self, fn, name: str):
        first_param = next(iter(inspect.signature(fn).parameters), None)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[idx] = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "self": end - start - frame[1],
                    "parent": parent,
                    "command": self.command_id,
                }
            if counter is not None:
                first = args[0] if args else kwargs[first_param]
                spans[idx].update(counter(first, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        targets = self._targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def per_layer(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the spans of one tracer.

    Times and counts are totals over the traced commands; ``yield``,
    ``keep_frac`` and ``repeat_frac`` are ratios of totals.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    ev = "polytope.enumerate_vertices"
    subsets, lift_vertices = total(ev, "subsets"), total(ev, "vertices")
    out[f"{ev}.calls"] = calls(ev)
    out[f"{ev}.self_s"] = total(ev, "self")
    out[f"{ev}.subsets"] = subsets
    out[f"{ev}.vertices"] = lift_vertices
    out[f"{ev}.yield"] = lift_vertices / subsets if subsets else 0.0

    gv = "polytope.g_vertices"
    lift_under_g = sum(
        s.get("vertices", 0) for s in by_name.get(ev, ())
        if s["parent"] is not None and spans[s["parent"]]["name"] == gv
    )
    seen, repeats = set(), 0
    for s in by_name.get(gv, ()):
        key = (s["command"], s.get("instance"))
        repeats += key in seen
        seen.add(key)
    g_vertices = total(gv, "vertices")
    out[f"{gv}.calls"] = calls(gv)
    out[f"{gv}.self_s"] = total(gv, "self")
    out[f"{gv}.vertices"] = g_vertices
    out[f"{gv}.keep_frac"] = g_vertices / lift_under_g if lift_under_g else 0.0
    out[f"{gv}.repeat_frac"] = repeats / calls(gv) if calls(gv) else 0.0

    fm = "polytope.fm_eliminate"
    out[f"{fm}.calls"] = calls(fm)
    out[f"{fm}.self_s"] = total(fm, "self")
    out[f"{fm}.rows_out"] = total(fm, "rows_out")
    out["polytope.build_lambda.self_s"] = total("polytope.build_lambda", "self")

    for name in ("solvers.solve_lp_extreme", "solvers.recover_sign", "solvers.solve_l0"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = total(name, "self")
    out["solvers.solve_l0.supports"] = total("solvers.solve_l0", "supports")

    out["system.load_instance.self_s"] = total("system.load_instance", "self")
    out["system.load_and_reduce.self_s"] = total("system.load_and_reduce", "self")
    out["system.decompose.calls"] = calls("system.decompose")
    out["system.decompose.self_s"] = total("system.decompose", "self")

    for fn in ("compute_bound", "compute_rm", "verify_equivalence", "scan_pstar"):
        out[f"equivalence.{fn}.calls"] = calls(f"equivalence.{fn}")
        out[f"equivalence.{fn}.self_s"] = total(f"equivalence.{fn}", "self")

    out["report.dump_json.self_s"] = total("report.dump_json", "self")
    out["report.dump_json.bytes"] = total("report.dump_json", "bytes")
    out["cli.main.self_s"] = total("cli.main", "self")
    return out
