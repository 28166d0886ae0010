"""Deterministic serialization helpers.

Floats are rendered in their shortest round-trip form (``repr``), so every
value parses back to the identical float; JSON floats always carry a
decimal point or exponent. Dictionary keys are emitted sorted, so identical
inputs always produce byte-identical output.
"""
from __future__ import annotations

import json
import math

__all__ = ["format_float", "dump_json", "dump_csv"]


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return repr(x)


def dump_json(obj) -> str:
    """JSON text with sorted keys, two-space indents and round-trip floats."""
    return json.dumps(
        obj, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False
    ) + "\n"


def dump_csv(header: list[str], rows: list[list]) -> str:
    """CSV text; floats use the same rule as JSON."""
    def cell(v) -> str:
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, float):
            return format_float(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
