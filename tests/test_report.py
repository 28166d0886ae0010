"""Serialization: JSON and CSV text with one float rule."""
import json
import math

import pytest

from lpequiv.report import dump_csv, dump_json, format_float


class TestDumpJson:
    def test_float_types_and_signs_round_trip(self):
        back = json.loads(dump_json({"a": 1.0, "b": -0.0, "c": 1e16}))
        assert [type(v) for v in back.values()] == [float, float, float]
        assert back == {"a": 1.0, "b": 0.0, "c": 1e16}
        assert math.copysign(1.0, back["b"]) == -1.0

    def test_layout(self):
        text = dump_json({"b": [1, 2.5], "a": {"z": True, "y": None}, "c": [], "é": "ü"})
        assert text == (
            '{\n  "a": {\n    "y": null,\n    "z": true\n  },\n'
            '  "b": [\n    1,\n    2.5\n  ],\n  "c": [],\n  "é": "ü"\n}\n'
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            dump_json({"x": bad})


class TestOneFloatRule:
    @pytest.mark.parametrize("x", [0.1, 1.0, -0.0, 1e16, 2.5e-300, 1 / 3])
    def test_text_csv_and_json_agree(self, x):
        assert format_float(x) == repr(x) == dump_json(x).strip()
        assert dump_csv(["x"], [[x]]) == f"x\n{repr(x)}\n"
        assert float(format_float(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(math.nan)
