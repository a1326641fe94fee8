"""The json report as the engine first built it: the test oracle.

`encode` turns a verdict's values into plain lists, dicts and strings,
`report_dict` lays out the top level, and `json.dumps(..., indent=2)`
writes the bytes.  `brauerval.report.render_json` must give exactly
these bytes for every verdict.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from brauerval import __version__ as ENGINE_VERSION
from brauerval.division import Certificate
from brauerval.lattices import Lattice, ValueVector
from brauerval.report import SCHEMA
from brauerval.symbols import SymbolSum, SymbolTerm
from brauerval.towers import FormalElement
from brauerval.verify import Verdict


def encode(value: object) -> Any:
    """Json-compatible form with deterministic ordering."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, ValueVector):
        return [encode(c) for c in value.coords]
    if isinstance(value, Lattice):
        return {"denominator": value.denominator, "rows": [list(r) for r in value.rows]}
    if isinstance(value, (FormalElement, SymbolTerm, SymbolSum)):
        return str(value)
    if isinstance(value, Certificate):
        return {
            "rule": value.rule,
            "status": value.status,
            "payload": encode(value.payload),
            "children": [encode(c) for c in value.children],
        }
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


def report_dict(v: Verdict) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "engine_version": ENGINE_VERSION,
        "task": v.task,
        "parameters": encode(v.parameters),
        "result": v.result,
        "exit_code": v.exit_code,
        "payload": encode(v.payload),
        "certificates": [encode(c) for c in v.certificates],
        "timing": None,
    }


def oracle_json(v: Verdict) -> str:
    return json.dumps(report_dict(v), indent=2) + "\n"
